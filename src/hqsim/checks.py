"""The package's invariants, one function each, and their tolerances.

``hqsim verify`` runs these functions on small grids, the test suite on
larger ones.  Each takes the cases to check and returns the worst deviation
over them, which passes when it is at most its tolerance below, or the list
of failing cases, which passes when empty.
"""

from __future__ import annotations

import math

import numpy as np

from .core import build_qft_circuit, circuit_matrix
from .costs import predict_dft_cost, predict_search_cost
from .hybrid_fft import FftPlan, RealSignal, direct_dft, hybrid_dft
from .readout import evaluate_nodes
from .search import SearchOracle, class_orders, grover_step, partition_search, plan_iterations

CIRCUIT_TOLERANCE = 1e-10
UNITARITY_TOLERANCE = 1e-12
TRANSFORM_TOLERANCE = 1e-9
AMPLIFICATION_TOLERANCE = 1e-10
# Empirical RMSE over reported stderr in sampled mode: over all coefficients
# together, and the most any one coefficient may be under-reported.
STDERR_RATIO_BAND = (0.75, 1.3)
STDERR_COEFFICIENT_LIMIT = 2.5


def circuit_deviation(node_sizes) -> float:
    """Worst entry deviation of the ``n_q``-qubit transform circuit's matrix
    from ``exp(+2*pi*i*j*k/N) / sqrt(N)``, over the given ``n_q``."""
    worst = 0.0
    for n_q in node_sizes:
        k = np.arange(2**n_q)
        want = np.exp(2j * np.pi * np.outer(k, k) / 2**n_q) / math.sqrt(2**n_q)
        got = circuit_matrix(build_qft_circuit(n_q), n_q)
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def unitarity_deviation(gates) -> float:
    """Worst entry deviation of ``M^dagger M`` from the identity over the
    given gates' compiled actions, each on the qubits up to its highest."""
    worst = 0.0
    for gate in gates:
        m = circuit_matrix([gate], max(gate.qubits) + 1)
        worst = max(worst, float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))))
    return worst


def round_trip_deviation(blocks) -> float:
    """Worst coefficient deviation of one node's exact readout, sign rebuild
    and rescale from the direct transform, over real blocks of ``2**n_q``
    values, ``n_q >= 1``, each run as a batch of one."""
    worst = 0.0
    for values in blocks:
        signal = RealSignal.from_values(values)
        got, _ = evaluate_nodes(signal.values[:, None])
        want = direct_dft(signal).values
        worst = max(worst, float(np.max(np.abs(got[:, 0] - want))))
    return worst


def transform_deviation(signals) -> float:
    """Worst coefficient deviation of the exact hybrid transform from the
    direct transform, over the given signals and every ``0 <= n_q <= n``."""
    worst = 0.0
    for signal in signals:
        want = direct_dft(signal).values
        for n_q in range(signal.n + 1):
            got, _ = hybrid_dft(signal, FftPlan(n=signal.n, n_q=n_q))
            worst = max(worst, float(np.max(np.abs(got.values - want))))
    return worst


def stderr_miscalibrations(cases, seeds) -> list[tuple[int, int, int, float, float]]:
    """Sampled hybrid transforms whose reported ``stderr`` misstates their
    error.

    Each case is ``(signal, n_q, shots)``, run once per master seed in
    ``seeds``.  The empirical RMSE against the direct transform over the
    reported RMS ``stderr`` must lie in ``STDERR_RATIO_BAND`` over all
    coefficients together and be at most ``STDERR_COEFFICIENT_LIMIT`` for
    each coefficient alone; a coefficient reported exact must be within
    ``TRANSFORM_TOLERANCE``.  Returns ``(n, n_q, shots, overall ratio, worst
    coefficient ratio)`` per failing case.
    """
    failing = []
    for signal, n_q, shots in cases:
        want = direct_dft(signal).values
        sq_error = np.zeros(signal.size)
        variance = np.zeros(signal.size)
        for seed in seeds:
            plan = FftPlan(n=signal.n, n_q=n_q, shots=shots, master_seed=seed)
            got, _ = hybrid_dft(signal, plan)
            sq_error += np.abs(got.values - want) ** 2
            variance += got.stderr**2
        overall = math.sqrt(sq_error.sum() / variance.sum())
        erred = sq_error > len(seeds) * TRANSFORM_TOLERANCE**2
        with np.errstate(divide="ignore"):
            worst = float(np.sqrt(np.max(sq_error[erred] / variance[erred], initial=0.0)))
        low, high = STDERR_RATIO_BAND
        if not low <= overall <= high or worst > STDERR_COEFFICIENT_LIMIT:
            failing.append((signal.n, n_q, shots, overall, worst))
    return failing


def amplification_deviation(sizes, iterations: int) -> float:
    """Worst deviation of the solution probability after ``t`` steps from
    the uniform state from ``sin**2((2t+1)*theta)``, ``sin(theta)**2 = m/N``
    (Boyer, Brassard, Hoyer and Tapp, quant-ph/9605034), over every ``N`` in
    ``sizes``, ``0 <= m <= N`` and ``t = 1 .. iterations``."""
    worst = 0.0
    for n_total in sizes:
        for m in range(n_total + 1):
            mask = np.arange(n_total) < m
            theta = math.asin(math.sqrt(m / n_total))
            amps = np.full(n_total, 1.0 / math.sqrt(n_total), dtype=complex)
            for t in range(1, iterations + 1):
                amps = grover_step(amps, mask)
                got = float(np.sum(np.abs(amps[mask]) ** 2)) if m else 0.0
                worst = max(worst, abs(got - math.sin((2 * t + 1) * theta) ** 2))
    return worst


def class_order_mismatches(sizes) -> list[tuple[int, int, int, int, float]]:
    """Cases where the integer class order exact search measures by
    (:func:`~hqsim.search.class_orders`) disagrees with the sign of
    ``|a_sol|**2 - |a_non|**2`` from ``grover_step``'s float amplitudes,
    although that float gap exceeds ``AMPLIFICATION_TOLERANCE``: ``(N, m, t,
    order, float gap)`` per case, over every ``N`` in ``sizes``, ``0 < m <
    N`` and ``t`` up to the node's largest planned count.  At ``m = 0`` or
    ``m = N`` one class is empty, so there is no order to compare."""
    mismatches = []
    for n_total in sizes:
        if n_total < 2:
            continue
        steps = range(plan_iterations(n_total, 1) + 1)
        counts = np.arange(1, n_total)
        # Row m-1 holds m solutions, on its first m entries.
        mask = np.arange(n_total) < counts[:, None]
        orders = [class_orders(n_total, int(m), steps) for m in counts]
        amps = np.full(mask.shape, 1.0 / math.sqrt(n_total), dtype=complex)
        for t in steps:
            if t:
                amps = grover_step(amps, mask)
            gaps = np.abs(amps[:, 0]) ** 2 - np.abs(amps[:, -1]) ** 2
            for m, order, gap in zip(counts.tolist(), orders, gaps.tolist()):
                if abs(gap) > AMPLIFICATION_TOLERANCE and order[t] != (1 if gap > 0 else -1):
                    mismatches.append((n_total, m, t, order[t], gap))
    return mismatches


def search_misses(oracles) -> list[tuple[int, int, list[int]]]:
    """Exact partitioned searches, at every ``0 <= n_q <= n`` of each
    set-backed oracle and of its predicate-only twin (the same
    ``membership`` without ``solutions``), where either run misses the
    solution set, the two charge different ledgers, or either ledger breaks
    the identity ``classical_oracle_queries + sweep_queries == 2**n`` (each
    index is verified, ruled out or swept once): ``(n, n_q, indices found
    or missed in error by either run)`` per failing ``n_q``."""
    misses = []
    for oracle in oracles:
        truth = set(oracle.solutions)
        twin = SearchOracle(oracle.n, oracle.membership, oracle.solution_count, None)
        for n_q in range(oracle.n + 1):
            found, ledger = partition_search(oracle, n_q)
            twin_found, twin_ledger = partition_search(twin, n_q)
            wrong = (found ^ truth) | (twin_found ^ truth)
            enumerated = {run.classical_oracle_queries + run.sweep_queries for run in (ledger, twin_ledger)}
            if wrong or ledger != twin_ledger or enumerated != {2**oracle.n}:
                misses.append((oracle.n, n_q, sorted(wrong)))
    return misses


def counter_mismatches(cases) -> list[tuple[str, int, int, str, int, int]]:
    """Ledger counters that differ from the forecast term of the same name.

    Each case is ``(problem, n_q)``: a ``RealSignal`` runs the exact hybrid
    transform against :func:`predict_dft_cost`, a one-solution
    ``SearchOracle`` the exact partitioned search against
    :func:`predict_search_cost`.  Returns ``(algorithm, n, n_q, term,
    measured, forecast)`` per differing counter.
    """
    mismatches = []
    for problem, n_q in cases:
        if isinstance(problem, SearchOracle):
            _, ledger = partition_search(problem, n_q)
            forecast = predict_search_cost(problem.n, n_q)
        else:
            _, ledger = hybrid_dft(problem, FftPlan(n=problem.n, n_q=n_q))
            forecast = predict_dft_cost(problem.n, n_q)
        for term, want in forecast.terms.items():
            got = getattr(ledger, term, None)
            if got is not None and got != want:
                mismatches.append((forecast.algorithm, problem.n, n_q, term, got, want))
    return mismatches
