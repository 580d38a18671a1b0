"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The invariant checks and their tolerances are defined once, in
:mod:`hqsim.checks`, which ``hqsim verify`` runs on smaller grids; the
criteria run them on their own grids and pin each tolerance's value here.
No tolerance is configurable.
"""

import contextlib
import math
import time

import numpy as np

from hqsim.checks import (
    AMPLIFICATION_TOLERANCE,
    CIRCUIT_TOLERANCE,
    TRANSFORM_TOLERANCE,
    UNITARITY_TOLERANCE,
    amplification_deviation,
    circuit_deviation,
    counter_mismatches,
    round_trip_deviation,
    search_misses,
    transform_deviation,
    unitarity_deviation,
)
from hqsim.cli import main, parse_args, report_csv, report_json, run_experiment
from hqsim.core import ControlledPhase, Hadamard, PhaseShift, Swap
from hqsim.costs import fit_scaling_exponent
from hqsim.hybrid_fft import FftPlan, RealSignal, direct_dft, hybrid_dft
from hqsim.readout import (
    ROLE_MAGNITUDE,
    ROLE_REFERENCE,
    BlockVector,
    build_schedule,
    execute_schedule,
    rebuild_phases,
    rescale_to_dft,
)
from hqsim.search import SearchOracle, grover_step, partition_search

INV_SQRT2 = 1.0 / math.sqrt(2.0)


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({title}): FAIL")
        raise
    print(f"criterion {number:2d} ({title}): PASS")


def dft_matrix(N):
    k = np.arange(N)
    return np.exp(2j * np.pi * np.outer(k, k) / N)


def test_criterion_1_hybrid_dft_oracle_equivalence():
    with criterion(1, "hybrid transform equals direct reference"):
        start = time.monotonic()
        signals = []
        for n in range(1, 11):
            rng = np.random.default_rng(1000 + n)
            signals += [RealSignal.from_values(rng.uniform(-1, 1, 2**n)) for _ in range(20)]
        worst = transform_deviation(signals)
        elapsed = time.monotonic() - start
        assert TRANSFORM_TOLERANCE == 1e-9
        assert worst <= TRANSFORM_TOLERANCE, f"max deviation {worst}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        # The node itself: its circuit is the root matrix, its gates are
        # unitary and its readout reproduces each block's transform.
        assert CIRCUIT_TOLERANCE == 1e-10
        assert circuit_deviation(range(1, 7)) <= CIRCUIT_TOLERANCE
        assert UNITARITY_TOLERANCE == 1e-12
        gates = [Hadamard(0), Swap(0, 1)]
        gates += [PhaseShift(0, phi) for phi in (0.37, math.pi / 3, -2.0)]
        gates += [ControlledPhase(0, 1, phi) for phi in (0.37, math.pi / 3, -2.0)]
        assert unitarity_deviation(gates) <= UNITARITY_TOLERANCE
        rng = np.random.default_rng(1100)
        blocks = [rng.uniform(-1, 1, 2**n_q) for n_q in range(1, 7) for _ in range(20)]
        assert round_trip_deviation(blocks) <= TRANSFORM_TOLERANCE


def test_criterion_2_measurement_schedule_closed_forms():
    with criterion(2, "four-point schedule reproduces closed forms"):
        rng = np.random.default_rng(2024)
        schedule = build_schedule(2)
        for _ in range(100):
            values = rng.normal(size=4)
            block = BlockVector.from_values(values)
            record = execute_schedule(block, schedule)
            x = block.values / block.norm
            y = dft_matrix(4) @ x / 2.0
            y1a, y1b = y[1].real, y[1].imag
            m = record.measurements
            assert abs(m[(0, ROLE_MAGNITUDE)] - abs(y[0]) ** 2 / 2) <= 1e-12
            assert abs(m[(1, ROLE_MAGNITUDE)] - abs(y[2]) ** 2 / 2) <= 1e-12
            assert abs(m[(2, ROLE_MAGNITUDE)] - y1a**2) <= 1e-12
            assert abs(m[(3, ROLE_MAGNITUDE)] - y1b**2) <= 1e-12
            assert abs(m[(2, ROLE_REFERENCE)] - 0.5 * abs((x[1] + x[3]) / 2 + y1a) ** 2) <= 1e-12
            assert abs(m[(3, ROLE_REFERENCE)] - 0.5 * abs((x[1] - x[3]) / 2 + y1b) ** 2) <= 1e-12
            # Self-conjugate references under the joint-probability
            # convention used throughout this package.
            assert abs(m[(0, ROLE_REFERENCE)] - abs(x[0] + y[0]) ** 2 / 4) <= 1e-12
            assert abs(m[(1, ROLE_REFERENCE)] - abs(x[2] + y[2]) ** 2 / 4) <= 1e-12


def _references(x):
    N = x.size
    refs = [abs(x[0]), abs(x[N // 2])]
    for k in range(1, N // 2):
        refs.append(abs(x[k] + x[N - k]) * INV_SQRT2)
        refs.append(abs(x[k] - x[N - k]) * INV_SQRT2)
    return refs


def test_criterion_3_sign_reconstruction():
    with criterion(3, "sign rebuild: no errors, ambiguity flagged"):
        for n_q in (1, 2, 3, 4):
            N = 2**n_q
            rng = np.random.default_rng(3000 + n_q)
            schedule = build_schedule(n_q)
            matrix = dft_matrix(N)
            checked = 0
            while checked < 1000:
                values = rng.normal(size=N)
                block = BlockVector.from_values(values)
                if min(_references(block.values / block.norm)) < 0.05:
                    continue
                checked += 1
                record = execute_schedule(block, schedule)
                estimate = rebuild_phases(record, block)
                assert not estimate.ambiguous
                got = rescale_to_dft(estimate)
                want = matrix @ values.astype(complex)
                assert np.max(np.abs(got - want)) <= 1e-9
        # Ambiguous references are flagged and resolved, never silently wrong.
        values = np.array([1.0, 1.0, 2.0, 1.0, 1.0, -1.0, 1.0, 1.0])
        block = BlockVector.from_values(values)
        record = execute_schedule(block, build_schedule(3))
        estimate = rebuild_phases(record, block)
        assert 1 in estimate.ambiguous
        assert estimate.classical_fallbacks >= 1
        got = rescale_to_dft(estimate)
        want = dft_matrix(8) @ values.astype(complex)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_criterion_4_shot_noise_scaling():
    with criterion(4, "coefficient error scales with shots"):
        start = time.monotonic()
        signal = RealSignal.from_values([3.0, 2.0, -2.0, -1.0])
        want = direct_dft(signal).values
        rmse = []
        for shots in (1000, 4000, 16000):
            sq_errors = []
            for seed in range(100):
                got, _ = hybrid_dft(
                    signal,
                    FftPlan(n=2, n_q=2, mode="sampled", shots=shots, master_seed=seed),
                )
                sq_errors.append(np.abs(got.values - want) ** 2)
            rmse.append(float(np.sqrt(np.mean(sq_errors))))
        for bigger, smaller in zip(rmse, rmse[1:]):
            ratio = bigger / smaller
            assert 1.4 <= ratio <= 2.8, (rmse, ratio)
        assert time.monotonic() - start < 120.0


def test_criterion_5_amplification_law():
    with criterion(5, "solution probability follows the rotation law"):
        assert AMPLIFICATION_TOLERANCE == 1e-10
        assert amplification_deviation((2, 4, 8, 16), 10) <= AMPLIFICATION_TOLERANCE
        # The size-4 single-solution case is exact after one iteration.
        mask = np.arange(4) == 2
        amps = grover_step(np.full(4, 0.5, dtype=complex), mask)
        assert abs(float(np.sum(np.abs(amps[mask]) ** 2)) - 1.0) <= 1e-12


def test_criterion_6_partition_search_completeness():
    with criterion(6, "partitioned search returns the exact solution set"):
        counts = {1: 30, 2: 30, 3: 30, 4: 25, 5: 20, 6: 20, 7: 15, 8: 12, 9: 10, 10: 8}
        assert sum(counts.values()) == 200
        rng = np.random.default_rng(600)
        oracles = []
        for n, how_many in counts.items():
            for _ in range(how_many):
                m = int(rng.integers(0, 2**n + 1))
                oracles.append(SearchOracle.random(n, m, int(rng.integers(0, 2**31))))
        assert search_misses(oracles) == []


def test_criterion_7_counter_exactness():
    with criterion(7, "ledger counters equal forecast terms"):
        rng = np.random.default_rng(700)
        # The pinned transform case.
        signal = RealSignal.from_values(np.arange(1.0, 17.0))
        _, ledger = hybrid_dft(signal, FftPlan(n=4, n_q=2))
        assert ledger.state_prep_units == 64
        assert ledger.quantum_gate_units == 16
        assert ledger.classical_ops == 32
        # Transform counters across sizes; single-solution search counters.
        cases = [
            (RealSignal.from_values(rng.uniform(-1, 1, 2**n)), n_q)
            for n, n_q in ((3, 1), (5, 3), (6, 6), (7, 2))
        ]
        cases += [
            (SearchOracle.from_solutions(n, [solution]), n_q)
            for n, n_q, solution in ((6, 2, 11), (8, 3, 77), (10, 5, 1000))
        ]
        assert counter_mismatches(cases) == []


def test_criterion_8_scaling_fits():
    with criterion(8, "measured counters reproduce the cost exponents"):
        # Quantum queries shrink with the half-power of the node size.
        oracle = SearchOracle.from_solutions(12, [3333])
        points = []
        for n_q in range(2, 11):
            _, ledger = partition_search(oracle, n_q)
            points.append((n_q, ledger.headline_quantum_queries))
        slope = fit_scaling_exponent(points)
        assert -0.6 <= slope <= -0.4, (slope, points)
        # Classical butterfly ops hit the exact per-level account at n=12.
        rng = np.random.default_rng(800)
        signal = RealSignal.from_values(rng.uniform(-1, 1, 2**12))
        for n_q in range(0, 13):
            _, ledger = hybrid_dft(signal, FftPlan(n=12, n_q=n_q))
            assert ledger.classical_ops == (12 - n_q) * 2**12
            assert ledger.classical_fallbacks == 0
        # Endpoints: the classical FFT account and the all-quantum account.
        _, at_zero = hybrid_dft(signal, FftPlan(n=12, n_q=0))
        assert at_zero.classical_ops == 12 * 2**12
        _, at_full = hybrid_dft(signal, FftPlan(n=12, n_q=12))
        assert at_full.classical_ops == 0


def test_criterion_9_memory_accounting():
    with criterion(9, "classical bits and qubit counts are reported"):
        rng = np.random.default_rng(900)
        for n, n_q in ((4, 0), (4, 2), (6, 5), (8, 8)):
            sig = RealSignal.from_values(rng.uniform(-1, 1, 2**n))
            _, led = hybrid_dft(sig, FftPlan(n=n, n_q=n_q))
            assert led.classical_bits == 2**n * 64
            assert led.qubit_count == n_q + 1
        _, led = hybrid_dft(
            RealSignal.from_values(rng.uniform(-1, 1, 16)),
            FftPlan(n=4, n_q=2, n_precision=32),
        )
        assert led.classical_bits == 16 * 32
        for n, n_q in ((5, 0), (5, 3), (6, 6)):
            oracle = SearchOracle.random(n, 3, seed=n)
            _, led = partition_search(oracle, n_q, n_precision=128)
            assert led.classical_bits == 2**n * 128
            assert led.qubit_count == n_q + 1


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "identical configs produce identical bytes"):
        cases = [
            ["dft-sweep", "--n", "6", "--nq", "0..6", "--seed", "5"],
            ["dft-run", "--n", "5", "--nq", "3", "--mode", "sampled",
             "--shots", "700", "--seed", "21"],
            ["search-sweep", "--n", "7", "--nq", "0..7",
             "--random-solutions", "5", "--seed", "13"],
        ]
        for i, args in enumerate(cases):
            blobs = []
            for tag in ("a", "b"):
                csv_path = tmp_path / f"{i}{tag}.csv"
                json_path = tmp_path / f"{i}{tag}.json"
                assert main(args + ["--out-csv", str(csv_path),
                                    "--out-json", str(json_path)]) == 0
                blobs.append((csv_path.read_bytes(), json_path.read_bytes()))
            assert blobs[0] == blobs[1]
        # The in-process report is identical too.
        cfg = parse_args(cases[0])
        assert report_csv(run_experiment(cfg)) == report_csv(run_experiment(cfg))
        assert report_json(run_experiment(cfg)) == report_json(run_experiment(cfg))
