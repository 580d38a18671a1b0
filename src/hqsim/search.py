"""Partitioned Grover search across fixed-size sublists.

The index domain ``[0, 2**n)`` is cut into contiguous sublists of
``2**n_q`` elements.  A simulated quantum node amplifies the solutions of
one sublist: sign-flip oracle followed by inversion about the mean, with
the iteration count planned for an assumed solution count that doubles on
every failed classical verification (the unknown-count retry policy).

Exact-mode measurement takes the most probable index among the candidates
not yet classically ruled out, which keeps the whole procedure
deterministic.  Since a sublist holding exactly half solutions produces the
same outcome distribution as an empty one, no measurement policy can
certify emptiness; after a node gives up, the orchestrator classically
sweeps whatever indices remain unknown so the returned set is always exact.
Sweep and retry costs are charged to their own counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .costs import CostLedger

__all__ = [
    "SearchOracle",
    "SublistPartition",
    "GroverOutcome",
    "grover_step",
    "plan_iterations",
    "search_node",
    "partition_search",
]


@dataclass(eq=False)
class SearchOracle:
    """Membership predicate over ``[0, 2**n)`` with known solution count."""

    n: int
    membership: Callable[[int], bool]
    solution_count: int
    solutions: frozenset | None = None

    @classmethod
    def from_solutions(cls, n: int, indices) -> "SearchOracle":
        sols = frozenset(int(i) for i in indices)
        for i in sols:
            if not 0 <= i < 2**n:
                raise ValueError(f"solution {i} out of range for n={n}")
        return cls(n, sols.__contains__, len(sols), sols)

    @classmethod
    def random(cls, n: int, count: int, seed: int) -> "SearchOracle":
        if not 0 <= count <= 2**n:
            raise ValueError(f"count {count} out of range for n={n}")
        rng = np.random.default_rng(seed)
        picks = rng.choice(2**n, size=count, replace=False)
        return cls.from_solutions(n, picks.tolist())


@dataclass(frozen=True)
class SublistPartition:
    """Contiguous sublists: sublist r covers [r * 2**n_q, (r+1) * 2**n_q)."""

    n: int
    n_q: int

    def __post_init__(self) -> None:
        if not 0 <= self.n_q <= self.n:
            raise ValueError(f"n_q={self.n_q} out of range for n={self.n}")

    @property
    def num_sublists(self) -> int:
        return 2 ** (self.n - self.n_q)

    @property
    def sublist_size(self) -> int:
        return 2**self.n_q

    def base(self, r: int) -> int:
        if not 0 <= r < self.num_sublists:
            raise ValueError(f"sublist {r} out of range")
        return r * self.sublist_size


@dataclass(frozen=True)
class GroverOutcome:
    """What one node call produced, including per-round bookkeeping."""

    sublist: int
    measured_index: int | None
    verified: bool
    iterations_used: int
    retries_used: int
    round_iterations: tuple[int, ...]
    successful_round: int | None
    tested: tuple[int, ...] = field(default=())


def _solution_mask(base: int, size: int, membership, excluded) -> np.ndarray:
    mask = np.zeros(size, dtype=bool)
    for local in range(size):
        g = base + local
        if g not in excluded and membership(g):
            mask[local] = True
    return mask


def grover_step(amps: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """One amplification step on a sublist's amplitudes: the oracle flips
    the sign of the ``mask`` entries, then every amplitude is inverted about
    the mean.  Returns a new array; charges nothing."""
    flipped = np.where(mask, -amps, amps)
    return 2.0 * flipped.mean() - flipped


def plan_iterations(n_total: int, m_assumed: int) -> int:
    """Iteration count maximizing the success amplitude for an assumed
    solution count: the smallest t maximizing sin**2((2t+1) * theta)."""
    if not 1 <= m_assumed <= n_total:
        raise ValueError(f"m_assumed={m_assumed} out of range for {n_total}")
    theta = math.asin(math.sqrt(m_assumed / n_total))
    limit = int(math.ceil(math.pi / (4.0 * theta))) + 2
    best_t, best_v = 0, -1.0
    for t in range(limit + 1):
        v = math.sin((2 * t + 1) * theta) ** 2
        if v > best_v + 1e-15:
            best_t, best_v = t, v
    return best_t


def _measure(probs: np.ndarray, mode: str, skip, rng) -> int:
    if mode == "exact":
        masked = probs.copy()
        if skip:
            masked[list(skip)] = -1.0
        return int(np.argmax(masked))
    total = probs.sum()
    return int(rng.choice(probs.size, p=probs / total))


def search_node(
    partition: SublistPartition,
    sublist: int,
    oracle: SearchOracle,
    mode: str = "exact",
    seed: int = 0,
    ledger: CostLedger | None = None,
    exclude_solutions: frozenset = frozenset(),
    skip_candidates: frozenset = frozenset(),
    solution_mask: np.ndarray | None = None,
) -> GroverOutcome:
    """Search one sublist with doubling assumed-count retries.

    ``exclude_solutions`` (global indices) are treated as non-solutions by
    the node's oracle; ``skip_candidates`` (local indices) are classically
    known already and never measured in exact mode.  ``solution_mask`` lets
    an orchestrator hand in the local oracle mask it has already built.
    Each round runs a planned number of amplification steps, measures, and
    verifies the candidate classically; the node stops on success or after
    n_q + 1 rounds.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    base = partition.base(sublist)
    size = partition.sublist_size

    def is_solution(g: int) -> bool:
        return g not in exclude_solutions and oracle.membership(g)

    if partition.n_q == 0:
        # Degenerate one-element node: a single classical test.
        if ledger is not None:
            ledger.classical_oracle_queries += 1
        ok = is_solution(base)
        return GroverOutcome(
            sublist, base, ok, 0, 0, (0,), 1 if ok else None, tested=(0,) if not ok else ()
        )

    if solution_mask is None:
        solution_mask = _solution_mask(base, size, oracle.membership, exclude_solutions)
    rng = np.random.default_rng(seed) if mode == "sampled" else None
    tested: list[int] = []
    round_iterations: list[int] = []
    guess = 1
    for round_no in range(1, partition.n_q + 2):
        skip = skip_candidates.union(tested) if mode == "exact" else frozenset()
        if mode == "exact" and len(skip) >= size:
            break  # nothing measurable remains; do not charge a round
        t = plan_iterations(size, min(guess, size))
        amps = np.full(size, 1.0 / math.sqrt(size), dtype=complex)
        for _ in range(t):
            amps = grover_step(amps, solution_mask)
        if ledger is not None:
            ledger.quantum_oracle_queries += t
            ledger.measurement_units += 1
        round_iterations.append(t)
        local = _measure(np.abs(amps) ** 2, mode, skip, rng)
        if ledger is not None:
            ledger.classical_oracle_queries += 1
        candidate = base + local
        if is_solution(candidate):
            return GroverOutcome(
                sublist,
                candidate,
                True,
                sum(round_iterations),
                round_no - 1,
                tuple(round_iterations),
                round_no,
                tested=tuple(tested),
            )
        if local not in tested:
            tested.append(local)
        guess *= 2
    last = (base + tested[-1]) if tested else None
    return GroverOutcome(
        sublist,
        last,
        False,
        sum(round_iterations),
        max(len(round_iterations) - 1, 0),
        tuple(round_iterations),
        None,
        tested=tuple(tested),
    )


def _node_seed(master_seed: int, sublist: int, call: int) -> int:
    return int(np.random.SeedSequence([master_seed, sublist, call]).generate_state(1)[0])


def partition_search(
    oracle: SearchOracle,
    n_q: int,
    mode: str = "exact",
    master_seed: int = 0,
    n_precision: int = 64,
) -> tuple[set[int], CostLedger]:
    """Find every solution by driving a node over each sublist.

    Each sublist is searched repeatedly, masking solutions already found,
    until a call fails; indices still unknown at that point are settled by
    a classical residual sweep.  Only the first call per sublist counts as
    a node access, and only its first-round (or winning-round) iterations
    count toward the headline query total; everything else lands in the
    retry/repeat/sweep counters.
    """
    partition = SublistPartition(oracle.n, n_q)
    ledger = CostLedger()
    found: set[int] = set()
    for r in range(partition.num_sublists):
        base = partition.base(r)
        size = partition.sublist_size
        base_mask = (
            _solution_mask(base, size, oracle.membership, frozenset())
            if n_q > 0
            else None
        )
        found_local: set[int] = set()
        known_non: set[int] = set()
        call = 0
        while len(found_local) + len(known_non) < size:
            mask = None
            if base_mask is not None:
                mask = base_mask.copy()
                if found_local:
                    mask[list(found_local)] = False
            outcome = search_node(
                partition,
                r,
                oracle,
                mode=mode,
                seed=_node_seed(master_seed, r, call),
                ledger=ledger,
                exclude_solutions=frozenset(base + i for i in found_local),
                skip_candidates=frozenset(found_local | known_non),
                solution_mask=mask,
            )
            total_t = outcome.iterations_used
            if call == 0:
                ledger.node_accesses += 1
                if outcome.verified:
                    headline = outcome.round_iterations[outcome.successful_round - 1]
                else:
                    headline = outcome.round_iterations[0] if outcome.round_iterations else 0
                ledger.retry_queries += total_t - headline
            else:
                ledger.repeat_node_accesses += 1
                ledger.retry_queries += total_t
            known_non.update(t for t in outcome.tested if t not in found_local)
            if not outcome.verified:
                break
            found_local.add(outcome.measured_index - base)
            call += 1
        # Residual sweep: certify whatever the node could not settle.
        for local in range(size):
            if local in found_local or local in known_non:
                continue
            ledger.sweep_queries += 1
            if oracle.membership(base + local):
                found_local.add(local)
            else:
                known_non.add(local)
        found.update(base + i for i in found_local)
    ledger.classical_bits = 2**oracle.n * n_precision
    ledger.qubit_count = n_q + 1
    return found, ledger
