"""Partitioned Grover search across fixed-size sublists.

The index domain ``[0, 2**n)`` is cut into contiguous sublists of
``2**n_q`` elements.  A simulated quantum node amplifies the solutions of
one sublist: sign-flip oracle followed by inversion about the mean, with
the iteration count planned for an assumed solution count that doubles on
every failed classical verification (the unknown-count retry policy).

A node's amplitudes only ever take two values, one on the unfound
solutions and one elsewhere (the rotation analysis of Grover,
quant-ph/9605043, and of Boyer, Brassard, Hoyer and Tapp,
quant-ph/9605034), so a round is decided per row from its solution count
alone and no amplitude array is built.  Exact mode measures the lowest
index not yet classically ruled out in the class with the larger
probability; that order is computed in integers, so where the two
probabilities tie exactly, or the winning class has no such index left,
the rule is simply the lowest index not ruled out.  This keeps the whole
procedure deterministic.  Sampled mode draws from the closed-form law:
``sin**2((2t+1)*theta) / m`` on each unfound solution and
``cos**2((2t+1)*theta) / (N-m)`` elsewhere, ``sin(theta)**2 = m/N``.

Since a sublist holding exactly half solutions produces the same outcome
distribution as an empty one, no measurement policy can certify
emptiness; after a node gives up, the orchestrator classically sweeps
whatever indices remain unknown so the returned set is always exact.
Sweep and retry costs are charged to their own counters.

The simulation reads the oracle once per index, as a bool mask, and runs
every sublist of a block in lockstep, since a round's iteration count
depends only on its number.  A single sublist is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .costs import CostLedger

__all__ = [
    "SearchOracle",
    "SublistPartition",
    "GroverOutcome",
    "grover_step",
    "plan_iterations",
    "class_orders",
    "search_node",
    "partition_search",
]


@dataclass(eq=False)
class SearchOracle:
    """Membership predicate over ``[0, 2**n)`` with known solution count.

    When ``solutions`` is given it must hold exactly the indices that
    ``membership`` accepts, and stay fixed; :meth:`mask` reads it instead
    of the predicate.
    """

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

    def mask(self, lo: int, hi: int) -> np.ndarray:
        """Membership of the indices ``lo .. hi-1`` as a bool array.  A
        set-backed oracle fills it from ``solutions``; a predicate-only one
        calls ``membership`` once per index."""
        if self.solutions is None:
            return np.fromiter(
                (bool(self.membership(g)) for g in range(lo, hi)), dtype=bool, count=hi - lo
            )
        sols = self._sorted_solutions
        first, last = np.searchsorted(sols, (lo, hi))
        out = np.zeros(hi - lo, dtype=bool)
        out[sols[first:last] - lo] = True
        return out

    @cached_property
    def _sorted_solutions(self) -> np.ndarray:
        # Sorted once, so that each block's mask costs only its own share.
        return np.sort(np.fromiter(self.solutions, dtype=np.int64, count=len(self.solutions)))


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
    round_iterations: tuple[int, ...]
    successful_round: int | None
    tested: tuple[int, ...] = field(default=())


def grover_step(amps: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """One amplification step on the last axis of ``amps``: the oracle flips
    the sign of the ``mask`` entries, then every amplitude is inverted about
    its row's mean.  A 2-D array is a batch of sublists, each row equal bit
    for bit to the row stepped alone.  Returns a new array; charges nothing.

    This is the float law that the checks and tests hold the search path
    to; the search path itself decides rounds by :func:`class_orders`."""
    flipped = np.where(mask, -amps, amps)
    return 2.0 * flipped.mean(axis=-1, keepdims=True) - flipped


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


def class_orders(n_total: int, m: int, steps) -> tuple[int, ...]:
    """Exact ``sign(|a_sol|**2 - |a_non|**2)`` after each step count in
    ``steps``, for ``n_total`` entries with ``m`` solutions started uniform.

    Scaled by ``sqrt(N) * N**t``, the two amplitudes are the integers
    ``s' = 2(-m*s + (N-m)*u) + N*s`` and ``u' = 2(-m*s + (N-m)*u) - N*u``
    from ``s = u = 1``, so the order, ties included, involves no rounding.
    """
    s = u = 1
    signs = [0]
    for _ in range(max(steps, default=0)):
        twice_mean = 2 * ((n_total - m) * u - m * s)
        s, u = twice_mean + n_total * s, twice_mean - n_total * u
        signs.append((abs(s) > abs(u)) - (abs(s) < abs(u)))
    return tuple(signs[t] for t in steps)


class _NodePlan:
    """One run's plan for a node of ``size`` entries: the iteration counts of
    its ``n_q + 1`` rounds (round k plans for an assumed solution count of
    ``2**(k-1)``), and the exact class order of every round per
    unfound-solution count, filled only for the counts that occur."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.iterations = tuple(
            plan_iterations(size, min(2**k, size)) for k in range(size.bit_length())
        )
        self._orders: dict[int, tuple[int, ...]] = {}

    def orders(self, counts: np.ndarray) -> np.ndarray:
        """``(rows, rounds)`` int8 class orders of rows holding ``counts``
        unfound solutions (see :func:`class_orders`)."""
        distinct = np.flatnonzero(np.bincount(counts)).tolist()
        for m in distinct:
            if m not in self._orders:
                self._orders[m] = class_orders(self.size, m, self.iterations)
        table = np.array([self._orders[m] for m in distinct], dtype=np.int8)
        return table[np.searchsorted(distinct, counts)]


def _exact_picks(mask: np.ndarray, settled: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Exact-mode candidate of each row: its lowest unsettled index in the
    class that ``order`` ranks higher (+1 the unfound solutions, -1 the
    rest), or its lowest unsettled index overall where the classes tie (0)
    or the higher one has none."""
    losing = (mask != (order > 0)[:, None]) & (order != 0)[:, None]
    key = losing.view(np.int8) + 2 * settled.view(np.int8)
    return np.argmin(key, axis=1)


def _node_calls(mask, settled, plan, mode, rngs, ledger):
    """One node call on every row of a batch of sublists, in lockstep.

    ``mask`` is each row's oracle mask (solutions already found cleared);
    ``settled`` marks the local indices known already, which exact mode
    never measures.  Round k of every row runs ``plan.iterations[k-1]``
    steps and depends only on the row's count of unfound solutions (see the
    module docstring): exact mode picks by :func:`_exact_picks`, sampled
    mode draws row i's candidate from ``rngs[i]``.  A row stops once its
    candidate verifies, after ``n_q + 1`` rounds, or in exact mode when
    nothing measurable remains (that round is not charged).  Each failed
    candidate is marked in ``settled``.

    Returns ``(verified, rounds, candidates)``: per row, whether it verified
    and how many rounds it ran, and the candidate measured in each round
    (-1 where none).
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    rows, size = mask.shape
    verified = np.zeros(rows, dtype=bool)
    rounds = np.zeros(rows, dtype=np.int64)
    candidates = np.full((rows, len(plan.iterations)), -1, dtype=np.int64)
    if size == 1:
        # Degenerate one-element node: a single classical test.
        ledger.classical_oracle_queries += rows
        verified[:] = mask[:, 0]
        rounds[:] = 1
        candidates[:, 0] = 0
        settled[~verified, 0] = True
        return verified, rounds, candidates
    counts = np.count_nonzero(mask, axis=1)
    if mode == "exact":
        orders = plan.orders(counts)
    else:
        theta = np.arcsin(np.sqrt(counts / size))
    for k, t in enumerate(plan.iterations):
        live = ~verified
        if mode == "exact":
            live &= ~settled.all(axis=1)
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        row_mask = mask[idx]
        if mode == "exact":
            local = _exact_picks(row_mask, settled[idx], orders[idx, k])
        else:
            angle = (2 * t + 1) * theta[idx]
            on_solution = np.sin(angle) ** 2 / np.maximum(counts[idx], 1)
            elsewhere = np.cos(angle) ** 2 / np.maximum(size - counts[idx], 1)
            probs = np.where(row_mask, on_solution[:, None], elsewhere[:, None])
            local = np.array(
                [rngs[i].choice(size, p=p / p.sum()) for i, p in zip(idx, probs)], dtype=np.int64
            )
        ledger.quantum_oracle_queries += idx.size * t
        ledger.measurement_units += idx.size
        ledger.classical_oracle_queries += idx.size
        candidates[idx, k] = local
        rounds[idx] = k + 1
        ok = row_mask[np.arange(idx.size), local]
        verified[idx[ok]] = True
        settled[idx[~ok], local[~ok]] = True
    return verified, rounds, candidates


def search_node(
    partition: SublistPartition,
    sublist: int,
    oracle: SearchOracle,
    mode: str = "exact",
    seed: int = 0,
    ledger: CostLedger | None = None,
    exclude_solutions: frozenset = frozenset(),
    skip_candidates: frozenset = frozenset(),
) -> GroverOutcome:
    """Search one sublist with doubling assumed-count retries: the node
    call of :func:`partition_search` on a batch of one.

    ``exclude_solutions`` (global indices) are treated as non-solutions by
    the node's oracle; ``skip_candidates`` (local indices) are classically
    known already and never measured in exact mode.  Each round runs a
    planned number of amplification steps, measures, and verifies the
    candidate classically; the node stops on success or after n_q + 1
    rounds.
    """
    base = partition.base(sublist)
    size = partition.sublist_size
    mask = oracle.mask(base, base + size)
    mask[[g - base for g in exclude_solutions if base <= g < base + size]] = False
    settled = np.zeros(size, dtype=bool)
    settled[list(skip_candidates)] = True
    rngs = [np.random.default_rng(seed)] if mode == "sampled" else None
    plan = _NodePlan(size)
    iterations = plan.iterations
    verified, rounds, candidates = _node_calls(
        mask[None], settled[None], plan, mode, rngs,
        ledger if ledger is not None else CostLedger(),
    )
    ok, used = bool(verified[0]), int(rounds[0])
    picks = candidates[0, :used].tolist()
    tested = tuple(dict.fromkeys(picks[:-1] if ok else picks))
    if ok:
        measured = base + picks[-1]
    else:
        measured = base + tested[-1] if tested else None
    return GroverOutcome(
        sublist,
        measured,
        ok,
        sum(iterations[:used]),
        iterations[:used],
        used if ok else None,
        tested=tested,
    )


def _node_seed(master_seed: int, sublist: int, call: int) -> int:
    return int(np.random.SeedSequence([master_seed, sublist, call]).generate_state(1)[0])


# Sublists are searched in blocks of at most this many indices, which bounds
# the batch arrays' memory whatever n is.
BLOCK_INDICES = 2**12


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

    Calls run in waves over a block of sublists: call 0 on every sublist,
    call c on those whose call c-1 verified and that still hold unknown
    indices.  The oracle is read once per index, as a mask.
    """
    partition = SublistPartition(oracle.n, n_q)
    size = partition.sublist_size
    per_block = max(BLOCK_INDICES // size, 1)
    plan = _NodePlan(size)
    iterations = plan.iterations
    spent_after = np.cumsum((0,) + iterations)  # iterations of the first r rounds
    ledger = CostLedger()
    found: set[int] = set()
    for first in range(0, partition.num_sublists, per_block):
        rows = min(per_block, partition.num_sublists - first)
        lo = partition.base(first)
        solution = oracle.mask(lo, lo + rows * size).reshape(rows, size)
        hit = np.zeros_like(solution)  # verified by a node call
        settled = np.zeros_like(solution)  # found, or known to be no solution
        active = np.arange(rows)
        call = 0
        while active.size:
            rngs = None
            if mode == "sampled":
                rngs = [
                    np.random.default_rng(_node_seed(master_seed, first + int(a), call))
                    for a in active
                ]
            known = settled[active]
            verified, rounds, candidates = _node_calls(
                solution[active] & ~hit[active], known, plan, mode, rngs, ledger
            )
            settled[active] = known
            spent = spent_after[rounds]
            if call == 0:
                ledger.node_accesses += int(active.size)
                headline = np.take(iterations, np.where(verified, rounds - 1, 0))
                ledger.retry_queries += int(np.sum(spent - headline))
            else:
                ledger.repeat_node_accesses += int(active.size)
                ledger.retry_queries += int(np.sum(spent))
            winners = active[verified]
            picks = candidates[verified, rounds[verified] - 1]
            hit[winners, picks] = True
            settled[winners, picks] = True
            active = winners[~settled[winners].all(axis=1)]
            call += 1
        # Residual sweep: certify whatever the node calls could not settle.
        ledger.sweep_queries += int(np.count_nonzero(~settled))
        block_found = hit | (solution & ~settled)
        found.update((lo + np.flatnonzero(block_found)).tolist())
    ledger.classical_bits = 2**oracle.n * n_precision
    ledger.qubit_count = n_q + 1
    return found, ledger
