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
probability; that order is exact (see :class:`_NodePlan`), so where the
two probabilities tie exactly, or the winning class has no such index left,
the rule is simply the lowest index not ruled out.  This keeps the whole
procedure deterministic.  Sampled mode draws the class, the unfound
solutions with probability ``sin**2((2t+1)*theta)``, ``sin(theta)**2 = m/N``,
then a uniform rank in it.  The rest class ranks settled indices first, so a
rest rank at or above the settled count rules out one new index: a sublist's
state is its counts of solutions found and indices settled.

Since a sublist holding exactly half solutions produces the same outcome
distribution as an empty one, no measurement policy can certify
emptiness; after a node gives up, the orchestrator classically sweeps
whatever indices remain unknown so the returned set is always exact.
Sweep and retry costs are charged to their own counters.

The simulation reads the oracle once per index, as the sorted positions
of its solutions, and a block's per-sublist solution counts come from them.
Every exact pick takes the lowest free index of its class, so the indices a
sublist has settled are always its first ``i`` solutions and its first
``j`` non-solutions, and its whole run of node calls is a walk over those
two counts.  Positions enter only at an exact tie with both classes free,
where the ``i``-th solution lies below the ``j``-th non-solution exactly
when ``s_i - i <= j``, ``s_i`` its position, since ``s_i - i`` non-solutions
lie below it.  So a node size's round iterations and the walk of each
solution count are pure: one process-wide memo keyed by node size keeps
them (see :class:`_NodePlan`), every run charges a count's memoised walk
once, times the number of its sublists, and a sublist whose walk meets
such a tie is walked on its own positions.  The memo holds at most one
5-tuple per (node size, count) seen, at most ``size + 1`` per size.
Sampled mode runs the sublists of a block in lockstep, one call wave at a
time, since a round's iteration count depends only on its number.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Callable

import numpy as np

from .core import derive_seed
from .costs import CostLedger, _check_node_size

__all__ = [
    "SearchOracle",
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
    ``membership`` accepts, and stay fixed; :meth:`positions` reads it
    instead of the predicate.
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

    def positions(self, lo: int, hi: int) -> np.ndarray:
        """The solutions among the indices ``lo .. hi-1``, sorted, as an int64
        array.  A set-backed oracle slices its sorted ``solutions`` (a
        read-only view); a predicate-only one calls ``membership`` once per
        index, in order, and keeps the indices whose result is truthy."""
        if self.solutions is None:
            return np.fromiter(filter(self.membership, range(lo, hi)), dtype=np.int64)
        sols = self._sorted_solutions
        first, last = np.searchsorted(sols, (lo, hi))
        return sols[first:last]

    @cached_property
    def _sorted_solutions(self) -> np.ndarray:
        # Sorted once, so that each block's read costs only its own share;
        # read-only, since positions() hands out views of it.
        sols = np.sort(np.fromiter(self.solutions, dtype=np.int64, count=len(self.solutions)))
        sols.flags.writeable = False
        return sols


def _num_sublists(n: int, n_q: int) -> int:
    """The ``2**(n-n_q)`` sublists of ``[0, 2**n)``; sublist ``r`` covers
    ``[r * 2**n_q, (r+1) * 2**n_q)``.  Raises unless ``0 <= n_q <= n``."""
    _check_node_size(n, n_q)
    return 2 ** (n - n_q)


def _check_mode(mode: str) -> None:
    """Refuse a probability mode other than "exact" and "sampled"."""
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")


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
    to; the search path itself decides rounds by the order of
    :func:`class_orders`."""
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


# A factor of the class-order sign closer than this to 0 is not trusted to
# float arithmetic; see _class_order_table.
_ORDER_GUARD = 1e-9


def _class_order_table(n_total: int, counts: np.ndarray, steps) -> np.ndarray:
    """:func:`class_orders` of every solution count in ``counts``, as one
    int8 ``(counts, steps)`` array computed in floats where they are exact.

    For ``0 < m < N`` the order is ``sign(sin(2t*theta) * sin((2t+2)*theta))``,
    ``sin(theta)**2 = m/N``: ``|a_sol|**2 - |a_non|**2`` is that product over
    ``N * sin(theta)**2 * cos(theta)**2``.  ``theta = atan2(sqrt(m),
    sqrt(N-m))`` is within a few ulp of exact, so each factor ``sin(k*theta)``
    is off by at most about ``k * pi * 2**-52``: under 5e-12 for every
    planned ``t`` up to ``n_q = 24`` (``k <= 2t + 2 <= 6434``).  A factor
    whose float value is at least ``_ORDER_GUARD`` away from 0 thus has the
    exact sign.  Rows with a smaller factor at some ``t > 0`` (exact ties
    among them), and the rows ``m = 0`` and ``m = N``, are taken from
    :func:`class_orders` instead.  ``t = 0`` is a tie.
    """
    t = np.asarray(steps)
    theta = np.arctan2(np.sqrt(counts), np.sqrt(n_total - counts))[:, None]
    low, high = np.sin(2 * t * theta), np.sin((2 * t + 2) * theta)
    table = (np.sign(low) * np.sign(high)).astype(np.int8)
    near_zero = (np.minimum(abs(low), abs(high)) < _ORDER_GUARD) & (t > 0)
    exact = near_zero.any(axis=1) | (counts == 0) | (counts == n_total)
    for r in np.flatnonzero(exact).tolist():
        table[r] = class_orders(n_total, int(counts[r]), steps)
    return table


class _NodePlan:
    """The pure plan of a node of ``size`` entries: the iteration counts of
    its ``n_q + 1`` rounds (round k plans for an assumed solution count of
    ``2**(k-1)``) and the memoised walk of every solution count seen so far.
    :func:`_node_plan` keeps one per size for the whole process, so a second
    search at a size re-plans nothing and re-walks no count; the walks it
    keeps are at most ``size + 1`` small tuples.  The class-order table a
    walk reads is per call (:class:`_ClassOrders`) and is never kept here."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.iterations = tuple(
            plan_iterations(size, min(2**k, size)) for k in range(size.bit_length())
        )
        self.spent_after = tuple(accumulate(self.iterations, initial=0))  # first r rounds
        self._walks: dict[int, tuple[int, ...] | None] = {}

    def walk(self, m: int, orders: _ClassOrders) -> tuple[int, ...] | None:
        """:func:`_walk` of a sublist with ``m`` solutions, memoised; None
        where it meets a tie, so the sublist's positions decide.  ``orders``
        is read only where ``m`` has not been walked yet."""
        if m not in self._walks:
            self._walks[m] = _walk(self, orders, m, self.size - m)
        return self._walks[m]


# Node size -> its plan, for the whole process; see _NodePlan.
_PLANS: dict[int, _NodePlan] = {}


def _node_plan(size: int) -> _NodePlan:
    plan = _PLANS.get(size)
    if plan is None:
        plan = _PLANS[size] = _NodePlan(size)
    return plan


class _ClassOrders:
    """One call's exact class order of every round of ``plan`` per
    unfound-solution count.  The table grows to ``m`` in one array
    expression on first need and goes with the call."""

    def __init__(self, plan: _NodePlan) -> None:
        self.plan = plan
        self._table = np.zeros((0, len(plan.iterations)), dtype=np.int8)

    def __call__(self, m: int) -> list[int]:
        if m >= len(self._table):
            counts = np.arange(len(self._table), m + 1)
            rows = _class_order_table(self.plan.size, counts, self.plan.iterations)
            self._table = np.concatenate((self._table, rows))
        return self._table[m].tolist()


def _exact_call(orders, i, j, sols, nons, below):
    """One exact-mode node call on a sublist of ``sols`` solutions and
    ``nons`` non-solutions, whose first ``i`` and ``j`` (in index order) are
    settled.  Round k measures the lowest free index of the class that
    ``orders[k]`` ranks higher (+1 the unfound solutions, -1 the rest), and
    the lowest free index overall where that class has none free or the
    classes tie (0).  ``below[i]`` counts the non-solutions below the i-th
    solution, so on a tie with both classes free the i-th solution lies
    below the j-th non-solution exactly when ``below[i] <= j``.  The call
    stops once it measures a solution, after its last round, or when nothing
    is left free (that round is not charged).

    Returns ``(verified, rounds charged, j)``, or None where a tie needs
    ``below`` and it is None.
    """
    for k, order in enumerate(orders):
        if j == nons:
            return (True, k + 1, j) if i < sols else (False, k, j)
        if i < sols:
            if order > 0:
                return True, k + 1, j
            if order == 0:
                if below is None:
                    return None
                if below[i] <= j:
                    return True, k + 1, j
        j += 1
    return False, len(orders), j


def _walk(plan, orders, sols, nons, below=None):
    """Exact-mode node calls on one sublist until a call fails or nothing is
    left unsettled; each call's verified solution leaves the node's oracle.
    ``orders`` gives each call's class orders, by unfound-solution count, and
    ``below`` the non-solutions below each solution (see :func:`_exact_call`).

    Returns the sublist's charges ``(quantum queries, rounds, repeat node
    accesses, retry queries, sweep queries)``; every round is one
    measurement and one classical query.  Only the first call's winning (or,
    failing, first) round is headline, the rest is retry.  Returns None
    where a tie needs ``below`` and it is None.
    """
    i = j = quantum = rounds = calls = headline = 0
    while True:
        call = _exact_call(orders(sols - i), i, j, sols, nons, below)
        if call is None:
            return None
        verified, used, j = call
        quantum += plan.spent_after[used]
        rounds += used
        if calls == 0:
            headline = plan.iterations[used - 1 if verified else 0]
        calls += 1
        if not verified:
            break
        i += 1
        if i == sols and j == nons:
            break
    return quantum, rounds, calls - 1, quantum - headline, (sols - i) + (nons - j)


def _node_calls(unfound, settled, plan, seeds, ledger):
    """One sampled-mode node call on every row of a batch of sublists, in
    lockstep, on counts alone: row i holds ``unfound[i]`` unfound solutions,
    and ``settled[i]`` settled indices in the rest of its node.

    Row i's generator, seeded ``seeds[i]``, draws two uniforms per round up
    front, so its draws depend on its seed alone.  Round k runs
    ``plan.iterations[k]`` steps; its first uniform picks the unfound class
    with probability ``sin**2((2t+1)*theta)`` (always where the rest class is
    empty), its second a uniform rank in the winning class.  A row stops
    once it draws the unfound class, or after ``n_q + 1`` rounds.  A rest
    rank at or above the row's settled count rules out one more index, added
    to ``settled``.  Returns ``(verified, rounds, ranks)``: per row, whether
    it verified, its rounds, and each round's rank (valid up to ``rounds``).
    """
    size, steps = plan.size, np.array(plan.iterations)
    draws = np.array([np.random.default_rng(s).random((len(steps), 2)) for s in seeds])
    theta = np.arcsin(np.sqrt(unfound / size))
    won = draws[..., 0] < np.sin(np.multiply.outer(theta, 2 * steps + 1)) ** 2
    won[unfound == size] = True  # exactly, whatever sin rounds to
    verified = won.any(axis=1)
    rounds = np.where(verified, won.argmax(axis=1) + 1, len(steps))
    classes = np.where(won, unfound[:, None], (size - unfound)[:, None])
    ranks = (draws[..., 1] * classes).astype(np.int64)
    for k in range(rounds.max()):
        settled += (k < rounds) & ~won[:, k] & (ranks[:, k] >= settled)
    ledger.quantum_oracle_queries += int(np.take(plan.spent_after, rounds).sum())
    ledger.measurement_units += int(rounds.sum())
    ledger.classical_oracle_queries += int(rounds.sum())
    return verified, rounds, ranks


def search_node(
    oracle: SearchOracle,
    n_q: int,
    sublist: int,
    mode: str = "exact",
    seed: int = 0,
    ledger: CostLedger | None = None,
    exclude_solutions: frozenset = frozenset(),
    skip_candidates: frozenset = frozenset(),
) -> GroverOutcome:
    """Search one sublist with doubling assumed-count retries: one node call
    of :func:`partition_search`, on the ``2**n_q`` indices from
    ``sublist * 2**n_q``.  Raises ``ValueError`` unless ``0 <= n_q <= n``,
    ``0 <= sublist < 2**(n-n_q)`` and every skip candidate is in
    ``[0, 2**n_q)``.

    ``exclude_solutions`` (global indices) are treated as non-solutions by
    the node's oracle; ``skip_candidates`` (local indices) are classically
    known already and never measured in exact mode.  Each round runs a
    planned number of amplification steps, measures, and verifies the
    candidate classically; the node stops on success or after n_q + 1
    rounds.
    """
    _check_mode(mode)
    if not 0 <= sublist < _num_sublists(oracle.n, n_q):
        raise ValueError(f"sublist {sublist} out of range")
    size = 2**n_q
    if any(not 0 <= c < size for c in skip_candidates):
        raise ValueError(f"skip_candidates must be local indices in [0, {size})")
    base = sublist * size
    mask = np.zeros(size, dtype=bool)
    mask[oracle.positions(base, base + size) - base] = True
    mask[[g - base for g in exclude_solutions if base <= g < base + size]] = False
    settled = np.zeros(size, dtype=bool)
    settled[list(skip_candidates)] = True
    ledger = ledger if ledger is not None else CostLedger()
    plan = _node_plan(size)
    if size == 1:
        # Degenerate one-element node: a single classical test.
        ledger.classical_oracle_queries += 1
        ok, picks = bool(mask[0]), [0]
    elif mode == "exact":
        sol = np.flatnonzero(mask & ~settled).tolist()
        non = np.flatnonzero(~mask & ~settled).tolist()
        ok, used, j = _exact_call(
            _ClassOrders(plan)(int(np.count_nonzero(mask))), 0, 0, len(sol), len(non),
            np.searchsorted(non, sol).tolist(),
        )
        ledger.quantum_oracle_queries += plan.spent_after[used]
        ledger.measurement_units += used
        ledger.classical_oracle_queries += used
        picks = non[:j] + (sol[:1] if ok else [])
    else:
        # Ranks in index order: the unfound solutions; the rest, settled first.
        sols = np.flatnonzero(mask).tolist()
        known = np.flatnonzero(settled & ~mask).tolist()
        free = np.flatnonzero(~settled & ~mask).tolist()
        verified, rounds, ranks = _node_calls(
            np.array([len(sols)]), np.array([len(known)]), plan, [seed], ledger
        )
        ok = bool(verified[0])
        picks = []
        for rank in ranks[0, : rounds[0] - ok].tolist():
            if rank < len(known):
                picks.append(known[rank])
            else:
                picks.append(free.pop(rank - len(known)))
                insort(known, picks[-1])
        if ok:
            picks.append(sols[ranks[0, rounds[0] - 1]])
    used = len(picks)
    tested = tuple(dict.fromkeys(picks[:-1] if ok else picks))
    if ok:
        measured = base + picks[-1]
    else:
        measured = base + tested[-1] if tested else None
    return GroverOutcome(
        sublist,
        measured,
        ok,
        plan.spent_after[used],
        plan.iterations[:used],
        used if ok else None,
        tested=tested,
    )


# Sublists are searched in blocks of at most this many indices, which bounds
# the memory of a block's solution positions and per-sublist counts whatever
# n is.
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

    The oracle is read once per index, as the sorted positions of its
    solutions, one block of sublists at a time, and each sublist's solution
    count is binned from them.  Exact mode charges each sublist its count's
    walk, memoised for the process, or, where that walk meets a tie, walks
    the sublist on its own solution positions; sampled mode runs call waves
    over the block's counts.  Neither mode builds a per-index array.
    """
    _check_mode(mode)
    size, num_sublists = 2**n_q, _num_sublists(oracle.n, n_q)
    per_block = max(BLOCK_INDICES // size, 1)
    plan = _node_plan(size)
    orders = _ClassOrders(plan)
    ledger = CostLedger()
    hist: dict[int, int] = {}  # exact mode: sublists per tie-free count
    charges = [0] * 5  # exact mode: the sums of _walk's charges
    found: set[int] = set()
    for first in range(0, num_sublists, per_block):
        rows = min(per_block, num_sublists - first)
        lo = first * size
        hits = oracle.positions(lo, lo + rows * size)
        # Node calls and the sweep together certify every solution.
        found.update(hits.tolist())
        row = (hits - lo) >> n_q
        counts = np.bincount(row, minlength=rows)
        if size == 1:
            # Degenerate one-element nodes: a single classical test each.
            ledger.classical_oracle_queries += rows
        elif mode == "exact":
            block = np.bincount(counts)
            # Largest count first: where its walk is not memoised yet, it
            # fills the call's order table at once.
            for m in np.flatnonzero(block)[::-1].tolist():
                if plan.walk(m, orders) is not None:
                    hist[m] = hist.get(m, 0) + int(block[m])  # charged after the loop
                    continue
                # Each of these rows holds m solutions, its i-th at local
                # position s_i with s_i - i non-solutions below it.
                local = (hits[counts[row] == m] & (size - 1)).reshape(-1, m)
                for below in (local - np.arange(m)).tolist():
                    walk = _walk(plan, orders, m, size - m, below)
                    charges = [c + w for c, w in zip(charges, walk)]
        else:
            _sampled_block(counts, first, master_seed, plan, ledger)
    for m, sublists in hist.items():
        charges = [c + sublists * w for c, w in zip(charges, plan.walk(m, orders))]
    quantum, rounds, repeats, retry, sweep = charges
    ledger.quantum_oracle_queries += quantum
    ledger.measurement_units += rounds
    ledger.classical_oracle_queries += rounds
    ledger.repeat_node_accesses += repeats
    ledger.retry_queries += retry
    ledger.sweep_queries += sweep
    ledger.node_accesses = num_sublists
    ledger.classical_bits = 2**oracle.n * n_precision
    ledger.qubit_count = n_q + 1
    return found, ledger


def _sampled_block(counts, first, master_seed, plan, ledger) -> None:
    """Sampled-mode node calls over one block of sublists, holding
    ``counts`` solutions each, then its sweep.

    Calls run in waves: call 0 on every sublist, call c on those whose call
    c-1 verified and that still hold unknown indices.  Sublist ``first + r``
    draws call c from the seed ``derive_seed(master_seed, first + r, c)``.
    """
    found = np.zeros_like(counts)
    settled = np.zeros_like(counts)  # found solutions and ruled-out non-solutions
    active = np.arange(len(counts))
    call = 0
    while active.size:
        seeds = [derive_seed(master_seed, first + a, call) for a in active.tolist()]
        unfound, known = counts[active] - found[active], settled[active]
        verified, rounds, _ = _node_calls(unfound, known, plan, seeds, ledger)
        spent = np.take(plan.spent_after, rounds)
        if call == 0:
            headline = np.take(plan.iterations, np.where(verified, rounds - 1, 0))
            ledger.retry_queries += int(np.sum(spent - headline))
        else:
            ledger.repeat_node_accesses += int(active.size)
            ledger.retry_queries += int(np.sum(spent))
        found[active] += verified
        settled[active] = known + verified
        active = active[verified & (settled[active] < plan.size)]
        call += 1
    # Residual sweep: certify whatever the node calls could not settle.
    ledger.sweep_queries += int(np.sum(plan.size - settled))
