import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqsim.checks import (
    AMPLIFICATION_TOLERANCE,
    amplification_deviation,
    class_order_mismatches,
    search_misses,
)
from hqsim import search
from hqsim.costs import CostLedger
from hqsim.search import (
    GroverOutcome,
    SearchOracle,
    _class_order_table,
    _exact_call,
    _NodePlan,
    _node_calls,
    _walk,
    class_orders,
    grover_step,
    partition_search,
    plan_iterations,
    search_node,
)
from reference import unit_key


def uniform(size):
    return np.full(size, 1.0 / math.sqrt(size), dtype=complex)


def mask_of(size, solutions):
    mask = np.zeros(size, dtype=bool)
    for s in solutions:
        mask[s] = True
    return mask


# --- the amplification operator ---------------------------------------------

def test_single_iteration_nails_unique_solution_at_n4():
    probs = np.abs(grover_step(uniform(4), mask_of(4, {2}))) ** 2
    assert abs(probs[2] - 1.0) < 1e-12
    assert np.max(probs[[0, 1, 3]]) < 1e-12


def test_no_solutions_fixes_uniform_state():
    amps = uniform(8)
    out = grover_step(amps, mask_of(8, set()))
    assert abs(abs(np.vdot(amps, out)) - 1.0) < 1e-12


def test_all_solutions_preserves_solution_projection():
    out = grover_step(uniform(4), mask_of(4, {0, 1, 2, 3}))
    beta = abs(np.sum(out)) / 2.0
    assert abs(beta - 1.0) < 1e-12


def test_operator_preserves_norm():
    rng = np.random.default_rng(1)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    out = grover_step(amps, mask_of(8, {1, 6}))
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


@pytest.mark.parametrize("n_total", [2, 4, 8, 16])
def test_success_probability_law(n_total):
    assert amplification_deviation((n_total,), 10) <= AMPLIFICATION_TOLERANCE


def test_batched_step_rows_equal_single_rows():
    rng = np.random.default_rng(2)
    amps = rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16))
    mask = rng.random((5, 16)) < 0.3
    batch, rows = amps, [amps[i] for i in range(5)]
    for _ in range(4):
        batch = grover_step(batch, mask)
        rows = [grover_step(row, mask[i]) for i, row in enumerate(rows)]
        assert all(np.array_equal(batch[i], row) for i, row in enumerate(rows))


def test_geometry_invariant_along_the_rotation():
    # The projections on the uniform superpositions of the non-solutions
    # (alpha) and the solutions (beta) stay on the unit circle.
    mask = mask_of(16, {3, 11, 12})
    amps = uniform(16)
    for _ in range(6):
        alpha = abs(amps[~mask].sum()) / math.sqrt(13)
        beta = abs(amps[mask].sum()) / math.sqrt(3)
        assert abs(alpha**2 + beta**2 - 1.0) < 1e-12
        amps = grover_step(amps, mask)


# --- iteration planning ------------------------------------------------------

def test_plan_iterations_examples():
    assert plan_iterations(4, 1) == 1
    assert plan_iterations(4, 4) == 0
    assert plan_iterations(256, 1) == 12
    assert plan_iterations(1, 1) == 0
    assert plan_iterations(16, 1) == 3


def test_plan_iterations_validation():
    with pytest.raises(ValueError):
        plan_iterations(4, 0)
    with pytest.raises(ValueError):
        plan_iterations(4, 5)


def test_plan_iterations_matches_first_peak():
    # Unbounded t wraps the rotation and creeps arbitrarily close to 1, so
    # the planner targets the first peak: the nearest integer to
    # pi/(4*theta) - 1/2 whenever that value is not a near-tie.
    for n_total in (4, 8, 16, 64, 256, 1024):
        for m in range(1, n_total + 1):
            t = plan_iterations(n_total, m)
            theta = math.asin(math.sqrt(m / n_total))
            raw = math.pi / (4.0 * theta) - 0.5
            window = int(math.ceil(math.pi / (4.0 * theta))) + 2
            assert 0 <= t <= window
            # The rounding shortcut is only equivalent in the sparse regime;
            # for dense cases the scan may find a later, strictly better t.
            if m * 4 <= n_total and raw > 0 and abs(raw - round(raw)) > 0.05:
                assert t == round(raw), (n_total, m)
            # Within the window the planner's pick is maximal.
            best = max(math.sin((2 * tt + 1) * theta) ** 2 for tt in range(window + 1))
            assert math.sin((2 * t + 1) * theta) ** 2 >= best - 1e-12


# --- exact measurement from the two-value law --------------------------------

def reference_picks(mask, settled, order):
    """The array pick rule, the reference for the search path's walk: each
    row's lowest unsettled index in the class that ``order`` ranks higher
    (+1 the unfound solutions, -1 the rest), or its lowest unsettled index
    overall where the classes tie (0) or the higher one has none."""
    losing = (mask != (order > 0)[:, None]) & (order != 0)[:, None]
    key = losing.view(np.int8) + 2 * settled.view(np.int8)
    return np.argmin(key, axis=1)


def exact_round_picks(mask, settled, k):
    """The array rule's exact-mode candidates of round ``k`` for rows of one
    node size."""
    size = mask.shape[1]
    iterations = _NodePlan(size).iterations
    order = np.array([class_orders(size, int(m), iterations)[k] for m in mask.sum(axis=1)])
    return reference_picks(mask, settled, order)


def walk_pick(mask, settled, order):
    """The candidate of one exact-mode round of class order ``order`` on one
    sublist, as the search path's walk picks it."""
    sol = np.flatnonzero(mask & ~settled).tolist()
    non = np.flatnonzero(~mask & ~settled).tolist()
    verified, rounds, _ = _exact_call(
        (order,), 0, 0, len(sol), len(non), np.searchsorted(non, sol).tolist()
    )
    assert rounds == 1
    return sol[0] if verified else non[0]


def float_round_picks(mask, settled, t):
    """Independent reference: ``t`` float ``grover_step``s from the uniform
    state, settled entries set to -1, then ``argmax``; also each row's float
    gap ``|a_sol|**2 - |a_non|**2`` (None where a class is empty)."""
    amps = np.full(mask.shape, 1.0 / math.sqrt(mask.shape[1]), dtype=complex)
    for _ in range(t):
        amps = grover_step(amps, mask)
    probs = np.abs(amps) ** 2
    gaps = [
        float(p[m].max() - p[~m].max()) if m.any() and not m.all() else None
        for p, m in zip(probs, mask)
    ]
    probs[settled] = -1.0
    return np.argmax(probs, axis=1), gaps


def test_class_orders_examples():
    # N = 4, m = 1: one step finds the solution; m = N/2 ties forever.
    assert class_orders(4, 1, (0, 1)) == (0, 1)
    assert class_orders(8, 4, (0, 1, 2, 3)) == (0, 0, 0, 0)
    assert class_orders(16, 4, (2,)) == (0,)
    assert class_orders(16, 3, ()) == ()


def test_class_order_agrees_with_the_float_law():
    assert class_order_mismatches([2**k for k in range(11)]) == []


@pytest.mark.parametrize("size", [2**k for k in range(1, 11)])
def test_class_order_table_equals_the_integer_orders(size):
    # Every count and every step count up to the node's largest planned one.
    steps = range(plan_iterations(size, 1) + 1)
    table = _class_order_table(size, np.arange(size + 1), steps)
    assert [tuple(row) for row in table.tolist()] == [
        class_orders(size, m, steps) for m in range(size + 1)
    ]
    # The one-count row that search_node reads, over the node's rounds.
    rounds = _NodePlan(size).iterations
    for m in range(size + 1):
        row = _class_order_table(size, [m], rounds)
        assert row.shape == (1, len(rounds))
        assert tuple(row[0].tolist()) == class_orders(size, m, rounds)


def test_class_order_table_rows_do_not_depend_on_their_block():
    # 8,193 counts span three blocks of 4,096: each row equals the row of
    # its count computed alone.
    size = 2**13
    rounds = _NodePlan(size).iterations
    table = _class_order_table(size, np.arange(size + 1), rounds)
    alone = np.concatenate([_class_order_table(size, [m], rounds) for m in range(size + 1)])
    assert table.dtype == np.int8 and np.array_equal(table, alone)


def test_class_order_table_holds_its_temporaries_in_bounded_blocks():
    # 262,145 counts of a 2**20-entry node: their float temporaries, all at
    # once, would take about 219 MiB, for a table of 5.5 MiB.
    steps = _NodePlan(2**20).iterations
    tracemalloc.start()
    try:
        _class_order_table(2**20, np.arange(2**18 + 1), steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@st.composite
def node_rows(draw):
    """Rows of one node size, each with a random solution mask and a random
    settled set that leaves at least one index free."""
    size = 2 ** draw(st.integers(1, 8))
    rows = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = rng.random(rows)[:, None]
    mask = rng.random((rows, size)) < density
    settled = rng.random((rows, size)) < rng.random(rows)[:, None]
    settled[np.arange(rows), rng.integers(0, size, rows)] = False
    return mask, settled


@settings(max_examples=300, deadline=None)
@given(node_rows())
def test_exact_picks_equal_the_float_stepped_reference(case):
    mask, settled = case
    size = mask.shape[1]
    for k, t in enumerate(_NodePlan(size).iterations):
        got = exact_round_picks(mask, settled, k)
        want, gaps = float_round_picks(mask, settled, t)
        for i, gap in enumerate(gaps):
            order = class_orders(size, int(mask[i].sum()), (t,))[0]
            assert walk_pick(mask[i], settled[i], order) == got[i]
            if gap is None or abs(gap) > AMPLIFICATION_TOLERANCE:
                assert got[i] == want[i], (size, int(mask[i].sum()), t, gap)


@pytest.mark.parametrize("fill", [False, True], ids=["m=0", "m=N"])
def test_tie_rule_single_class_takes_the_lowest_free_index(fill):
    size = 16
    mask = np.full(size, fill)
    settled = np.zeros(size, dtype=bool)
    settled[[0, 1, 3]] = True
    for order in class_orders(size, int(mask.sum()), _NodePlan(size).iterations):
        assert walk_pick(mask, settled, order) == 2


@pytest.mark.parametrize("winner", [1, -1], ids=["solutions-win", "rest-wins"])
def test_tie_rule_winning_class_without_free_index(winner):
    # Settle every index of the class the order ranks higher: the candidate
    # is the lowest free index, which lies in the other class.
    size = 16
    iterations = _NodePlan(size).iterations
    m = next(
        m for m in range(1, size) if winner in class_orders(size, m, iterations)
    )
    mask = np.zeros(size, dtype=bool)
    mask[5:5 + m] = True
    settled = mask.copy() if winner == 1 else ~mask
    settled[np.flatnonzero(~settled)[:1]] = True  # the lowest free one, too
    want = np.flatnonzero(~settled)[0]
    assert walk_pick(mask, settled, winner) == want


@pytest.mark.parametrize("half", [True, False], ids=["m=N/2", "m!=N/2"])
def test_tie_rule_exact_nonzero_tie_takes_the_lowest_free_index(half):
    # Scan the integer table for a planned round with both classes present
    # and their probabilities exactly equal.  A half-full node ties at every
    # round; other ties come and go with t.
    size, m, k = next(
        (size, m, k)
        for size in (4, 8, 16, 32, 64) for m in range(1, size) if (2 * m == size) == half
        for k, order in enumerate(class_orders(size, m, _NodePlan(size).iterations))
        if order == 0 and _NodePlan(size).iterations[k] > 0
    )
    t = _NodePlan(size).iterations[k]
    for first_solution in (0, 1):
        # The lowest free index is a solution, then a non-solution.
        mask = np.zeros(size, dtype=bool)
        mask[first_solution:first_solution + m] = True
        settled = np.zeros_like(mask)
        assert walk_pick(mask, settled, 0) == 0
        _, gaps = float_round_picks(mask[None], settled[None], t)
        assert abs(gaps[0]) <= AMPLIFICATION_TOLERANCE


# --- single-node search ------------------------------------------------------

def test_node_finds_unique_solution_first_round():
    oracle = SearchOracle.from_solutions(4, [5])
    ledger = CostLedger()
    out = search_node(oracle, 2, 1, ledger=ledger)
    assert out.verified
    assert out.measured_index == 5
    assert out.successful_round == 1
    assert out.round_iterations == (1,)
    assert ledger.quantum_oracle_queries == 1
    assert ledger.classical_oracle_queries == 1


def test_node_exhausts_on_empty_sublist():
    oracle = SearchOracle.from_solutions(4, [5])
    out = search_node(oracle, 2, 0)
    assert not out.verified
    assert out.successful_round is None
    assert len(out.round_iterations) == 3  # n_q + 1 rounds
    assert len(out.tested) == 3


def test_node_degenerate_single_element():
    oracle = SearchOracle.from_solutions(3, [6])
    ledger = CostLedger()
    hit = search_node(oracle, 0, 6, ledger=ledger)
    miss = search_node(oracle, 0, 5, ledger=ledger)
    assert hit.verified and hit.measured_index == 6
    assert not miss.verified
    assert ledger.classical_oracle_queries == 2
    assert ledger.quantum_oracle_queries == 0


def test_node_respects_exclusions():
    oracle = SearchOracle.from_solutions(4, [4, 5])
    out = search_node(
        oracle, 2, 1,
        exclude_solutions=frozenset({4}),
        skip_candidates=frozenset({0}),
    )
    assert out.verified
    assert out.measured_index == 5


def test_node_refuses_skip_candidates_out_of_range():
    # Local indices: -1 would wrap to the last index and hide solution 3,
    # 4 would overrun the node.
    oracle = SearchOracle.from_solutions(4, [3])
    assert search_node(oracle, 2, 0).measured_index == 3
    for candidate in (-1, 4):
        for mode in ("exact", "sampled"):
            with pytest.raises(ValueError, match="skip_candidates"):
                search_node(oracle, 2, 0, mode=mode, skip_candidates=frozenset({candidate}))


@pytest.mark.parametrize("bad", [-1, 2**128, 1.5, True, None])
def test_node_refuses_a_seed_that_is_not_a_key_before_any_work(bad):
    oracle = SearchOracle.from_solutions(4, [3])
    ledger = CostLedger()
    for mode in ("exact", "sampled"):
        with pytest.raises(ValueError, match="seed"):
            search_node(oracle, 2, 0, mode=mode, seed=bad, ledger=ledger)
    assert ledger == CostLedger()
    assert search_node(oracle, 2, 0, mode="sampled", seed=2**128 - 1).verified in (True, False)


@pytest.mark.parametrize("bad", [-1, 1.5, True, None])
def test_search_refuses_a_bad_master_seed_in_both_modes(bad):
    oracle = SearchOracle(4, mock.Mock(return_value=False), 0)
    for mode in ("exact", "sampled"):
        with pytest.raises(ValueError, match="master_seed"):
            partition_search(oracle, 2, mode=mode, master_seed=bad)
    oracle.membership.assert_not_called()


def test_node_sampled_mode_seeded():
    oracle = SearchOracle.from_solutions(4, [5])
    a = search_node(oracle, 2, 1, mode="sampled", seed=3)
    b = search_node(oracle, 2, 1, mode="sampled", seed=3)
    assert (a.measured_index, a.verified, a.round_iterations) == (
        b.measured_index, b.verified, b.round_iterations)


def test_sampled_measurement_statistics_follow_the_law():
    # search_node's round-0 pick on a 16-index node with solutions {3, 9},
    # over many seeds: a solution with probability sin**2((2t+1)*theta),
    # each solution half of those times, and the other 14 indices uniform.
    oracle = SearchOracle.from_solutions(4, [3, 9])
    t = plan_iterations(16, 1)  # round 0 plans for one solution
    p = math.sin((2 * t + 1) * math.asin(math.sqrt(2 / 16))) ** 2
    seeds = 4000
    picks = []
    for seed in range(seeds):
        out = search_node(oracle, 4, 0, mode="sampled", seed=seed)
        assert out.round_iterations[0] == t
        picks.append(out.measured_index if out.successful_round == 1 else out.tested[0])
    picks = np.array(picks)
    hits = (picks == 3) | (picks == 9)
    assert abs(hits.mean() - p) <= 5 * math.sqrt(p * (1 - p) / seeds)
    wins = int(hits.sum())
    assert abs(int(np.sum(picks == 3)) - wins / 2) <= 5 * math.sqrt(wins / 4)
    rest = np.delete(np.bincount(picks[~hits], minlength=16), [3, 9])
    expected = rest.sum() / rest.size
    chi2 = float(((rest - expected) ** 2).sum() / expected)
    assert chi2 <= chi_square_limit(rest.size - 1), chi2


def chi_square_limit(df, z=5.0):
    """Wilson-Hilferty upper quantile of a chi-square with ``df`` degrees of
    freedom, ``z`` standard deviations out."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


@pytest.mark.parametrize(
    "m, known", [(0, 5), (2, 4), (4, 12), (16, 0)],
    ids=["m=0", "m=2", "settled-only-rest", "m=N"],
)
def test_node_calls_draw_the_class_then_a_uniform_rank(m, known):
    # Rows of a 16-index node with m unfound solutions and `known` settled
    # indices in the rest class, each from its own seed.  Round 0 picks the
    # unfound class with probability sin**2((2t+1)*theta), then a uniform
    # rank in the class it picked.
    size, rows = 16, 4000
    plan = _NodePlan(size)
    settled = np.full(rows, known)
    seeds = [unit_key(9, m * 2**32 + r) for r in range(rows)]
    verified, rounds, ranks = _node_calls(np.full(rows, m), settled, plan, seeds, CostLedger())
    won = verified & (rounds == 1)
    p = math.sin((2 * plan.iterations[0] + 1) * math.asin(math.sqrt(m / size))) ** 2
    if m in (0, size):
        assert won.all() if m == size else not won.any()
    else:
        assert abs(won.mean() - p) <= 5 * math.sqrt(p * (1 - p) / rows)
    for drawn, class_size in ((ranks[won, 0], m), (ranks[~won, 0], size - m)):
        if class_size == 0:
            assert drawn.size == 0
            continue
        assert 0 <= drawn.min() and drawn.max() < class_size
        expected = drawn.size / class_size
        chi2 = float(((np.bincount(drawn, minlength=class_size) - expected) ** 2).sum() / expected)
        assert chi2 <= chi_square_limit(class_size - 1), (class_size, chi2)
    # Settled indices stay within the rest class; where all of it is
    # settled, no rank rules out anything new.
    assert (settled <= size - m).all()
    if known == size - m:
        assert (settled == known).all()


# Sampled counters whose means must match the probability-row law.
SAMPLED_COUNTERS = (
    "quantum_oracle_queries", "classical_oracle_queries", "retry_queries",
    "repeat_node_accesses", "sweep_queries",
)
# Over master seeds 10,000-15,999 (60 runs of 300 seeds across the three
# cases below, 300 z-scores) the largest |mean gap / SE| was 3.23.
MEANS_BAND_SE = 4.0


@pytest.mark.parametrize(
    "solutions", [[5], [0, 2, 4, 6], list(range(8))], ids=["m=1", "m=N/2", "full"]
)
def test_sampled_counter_means_follow_the_probability_row_law(solutions):
    # One 8-index node over master seeds 0-299: the class-then-rank draw and
    # the probability-row reference give counters with equal means, within
    # MEANS_BAND_SE standard errors of their difference.
    oracle = SearchOracle.from_solutions(3, solutions)
    seeds = range(300)

    def counters(run):
        ledgers = [run(seed)[1].as_dict() for seed in seeds]
        return np.array([[ledger[c] for c in SAMPLED_COUNTERS] for ledger in ledgers])

    drawn = counters(lambda seed: partition_search(oracle, 3, "sampled", seed))
    law = counters(lambda seed: reference_search(oracle, 3, "rows", seed))
    gap = abs(drawn.mean(axis=0) - law.mean(axis=0))
    se = np.sqrt((drawn.var(axis=0, ddof=1) + law.var(axis=0, ddof=1)) / len(seeds))
    assert (gap <= MEANS_BAND_SE * se).all(), dict(zip(SAMPLED_COUNTERS, gap / se))


# --- partitioned search ------------------------------------------------------

def test_partition_search_single_solution():
    oracle = SearchOracle.from_solutions(4, [5])
    found, ledger = partition_search(oracle, 2)
    assert found == {5}
    assert ledger.node_accesses == 4
    assert ledger.qubit_count == 3
    assert ledger.classical_bits == 16 * 64


def test_partition_search_empty_oracle():
    oracle = SearchOracle.from_solutions(4, [])
    found, _ = partition_search(oracle, 2)
    assert found == set()


def test_partition_search_degenerate_classical_scan():
    oracle = SearchOracle.from_solutions(4, [3, 9])
    found, ledger = partition_search(oracle, 0)
    assert found == {3, 9}
    assert ledger.classical_oracle_queries == 16
    assert ledger.quantum_oracle_queries == 0
    assert ledger.node_accesses == 16
    assert ledger.sweep_queries == 0


def test_partition_search_blind_dense_sublist_is_swept():
    # Solutions fill exactly half a sublist: the node's outcome distribution
    # is identical to an empty sublist's, so only the residual sweep can
    # certify them.
    oracle = SearchOracle.from_solutions(3, [4, 5, 6, 7])
    found, ledger = partition_search(oracle, 3)
    assert found == {4, 5, 6, 7}
    assert ledger.sweep_queries > 0


def test_partition_search_headline_accounting():
    # M=1: headline is one first-round iteration count per sublist; all
    # continuation-call and later-round queries land in retry_queries.
    oracle = SearchOracle.from_solutions(8, [200])
    for n_q in (2, 3, 4):
        found, ledger = partition_search(oracle, n_q)
        assert found == {200}
        t1 = plan_iterations(2**n_q, 1)
        assert ledger.headline_quantum_queries == 2 ** (8 - n_q) * t1
        assert ledger.node_accesses == 2 ** (8 - n_q)
        assert ledger.repeat_node_accesses == 1  # rescan of the solved sublist


def test_partition_search_completeness_random_oracles():
    rng = np.random.default_rng(71)
    oracles = []
    for _ in range(30):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 2**n + 1))
        oracles.append(SearchOracle.random(n, m, int(rng.integers(0, 2**31))))
    assert search_misses(oracles) == []


def test_search_misses_checks_the_predicate_only_twin(monkeypatch):
    # A predicate-only read that drops each block's first solution is
    # caught although the set-backed run is right.
    read = SearchOracle.positions

    def wrong(oracle, lo, hi):
        hits = read(oracle, lo, hi)
        return hits if oracle.solutions is not None else hits[1:]

    monkeypatch.setattr(SearchOracle, "positions", wrong)
    oracle = SearchOracle.from_solutions(4, [3, 9])
    assert partition_search(oracle, 2)[0] == {3, 9}
    assert search_misses([oracle]) == [(4, n_q, [3]) for n_q in range(5)]


def test_search_misses_checks_the_enumeration_identity(monkeypatch):
    # Exact mode verifies, rules out or sweeps each index once, so dropping
    # one sweep query from both runs keeps their solution sets and equal
    # ledgers but breaks classical_oracle_queries + sweep_queries == 2**n.
    charges = search._exact_charges

    def short_sweep(hits, n_q, num_sublists, plan, ledger):
        charges(hits, n_q, num_sublists, plan, ledger)
        if ledger.sweep_queries:
            ledger.sweep_queries -= 1

    monkeypatch.setattr(search, "_exact_charges", short_sweep)
    rng = np.random.default_rng(29)
    oracles = [SearchOracle.random(n, int(rng.integers(0, 2**n + 1)), seed=n) for n in range(2, 7)]
    misses = search_misses(oracles)
    assert misses and all(wrong == [] for _, _, wrong in misses)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
def test_sampled_search_enumerates_every_index_at_least_once(n, placement, master_seed):
    # Sampled calls may measure settled indices again, so the exact
    # enumeration identity becomes a lower bound.
    rng = np.random.default_rng(placement)
    oracle = SearchOracle.random(n, int(rng.integers(0, 2**n + 1)), seed=placement)
    n_q = int(rng.integers(0, n + 1))
    found, ledger = partition_search(oracle, n_q, mode="sampled", master_seed=master_seed)
    assert found == set(oracle.solutions)
    assert ledger.classical_oracle_queries + ledger.sweep_queries >= 2**n


def test_partition_search_is_deterministic():
    oracle = SearchOracle.random(6, 9, seed=5)
    a, la = partition_search(oracle, 3, master_seed=11)
    b, lb = partition_search(oracle, 3, master_seed=11)
    assert a == b
    assert la.as_dict() == lb.as_dict()


def test_partition_search_sampled_mode_still_exact_set():
    oracle = SearchOracle.random(5, 7, seed=6)
    found, _ = partition_search(oracle, 2, mode="sampled", master_seed=4)
    assert found == set(oracle.solutions)
    with pytest.raises(ValueError, match="unknown mode"):
        partition_search(oracle, 2, mode="fuzzy")
    with pytest.raises(ValueError, match="unknown mode"):
        search_node(oracle, 2, 0, mode="fuzzy")


def reference_exact_node(oracle, n_q, sublist, ledger, found, known_non):
    """An exact-mode node call on one sublist by the array pick rule, round
    by round: the per-sublist reference for the search path's walk.
    ``found`` (local solutions, cleared from the node's oracle) and
    ``known_non`` (local non-solutions) are settled and never measured."""
    size = 2**n_q
    base = sublist * size
    mask = np.array([oracle.membership(base + i) and i not in found for i in range(size)])
    settled = np.zeros(size, dtype=bool)
    settled[list(found | known_non)] = True
    iterations = _NodePlan(size).iterations
    picks = []
    if size == 1:
        ledger.classical_oracle_queries += 1
        picks.append(0)
    else:
        for t, order in zip(iterations, class_orders(size, int(mask.sum()), iterations)):
            if settled.all():
                break
            local = int(reference_picks(mask[None], settled[None], np.array([order]))[0])
            ledger.quantum_oracle_queries += t
            ledger.measurement_units += 1
            ledger.classical_oracle_queries += 1
            picks.append(local)
            if mask[local]:
                break
            settled[local] = True
    verified = bool(picks) and bool(mask[picks[-1]])
    used = len(picks)
    return GroverOutcome(
        sublist, base + picks[-1] if picks else None, verified, sum(iterations[:used]),
        iterations[:used], used if verified else None,
        tested=tuple(picks[:-1] if verified else picks),
    )


def probability_row_node(oracle, n_q, sublist, ledger, found, known_non, seed):
    """A sampled-mode node call on one sublist (of more than one index)
    drawn index by index from a probability row: ``sin**2((2t+1)*theta)/m``
    on each unfound solution, ``cos**2((2t+1)*theta)/(N-m)`` elsewhere,
    settled indices included.  The law reference for the search path's
    class-then-rank draw, equal to it in distribution, not bit for bit.
    ``found`` are cleared from the node's oracle; ``known_non`` only shape
    the caller's sweep."""
    size = 2**n_q
    base = sublist * size
    mask = np.array([oracle.membership(base + i) and i not in found for i in range(size)])
    m = int(mask.sum())
    theta = math.asin(math.sqrt(m / size))
    rng = np.random.default_rng(seed)
    iterations = _NodePlan(size).iterations
    picks = []
    for t in iterations:
        on_solution = math.sin((2 * t + 1) * theta) ** 2 / max(m, 1)
        elsewhere = math.cos((2 * t + 1) * theta) ** 2 / max(size - m, 1)
        probs = np.where(mask, on_solution, elsewhere)
        picks.append(int(rng.choice(size, p=probs / probs.sum())))
        ledger.quantum_oracle_queries += t
        ledger.measurement_units += 1
        ledger.classical_oracle_queries += 1
        if mask[picks[-1]]:
            break
    verified = bool(mask[picks[-1]])
    used = len(picks)
    return GroverOutcome(
        sublist, base + picks[-1], verified, sum(iterations[:used]), iterations[:used],
        used if verified else None, tested=tuple(picks[:-1] if verified else picks),
    )


def reference_search(oracle, n_q, mode, master_seed):
    """The per-sublist orchestration: one node call at a time, the residual
    sweep through ``membership``.  Exact mode calls
    :func:`reference_exact_node`, sampled mode ``search_node`` and mode
    "rows" :func:`probability_row_node`, each sampled call seeded by its
    (sublist, call)."""
    size = 2**n_q
    ledger = CostLedger()
    found = set()
    for r in range(2 ** (oracle.n - n_q)):
        base = r * size
        found_local, known_non = set(), set()
        call = 0
        while len(found_local) + len(known_non) < size:
            seed = unit_key(master_seed, r * 2**32 + call)
            if mode == "exact":
                outcome = reference_exact_node(oracle, n_q, r, ledger, found_local, known_non)
            elif mode == "rows":
                outcome = probability_row_node(
                    oracle, n_q, r, ledger, found_local, known_non, seed
                )
            else:
                outcome = search_node(
                    oracle, n_q, r, mode=mode, seed=seed,
                    ledger=ledger,
                    exclude_solutions=frozenset(base + i for i in found_local),
                    skip_candidates=frozenset(found_local | known_non),
                )
            if call == 0:
                ledger.node_accesses += 1
                won = outcome.successful_round if outcome.verified else 1
                headline = outcome.round_iterations[won - 1]
                ledger.retry_queries += outcome.iterations_used - headline
            else:
                ledger.repeat_node_accesses += 1
                ledger.retry_queries += outcome.iterations_used
            known_non.update(t for t in outcome.tested if t not in found_local)
            if not outcome.verified:
                break
            found_local.add(outcome.measured_index - base)
            call += 1
        for local in range(size):
            if local not in found_local and local not in known_non:
                ledger.sweep_queries += 1
                if oracle.membership(base + local):
                    found_local.add(local)
        found.update(base + i for i in found_local)
    ledger.classical_bits = 2**oracle.n * 64
    ledger.qubit_count = n_q + 1
    return found, ledger


@st.composite
def sublist_oracles(draw):
    """An oracle whose sublists are each empty, single, half-full, full,
    random, or a random placement of a quarter or three quarters solutions,
    set-backed or predicate-only, with a node size for it.  The last two
    meet the counts N/4, N/2 and 3N/4, whose exact walks consult ties."""
    n = draw(st.integers(1, 8))
    n_q = draw(st.integers(0, n))
    size = 2**n_q
    solutions = set()
    for r in range(2 ** (n - n_q)):
        base = r * size
        fill = draw(st.sampled_from(
            ["empty", "single", "half", "full", "random", "quarter", "three-quarter"]
        ))
        if fill == "single":
            solutions.add(base + draw(st.integers(0, size - 1)))
        elif fill == "half":
            solutions.update(range(base, base + size, 2))
        elif fill == "full":
            solutions.update(range(base, base + size))
        elif fill == "random":
            seed = draw(st.integers(0, 2**32 - 1))
            picks = np.random.default_rng(seed).random(size) < 0.5
            solutions.update(base + int(i) for i in np.flatnonzero(picks))
        elif fill in ("quarter", "three-quarter"):
            count = size // 4 if fill == "quarter" else 3 * size // 4
            seed = draw(st.integers(0, 2**32 - 1))
            picks = np.random.default_rng(seed).choice(size, size=count, replace=False)
            solutions.update(base + int(i) for i in picks)
    sols = frozenset(solutions)
    if draw(st.booleans()):
        oracle = SearchOracle.from_solutions(n, sols)
    else:
        oracle = SearchOracle(n, sols.__contains__, len(sols), None)
    return oracle, n_q


@settings(max_examples=150, deadline=None)
@given(sublist_oracles(), st.sampled_from(["exact", "sampled"]), st.integers(0, 2**32 - 1))
def test_batched_search_equals_per_sublist_calls(case, mode, master_seed):
    oracle, n_q = case
    found, ledger = partition_search(oracle, n_q, mode=mode, master_seed=master_seed)
    want_found, want_ledger = reference_search(oracle, n_q, mode, master_seed)
    assert found == want_found
    assert ledger.as_dict() == want_ledger.as_dict()


@settings(max_examples=80, deadline=None)
@given(
    sublist_oracles(), st.sampled_from(["exact", "sampled"]), st.integers(0, 2**32 - 1),
    st.integers(0, 8),
)
def test_results_do_not_depend_on_the_block_size(case, mode, master_seed, log_block):
    # Sampled mode's blocks of 2**log_block indices (one sublist at least)
    # give the found set and ledger of a single block.  Exact mode bins the
    # counts from the positions alone and never reads BLOCK_INDICES, so for
    # it this only checks that the constant has no effect.
    oracle, n_q = case
    found, ledger = partition_search(oracle, n_q, mode=mode, master_seed=master_seed)
    with mock.patch.object(search, "BLOCK_INDICES", 2**log_block):
        blocked = partition_search(oracle, n_q, mode=mode, master_seed=master_seed)
    assert blocked[0] == found
    assert blocked[1].as_dict() == ledger.as_dict()


def test_tie_walks_read_positions():
    # At n = n_q = 2, M = 2 = N/2 ties at every round: where the two
    # solutions sit decides the ledger, so it cannot come from a walk
    # memoised by M, in one run or across runs.
    low = SearchOracle.from_solutions(2, [0, 1])
    high = SearchOracle.from_solutions(2, [2, 3])
    ledgers = [partition_search(oracle, 2)[1] for oracle in (low, high)]
    assert [(ledger.repeat_node_accesses, ledger.quantum_oracle_queries)
            for ledger in ledgers] == [(2, 3), (1, 2)]
    both = SearchOracle.from_solutions(3, [0, 1, 6, 7])
    for oracle, n_q in ((low, 2), (high, 2), (both, 2)):
        got = partition_search(oracle, n_q)[1]
        assert got.as_dict() == reference_search(oracle, n_q, "exact", 0)[1].as_dict()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tie_free_counts_give_placement_independent_ledgers(n):
    # A count whose walk meets no tie charges the same ledger wherever its
    # solutions sit, and the array reference agrees for every layout tried:
    # all of them at n <= 3, twelve random ones per count at n = 4.
    size = 2**n
    plan = _NodePlan(size)
    table = _class_order_table(size, np.arange(size + 1), plan.iterations)
    tie_free = [m for m in range(size + 1) if _walk(plan, table, m, size - m) is not None]
    assert 0 in tie_free and 1 in tie_free and size // 2 not in tie_free
    rng = np.random.default_rng(n)
    layouts = {m: [] for m in tie_free}
    if n <= 3:
        for bits in range(2**size):
            members = [i for i in range(size) if bits >> i & 1]
            if len(members) in layouts:
                layouts[len(members)].append(members)
    else:
        for m in tie_free:
            layouts[m] = [rng.choice(size, size=m, replace=False) for _ in range(12)]
    for m, members in layouts.items():
        want = partition_search(SearchOracle.from_solutions(n, members[0]), n)[1].as_dict()
        for layout in members:
            oracle = SearchOracle.from_solutions(n, layout)
            assert partition_search(oracle, n)[1].as_dict() == want
            assert reference_search(oracle, n, "exact", 0)[1].as_dict() == want, (m, layout)


# Ledgers of hand-picked runs, recorded from the per-sublist implementation;
# the sampled one re-recorded from the class-then-rank draw on the per-call
# Philox streams.
PINNED_LEDGERS = [
    (SearchOracle.from_solutions(8, [3, 77, 200, 201]), 3, "exact", 0,
     dict(quantum_oracle_queries=104, classical_oracle_queries=132, measurement_units=132,
          node_accesses=32, retry_queries=40, repeat_node_accesses=4, sweep_queries=124,
          classical_bits=16384, qubit_count=4)),
    (SearchOracle(6, lambda g: g % 3 == 0, 22, None), 2, "exact", 0,
     dict(quantum_oracle_queries=38, classical_oracle_queries=64, measurement_units=64,
          node_accesses=16, retry_queries=22, repeat_node_accesses=22,
          classical_bits=4096, qubit_count=3)),
    (SearchOracle.from_solutions(6, list(range(8)) + [40, 44, 45, 46, 47]), 3, "exact", 0,
     dict(quantum_oracle_queries=45, classical_oracle_queries=40, measurement_units=40,
          node_accesses=8, retry_queries=29, repeat_node_accesses=11, sweep_queries=24,
          classical_bits=4096, qubit_count=4)),
    (SearchOracle.random(7, 20, seed=3), 3, "sampled", 5,
     dict(quantum_oracle_queries=93, classical_oracle_queries=90, measurement_units=90,
          node_accesses=16, retry_queries=67, repeat_node_accesses=20, sweep_queries=61,
          classical_bits=8192, qubit_count=4)),
]


@pytest.mark.parametrize(
    "oracle, n_q, mode, seed, counters", PINNED_LEDGERS,
    ids=["set-backed", "predicate", "full-sublist", "sampled"],
)
def test_partition_search_pinned_ledgers(oracle, n_q, mode, seed, counters):
    found, ledger = partition_search(oracle, n_q, mode=mode, master_seed=seed)
    assert found == {i for i in range(2**oracle.n) if oracle.membership(i)}
    assert ledger.as_dict() == CostLedger(**counters).as_dict()


# --- the process-wide plan memo ----------------------------------------------

@pytest.fixture
def fresh_plans():
    """The plan memo, emptied before and after one test, so that a warm memo
    cannot hide a patch of the plan internals, and a patched plan cannot
    outlive the test."""
    search._node_plan.cache_clear()
    yield search._node_plan
    search._node_plan.cache_clear()


def counting_calls(monkeypatch, name):
    calls = []
    original = getattr(search, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(search, name, counted)
    return calls


def test_sampled_search_builds_no_generator_per_sublist_call(counted_draws, monkeypatch):
    # One SeedSequence per run, one Philox and one Generator per call wave,
    # and within a wave a reset to the key of each (sublist, call), in order.
    made, keys = counted_draws
    waves = counting_calls(monkeypatch, "_node_calls")
    oracle = SearchOracle.from_solutions(8, [3, 4, 5, 9, 17, 18, 100, 101, 102, 103, 250])
    partition_search(oracle, 3, mode="sampled", master_seed=11)
    assert made == ["SeedSequence"] + ["Philox", "Generator"] * len(waves)
    assert keys == [key for wave in waves for key in wave[3]]
    # Wave c holds call c of the sublists still active, in order.
    previous = list(range(32))
    for call, wave in enumerate(waves):
        sublists = [(key - unit_key(11, 0)) >> 32 for key in wave[3]]
        assert wave[3] == [unit_key(11, r * 2**32 + call) for r in sublists]
        assert sublists == sorted(set(sublists) & set(previous))
        previous = sublists
    assert len(previous) < len(waves[0][3]) == 32
    assert len(keys) > 2 * len(waves) > 2


def test_a_second_search_replans_and_rewalks_nothing(fresh_plans, monkeypatch):
    planned = counting_calls(monkeypatch, "plan_iterations")
    walked = counting_calls(monkeypatch, "_walk")
    # Counts 0, 1 and 2 of the 8-entry node, one walk each; 2 meets a tie,
    # so its one sublist is walked once more on its positions.
    partition_search(SearchOracle.from_solutions(8, [3, 77, 200, 201]), 3)
    assert (len(planned), len(walked)) == (4, 4)
    second = SearchOracle.from_solutions(8, [5, 9, 140, 250])
    partition_search(second, 3)
    partition_search(second, 3, mode="sampled", master_seed=2)
    search_node(second, 3, 0)
    assert (len(planned), len(walked)) == (4, 4)
    assert fresh_plans.cache_info().currsize == 1
    assert set(fresh_plans(8)._walks) == {0, 1, 2}


def test_tie_walks_are_not_memoised_by_position(fresh_plans, monkeypatch):
    # M = N/2 meets a tie: its memo entry is None, and each run walks its
    # sublists on their own positions again.
    walked = counting_calls(monkeypatch, "_walk")
    for _ in range(2):
        partition_search(SearchOracle.from_solutions(3, [0, 1, 6, 7]), 2)
    assert fresh_plans.cache_info().currsize == 1
    assert fresh_plans(4)._walks == {2: None}
    assert len(walked) == 1 + 2 * 2


def test_the_memo_keeps_no_class_order_table(fresh_plans):
    oracle = SearchOracle.random(10, 300, seed=4)
    partition_search(oracle, 5)
    search_node(oracle, 5, 3)
    assert fresh_plans.cache_info().currsize == 1
    plan = fresh_plans(32)
    assert set(vars(plan)) == {"size", "iterations", "spent_after", "_walks"}
    assert all(isinstance(v, int) for v in plan.iterations + plan.spent_after)
    assert all(
        walk is None or all(isinstance(v, int) for v in walk) for walk in plan._walks.values()
    )
    assert 0 < len(plan._walks) <= plan.size + 1


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(sublist_oracles(), st.sampled_from(["exact", "sampled"]), st.integers(0, 2**32 - 1)),
    min_size=2, max_size=5,
))
def test_searches_on_a_warm_memo_equal_searches_on_a_cold_one(runs):
    search._node_plan.cache_clear()
    warm = [
        partition_search(oracle, n_q, mode=mode, master_seed=seed)
        for (oracle, n_q), mode, seed in runs
    ]
    for ((oracle, n_q), mode, seed), (found, ledger) in zip(runs, warm):
        search._node_plan.cache_clear()
        cold_found, cold_ledger = partition_search(oracle, n_q, mode=mode, master_seed=seed)
        assert found == cold_found
        assert ledger.as_dict() == cold_ledger.as_dict()


def building_class_orders():
    return mock.patch.object(search, "_class_order_table", wraps=_class_order_table)


@settings(max_examples=60, deadline=None)
@given(sublist_oracles())
def test_a_cold_run_builds_one_class_order_table(case):
    # Counts are visited largest first, so the largest one builds the rows
    # of every smaller count, tie counts included, in one table.
    oracle, n_q = case
    search._node_plan.cache_clear()
    with building_class_orders() as built:
        partition_search(oracle, n_q)
    if n_q == 0:  # one-element nodes walk nothing
        assert built.call_count == 0
        return
    (args, _), = built.call_args_list
    largest = np.bincount(oracle.positions(0, 2**oracle.n) >> n_q, minlength=1).max()
    assert args[1].tolist() == list(range(largest + 1))


def test_a_warm_run_builds_class_orders_only_for_ties(fresh_plans):
    partition_search(SearchOracle.from_solutions(8, [3, 77, 200]), 3)
    assert fresh_plans(8)._walks.keys() == {0, 1}
    assert None not in fresh_plans(8)._walks.values()
    with building_class_orders() as built:
        partition_search(SearchOracle.from_solutions(8, [5, 90, 130, 250]), 3)
    assert built.call_count == 0
    # A memoised tie still reads its rows, walked on the positions.
    tie = SearchOracle.from_solutions(3, [0, 1, 6, 7])
    partition_search(tie, 2)
    with building_class_orders() as built:
        partition_search(tie, 2)
    assert built.call_count == 1


def test_search_node_builds_the_class_orders_of_its_own_count_only():
    # Sublist 0 holds 1, 5 and 6; with 5 excluded its node sees 2 solutions.
    oracle = SearchOracle.from_solutions(6, [1, 5, 6, 40])
    with building_class_orders() as built:
        search_node(oracle, 3, 0, exclude_solutions=frozenset({5}))
        search_node(oracle, 3, 0, mode="sampled", seed=3)
    (args, _), = built.call_args_list
    assert list(args[1]) == [2]


def counting(oracle):
    calls = []

    def membership(g):
        calls.append(g)
        return oracle.membership(g)

    return dataclasses.replace(oracle, membership=membership), calls


def test_search_reads_the_oracle_once_per_index(monkeypatch):
    # One positions() read over the whole domain per run, in either mode;
    # blocks of 64 indices split only sampled mode's call waves, into four.
    monkeypatch.setattr(search, "BLOCK_INDICES", 64)
    reads = []
    positions = SearchOracle.positions

    def counted(self, lo, hi):
        reads.append((lo, hi))
        return positions(self, lo, hi)

    monkeypatch.setattr(SearchOracle, "positions", counted)
    predicate = SearchOracle(8, lambda g: g % 5 == 1, 51, None)
    for mode in ("exact", "sampled"):
        oracle, calls = counting(predicate)
        reads.clear()
        found, _ = partition_search(oracle, 3, mode=mode)
        assert calls == list(range(256))
        assert found == {g for g in range(256) if g % 5 == 1}
        assert reads == [(0, 256)]
        # A set-backed oracle is read from its solutions alone.
        oracle, calls = counting(SearchOracle.from_solutions(8, [7, 9, 200]))
        reads.clear()
        assert partition_search(oracle, 3, mode=mode)[0] == {7, 9, 200}
        assert calls == []
        assert reads == [(0, 256)]


@pytest.mark.parametrize("n_q", [1, 2])
def test_exact_search_holds_no_per_sublist_array(n_q):
    # 2**19 or 2**18 sublists, three of them nonempty: an int64 count per
    # sublist would take 4 or 2 MiB, and per block of 2**12 indices 16 or
    # 8 KiB.
    oracle = SearchOracle.from_solutions(20, [5, 70_000, 1_000_000])
    warm = partition_search(oracle, n_q)  # fills the plan memo
    tracemalloc.start()
    try:
        found, ledger = partition_search(oracle, n_q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (found, ledger.as_dict()) == (warm[0], warm[1].as_dict())
    assert peak < 16 * 1024


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_oracle_positions_are_the_sorted_solutions(data):
    n = data.draw(st.integers(0, 8))
    solutions = data.draw(st.frozensets(st.integers(0, 2**n - 1)))
    lo = data.draw(st.integers(0, 2**n))
    hi = data.draw(st.integers(lo, 2**n))
    oracle = SearchOracle.from_solutions(n, solutions)
    predicate = SearchOracle(n, oracle.membership, len(solutions), None)
    want = [g for g in range(lo, hi) if oracle.membership(g)]
    for kind in (oracle, predicate):
        got = kind.positions(lo, hi)
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert lo < hi or got.size == 0
    assert not oracle.positions(lo, hi).flags.writeable


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_membership_is_read_by_truthiness(mode):
    # 0/1 ints and numpy bools select the same indices as Python bools.
    solutions = SearchOracle.random(7, 45, seed=3).solutions
    predicates = (
        lambda g: g in solutions,
        lambda g: int(g in solutions),
        lambda g: np.bool_(g in solutions),
    )
    for n_q in (0, 2, 4, 7):
        runs = [
            partition_search(SearchOracle(7, p, 45, None), n_q, mode=mode, master_seed=8)
            for p in predicates
        ]
        assert all(found == set(solutions) for found, _ in runs)
        assert all(ledger.as_dict() == runs[0][1].as_dict() for _, ledger in runs)


# --- oracles and partitions --------------------------------------------------

def test_oracle_random_counts():
    oracle = SearchOracle.random(6, 13, seed=9)
    assert oracle.solution_count == 13
    assert len(oracle.solutions) == 13
    assert all(0 <= s < 64 for s in oracle.solutions)
    assert all(oracle.membership(s) for s in oracle.solutions)


def test_oracle_validation():
    with pytest.raises(ValueError):
        SearchOracle.from_solutions(3, [8])
    with pytest.raises(ValueError):
        SearchOracle.random(3, 9, seed=0)


def test_partition_geometry():
    # Sublist r of 2**n_q indices covers [r * 2**n_q, (r+1) * 2**n_q).
    oracle = SearchOracle.from_solutions(5, [19])
    hit, miss = search_node(oracle, 3, 2), search_node(oracle, 3, 1)
    assert hit.verified and hit.measured_index == 19
    assert not miss.verified and 8 <= miss.measured_index < 16
    assert partition_search(oracle, 3)[1].node_accesses == 4
    for sublist in (-1, 4):
        with pytest.raises(ValueError, match="sublist"):
            search_node(oracle, 3, sublist)
    for n_q in (-1, 6):
        with pytest.raises(ValueError, match="out of range for n=5"):
            search_node(oracle, n_q, 0)
        with pytest.raises(ValueError, match="out of range for n=5"):
            partition_search(oracle, n_q)

