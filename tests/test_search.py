import math

import numpy as np
import pytest

from hqsim.core import StateVector
from hqsim.costs import CostLedger
from hqsim.search import (
    SearchGeometry,
    SearchOracle,
    SublistPartition,
    grover_operator_apply,
    partition_search,
    plan_iterations,
    search_node,
)


def uniform_state(n_q):
    size = 2**n_q
    return StateVector(n_q, np.full(size, 1.0 / math.sqrt(size), dtype=complex))


def mask_of(size, solutions):
    mask = np.zeros(size, dtype=bool)
    for s in solutions:
        mask[s] = True
    return mask


# --- the amplification operator ---------------------------------------------

def test_single_iteration_nails_unique_solution_at_n4():
    state = uniform_state(2)
    ledger = CostLedger()
    out = grover_operator_apply(state, mask_of(4, {2}), ledger)
    probs = out.probabilities()
    assert abs(probs[2] - 1.0) < 1e-12
    assert np.max(probs[[0, 1, 3]]) < 1e-12
    assert ledger.quantum_oracle_queries == 1


def test_no_solutions_fixes_uniform_state():
    state = uniform_state(3)
    out = grover_operator_apply(state, mask_of(8, set()))
    overlap = abs(np.vdot(state.amplitudes, out.amplitudes))
    assert abs(overlap - 1.0) < 1e-12


def test_all_solutions_preserves_solution_projection():
    state = uniform_state(2)
    out = grover_operator_apply(state, mask_of(4, {0, 1, 2, 3}))
    beta = abs(np.sum(out.amplitudes)) / 2.0
    assert abs(beta - 1.0) < 1e-12


def test_operator_preserves_norm():
    rng = np.random.default_rng(1)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    state = StateVector(3, amps)
    out = grover_operator_apply(state, mask_of(8, {1, 6}))
    assert abs(out.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("n_total", [2, 4, 8, 16])
def test_success_probability_law(n_total):
    n_q = n_total.bit_length() - 1
    for m in range(0, n_total + 1):
        mask = mask_of(n_total, set(range(m)))
        theta = math.asin(math.sqrt(m / n_total))
        state = uniform_state(n_q)
        for t in range(1, 11):
            state = grover_operator_apply(state, mask)
            got = float(np.sum(state.probabilities()[mask])) if m else 0.0
            want = math.sin((2 * t + 1) * theta) ** 2
            assert abs(got - want) < 1e-10


def test_geometry_invariant_along_the_rotation():
    mask = mask_of(16, {3, 11, 12})
    state = uniform_state(4)
    for _ in range(6):
        geo = SearchGeometry.of_state(state.amplitudes, mask)
        assert abs(geo.alpha_proj**2 + geo.beta_proj**2 - 1.0) < 1e-12
        state = grover_operator_apply(state, mask)


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


# --- single-node search ------------------------------------------------------

def test_node_finds_unique_solution_first_round():
    oracle = SearchOracle.from_solutions(4, [5])
    partition = SublistPartition(4, 2)
    ledger = CostLedger()
    out = search_node(partition, 1, oracle, ledger=ledger)
    assert out.verified
    assert out.measured_index == 5
    assert out.successful_round == 1
    assert out.round_iterations == (1,)
    assert ledger.quantum_oracle_queries == 1
    assert ledger.classical_oracle_queries == 1


def test_node_exhausts_on_empty_sublist():
    oracle = SearchOracle.from_solutions(4, [5])
    partition = SublistPartition(4, 2)
    out = search_node(partition, 0, oracle)
    assert not out.verified
    assert out.successful_round is None
    assert len(out.round_iterations) == 3  # n_q + 1 rounds
    assert len(out.tested) == 3


def test_node_degenerate_single_element():
    oracle = SearchOracle.from_solutions(3, [6])
    partition = SublistPartition(3, 0)
    ledger = CostLedger()
    hit = search_node(partition, 6, oracle, ledger=ledger)
    miss = search_node(partition, 5, oracle, ledger=ledger)
    assert hit.verified and hit.measured_index == 6
    assert not miss.verified
    assert ledger.classical_oracle_queries == 2
    assert ledger.quantum_oracle_queries == 0


def test_node_respects_exclusions():
    oracle = SearchOracle.from_solutions(4, [4, 5])
    partition = SublistPartition(4, 2)
    out = search_node(
        partition, 1, oracle,
        exclude_solutions=frozenset({4}),
        skip_candidates=frozenset({0}),
    )
    assert out.verified
    assert out.measured_index == 5


def test_node_sampled_mode_seeded():
    oracle = SearchOracle.from_solutions(4, [5])
    partition = SublistPartition(4, 2)
    a = search_node(partition, 1, oracle, mode="sampled", seed=3)
    b = search_node(partition, 1, oracle, mode="sampled", seed=3)
    assert (a.measured_index, a.verified, a.round_iterations) == (
        b.measured_index, b.verified, b.round_iterations)


def test_sampled_measurement_statistics_follow_the_law():
    # Frequency of drawing a solution after t planned iterations converges
    # to the exact law within the binomial tolerance for most seeds.
    n_total, m = 16, 2
    mask = mask_of(n_total, {3, 9})
    t = plan_iterations(n_total, m)
    theta = math.asin(math.sqrt(m / n_total))
    want = math.sin((2 * t + 1) * theta) ** 2
    state = uniform_state(4)
    for _ in range(t):
        state = grover_operator_apply(state, mask)
    probs = state.probabilities()
    shots = 4000
    good = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        draws = rng.choice(n_total, size=shots, p=probs / probs.sum())
        freq = float(np.mean(mask[draws]))
        if abs(freq - want) < 5.0 / math.sqrt(shots):
            good += 1
    assert good >= 36  # 90% of seeds; the bound itself is 10 sigma


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
    for _ in range(30):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 2**n + 1))
        oracle = SearchOracle.random(n, m, int(rng.integers(0, 2**31)))
        truth = set(oracle.solutions)
        for n_q in range(0, n + 1):
            found, _ = partition_search(oracle, n_q)
            assert found == truth, (n, n_q, m)


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
    partition = SublistPartition(5, 3)
    assert partition.num_sublists == 4
    assert partition.sublist_size == 8
    assert partition.base(2) == 16
    with pytest.raises(ValueError):
        partition.base(4)
    with pytest.raises(ValueError):
        SublistPartition(3, 4)


def test_geometry_from_counts():
    geo = SearchGeometry.from_counts(16, 4)
    assert abs(geo.theta - math.asin(0.5)) < 1e-15
    assert abs(geo.alpha_proj**2 + geo.beta_proj**2 - 1.0) < 1e-12
