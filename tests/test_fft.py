import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqsim.costs import CostLedger
from hqsim.readout import build_schedule, execute_schedule, rebuild_phases, rescale_to_dft
from hqsim.hybrid_fft import (
    FftPlan,
    RealSignal,
    SpectrumVector,
    TwiddleTable,
    butterfly_combine,
    classical_fft,
    decimate_leaves,
    direct_dft,
    hybrid_dft,
)


def test_direct_dft_delta():
    assert np.allclose(direct_dft(RealSignal.from_values([1, 0, 0, 0])).values, [1, 1, 1, 1])


def test_direct_dft_constant():
    assert np.allclose(direct_dft(RealSignal.from_values([1, 1, 1, 1])).values, [4, 0, 0, 0])


def test_direct_dft_1234():
    got = direct_dft(RealSignal.from_values([1, 2, 3, 4])).values
    assert np.allclose(got, [10, -2 - 2j, -2, -2 + 2j], atol=1e-12)


def test_direct_dft_sign_convention_against_stdlib():
    # Positive-exponent transform equals numpy's inverse transform times N.
    rng = np.random.default_rng(3)
    for n in (3, 5, 8):
        values = rng.normal(size=2**n)
        got = direct_dft(RealSignal.from_values(values)).values
        want = np.fft.ifft(values) * 2**n
        assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("n", [12, 13])
def test_direct_dft_is_more_accurate_than_the_checked_transform(n):
    # The reference must beat the 1e-9 bound it checks by a wide margin; a
    # float phase 2*pi*k*j/N loses about 1e-10 at these sizes.
    values = np.random.default_rng(1).uniform(-1.0, 1.0, 2**n)
    got = direct_dft(RealSignal.from_values(values)).values
    assert np.max(np.abs(got - np.fft.ifft(values) * 2**n)) < 1e-12


def test_classical_fft_agrees_with_direct():
    signal = RealSignal.from_values([1, 2, 3, 4])
    assert np.allclose(classical_fft(signal).values, direct_dft(signal).values, atol=1e-12)


def test_classical_fft_on_large_random_signal():
    rng = np.random.default_rng(4)
    signal = RealSignal.from_values(rng.normal(size=2**10))
    dev = np.max(np.abs(classical_fft(signal).values - direct_dft(signal).values))
    assert dev < 1e-9


def test_classical_fft_op_count():
    ledger = CostLedger()
    classical_fft(RealSignal.from_values(np.arange(16.0)), ledger)
    assert ledger.classical_ops == 64  # 4 levels x 16 outputs


def test_signal_validation():
    with pytest.raises(ValueError):
        RealSignal.from_values([1.0, 2.0, 3.0])


# --- decimation -------------------------------------------------------------

def test_decimate_single_split():
    blocks = decimate_leaves(RealSignal.from_values([1.0, 2.0, 3.0, 4.0]), 1)
    assert [list(b.values) for b in blocks] == [[1.0, 3.0], [2.0, 4.0]]


def test_decimate_identity():
    signal = RealSignal.from_values([5.0, 6.0, 7.0, 8.0])
    blocks = decimate_leaves(signal, 2)
    assert len(blocks) == 1
    assert np.array_equal(blocks[0].values, signal.values)


def test_decimate_two_levels_first_block():
    signal = RealSignal.from_values(np.arange(8.0))
    blocks = decimate_leaves(signal, 1)
    assert list(blocks[0].values) == [0.0, 4.0]
    # Bit-reversed residues: leaves are (0,4), (2,6), (1,5), (3,7).
    assert [list(b.values) for b in blocks] == [
        [0.0, 4.0], [2.0, 6.0], [1.0, 5.0], [3.0, 7.0]]


def test_decimate_rejects_oversized_node():
    with pytest.raises(ValueError):
        decimate_leaves(RealSignal.from_values([1.0, 2.0]), 2)


# --- twiddles and butterflies ----------------------------------------------

def test_twiddle_table_invariants():
    for N in (2, 4, 8, 64):
        table = TwiddleTable.for_size(N)
        assert np.max(np.abs(np.abs(table.roots) - 1.0)) < 1e-12
        assert np.max(np.abs(table.roots**N - 1.0)) < 1e-9


def test_butterfly_frozen_example():
    even = SpectrumVector(np.array([4, -2], complex))
    odd = SpectrumVector(np.array([6, -2], complex))
    got = butterfly_combine(even, odd, TwiddleTable.for_size(4))
    assert np.allclose(got.values, [10, -2 - 2j, -2, -2 + 2j], atol=1e-12)


def test_butterfly_zero_odd_duplicates_even():
    even = SpectrumVector(np.array([3 + 1j, 7], complex))
    odd = SpectrumVector(np.zeros(2, complex))
    got = butterfly_combine(even, odd, TwiddleTable.for_size(4))
    assert np.allclose(got.values, [3 + 1j, 7, 3 + 1j, 7])


def test_butterfly_size_two():
    one = SpectrumVector(np.array([1.0 + 0j]))
    got = butterfly_combine(one, one, TwiddleTable.for_size(2))
    assert np.allclose(got.values, [2, 0])


def test_butterfly_length_mismatch():
    with pytest.raises(ValueError):
        butterfly_combine(
            SpectrumVector(np.zeros(2, complex)),
            SpectrumVector(np.zeros(4, complex)),
            TwiddleTable.for_size(4),
        )


def test_butterfly_charges_per_output():
    ledger = CostLedger()
    even = SpectrumVector(np.zeros(8, complex))
    butterfly_combine(even, even, TwiddleTable.for_size(16), ledger)
    assert ledger.classical_ops == 16


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_butterfly_recombination_equals_direct(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=2**n)
    signal = RealSignal.from_values(values)
    assert np.max(np.abs(classical_fft(signal).values - direct_dft(signal).values)) < 1e-9


# --- the hybrid pipeline ----------------------------------------------------

def test_hybrid_nq0_equals_classical_fft():
    rng = np.random.default_rng(7)
    signal = RealSignal.from_values(rng.normal(size=16))
    got, ledger = hybrid_dft(signal, FftPlan(n=4, n_q=0))
    assert np.array_equal(got.values, classical_fft(signal).values)
    assert ledger.quantum_gate_units == 0
    assert ledger.state_prep_units == 0
    assert ledger.classical_ops == 4 * 16


def test_hybrid_full_quantum_leaf():
    rng = np.random.default_rng(8)
    signal = RealSignal.from_values(rng.normal(size=16))
    got, ledger = hybrid_dft(signal, FftPlan(n=4, n_q=4))
    assert np.max(np.abs(got.values - direct_dft(signal).values)) < 1e-9
    assert ledger.classical_ops == 0


def test_hybrid_ramp_signal():
    signal = RealSignal.from_values(np.arange(1.0, 17.0))
    got, ledger = hybrid_dft(signal, FftPlan(n=4, n_q=2))
    assert np.max(np.abs(got.values - direct_dft(signal).values)) < 1e-9
    assert ledger.classical_ops == 32


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_hybrid_output_independent_of_node_size(n):
    rng = np.random.default_rng(600 + n)
    for _ in range(3):
        signal = RealSignal.from_values(rng.uniform(-1, 1, 2**n))
        want = direct_dft(signal).values
        for n_q in range(0, n + 1):
            got, _ = hybrid_dft(signal, FftPlan(n=n, n_q=n_q))
            assert np.max(np.abs(got.values - want)) < 1e-9


def test_hybrid_hermitian_symmetry():
    rng = np.random.default_rng(9)
    signal = RealSignal.from_values(rng.normal(size=32))
    got, _ = hybrid_dft(signal, FftPlan(n=5, n_q=3))
    v = got.values
    for k in range(1, 32):
        assert abs(v[32 - k] - np.conj(v[k])) < 1e-9


def test_hybrid_parseval():
    rng = np.random.default_rng(10)
    signal = RealSignal.from_values(rng.normal(size=64))
    got, _ = hybrid_dft(signal, FftPlan(n=6, n_q=4))
    lhs = float(np.sum(np.abs(got.values) ** 2))
    rhs = 64 * float(np.sum(signal.values**2))
    assert abs(lhs - rhs) / rhs < 1e-6


def test_hybrid_linearity():
    rng = np.random.default_rng(11)
    f = rng.normal(size=16)
    g = rng.normal(size=16)
    a, b = 2.5, -1.25
    plan = FftPlan(n=4, n_q=2)
    sf, _ = hybrid_dft(RealSignal.from_values(f), plan)
    sg, _ = hybrid_dft(RealSignal.from_values(g), plan)
    sfg, _ = hybrid_dft(RealSignal.from_values(a * f + b * g), plan)
    assert np.max(np.abs(sfg.values - (a * sf.values + b * sg.values))) < 1e-8


def test_hybrid_ledger_exactness():
    rng = np.random.default_rng(12)
    n = 6
    signal = RealSignal.from_values(rng.normal(size=2**n))
    for n_q in range(1, n + 1):
        _, ledger = hybrid_dft(signal, FftPlan(n=n, n_q=n_q))
        leaves = 2 ** (n - n_q)
        assert ledger.classical_ops == (n - n_q) * 2**n
        assert ledger.quantum_gate_units == leaves * (n_q * (n_q + 1) // 2 + n_q // 2)
        assert ledger.state_prep_units == leaves * n_q**2 * 2**n_q
        assert ledger.node_accesses == leaves
        assert ledger.measurement_units == leaves * 2 * 2**n_q


def test_hybrid_zero_leaves_skip_the_node():
    # Only index 1 is nonzero at n=2, n_q=1: leaf (x0, x2) is all zero.
    signal = RealSignal.from_values([0.0, 3.0, 0.0, 0.0])
    got, ledger = hybrid_dft(signal, FftPlan(n=2, n_q=1))
    assert np.max(np.abs(got.values - direct_dft(signal).values)) < 1e-12
    assert ledger.node_accesses == 1
    assert ledger.state_prep_units == 1 * 1 * 2  # one nonzero leaf only


def test_hybrid_zero_signal():
    signal = RealSignal.from_values(np.zeros(8))
    got, ledger = hybrid_dft(signal, FftPlan(n=3, n_q=2))
    assert np.array_equal(got.values, np.zeros(8, complex))
    assert ledger.node_accesses == 0
    assert ledger.state_prep_units == 0


def test_hybrid_memory_accounting():
    signal = RealSignal.from_values(np.ones(16))
    _, ledger = hybrid_dft(signal, FftPlan(n=4, n_q=2, n_precision=32))
    assert ledger.classical_bits == 16 * 32
    assert ledger.qubit_count == 3


def test_hybrid_decimation_charge_flag():
    rng = np.random.default_rng(13)
    signal = RealSignal.from_values(rng.normal(size=16))
    _, base = hybrid_dft(signal, FftPlan(n=4, n_q=2))
    _, charged = hybrid_dft(signal, FftPlan(n=4, n_q=2, charge_decimation=True))
    assert base.decimation_ops == 0
    assert charged.decimation_ops == 2 * 16
    assert charged.classical_ops == base.classical_ops  # kept separate


def test_plan_validation():
    with pytest.raises(ValueError):
        FftPlan(n=3, n_q=4)
    with pytest.raises(ValueError):
        FftPlan(n=3, n_q=1, mode="sampled", shots=0)
    with pytest.raises(ValueError):
        FftPlan(n=3, n_q=1, mode="fuzzy")


def test_hybrid_sampled_mode_is_deterministic_and_annotated():
    rng = np.random.default_rng(14)
    signal = RealSignal.from_values(rng.normal(size=16))
    plan = FftPlan(n=4, n_q=2, mode="sampled", shots=2000, master_seed=77)
    got1, _ = hybrid_dft(signal, plan)
    got2, _ = hybrid_dft(signal, plan)
    assert np.array_equal(got1.values, got2.values)
    assert got1.stderr is not None and got1.stderr.shape == (16,)
    assert np.all(got1.stderr >= 0)
    other, _ = hybrid_dft(signal, FftPlan(n=4, n_q=2, mode="sampled", shots=2000, master_seed=78))
    assert not np.array_equal(got1.values, other.values)


def test_hybrid_sampled_mode_is_close_to_exact():
    rng = np.random.default_rng(15)
    signal = RealSignal.from_values(rng.normal(size=16))
    want = direct_dft(signal).values
    got, _ = hybrid_dft(signal, FftPlan(n=4, n_q=2, mode="sampled", shots=200000, master_seed=5))
    scale = math.sqrt(float(np.sum(signal.values**2)) * 16)
    assert np.max(np.abs(got.values - want)) < 0.05 * scale


# --- batched nodes against the per-leaf path -----------------------------

def per_leaf_transform(signal, plan):
    """hybrid_dft rebuilt from batch-of-one calls: execute_schedule and
    rebuild_phases on each nonzero leaf, then pairwise radix-2 combines."""
    ledger = CostLedger()
    sampled = plan.mode == "sampled"
    spectra, errors = [], []
    for idx, block in enumerate(decimate_leaves(signal, plan.n_q)):
        if plan.n_q == 0 or block.norm == 0.0:
            spectra.append(block.values.astype(complex))
            errors.append(np.zeros(block.size))
            continue
        seed = int(np.random.SeedSequence([plan.master_seed, idx]).generate_state(1)[0])
        record = execute_schedule(block, build_schedule(plan.n_q), plan.mode, plan.shots, seed, ledger)
        estimate = rebuild_phases(record, block, ledger)
        ledger.node_accesses += 1
        spectra.append(rescale_to_dft(estimate))
        errors.append(estimate.stderr * estimate.scale if sampled else np.zeros(block.size))
    while len(spectra) > 1:
        size = 2 * spectra[0].size
        roots = np.exp(2j * np.pi * np.arange(size) / size)
        spectra = [np.concatenate([e, e]) + roots * np.concatenate([o, o])
                   for e, o in zip(spectra[0::2], spectra[1::2])]
        errors = [np.sqrt(np.concatenate([e, e]) ** 2 + np.concatenate([o, o]) ** 2)
                  for e, o in zip(errors[0::2], errors[1::2])]
        ledger.classical_ops += size * len(spectra)
    ledger.classical_bits = signal.size * plan.n_precision
    ledger.qubit_count = plan.n_q + 1
    return spectra[0], errors[0] if sampled else None, ledger


# Criterion 3's block: x_1 == x_7 makes the k=1 minus reference zero while
# the imaginary part of coefficient 1 is not, which forces a fallback.
CRITERION_3_BLOCK = np.array([1.0, 1.0, 2.0, 1.0, 1.0, -1.0, 1.0, 1.0])


def _test_signal(kind, n, rng):
    size = 2**n
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, size)
    if kind == "integers":  # small integers: zero leaves and zero references
        return rng.integers(-2, 3, size).astype(float)
    if kind == "repeated":  # at n_q = 3 every leaf is CRITERION_3_BLOCK
        return np.repeat(CRITERION_3_BLOCK, max(size // 8, 1))[:size]
    values = np.zeros(size)  # sparse integer spikes
    values[rng.integers(0, size, 3)] = rng.integers(1, 4, 3)
    return values


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    st.sampled_from(["uniform", "integers", "repeated", "spikes"]),
    st.sampled_from([("exact", 0), ("sampled", 64), ("sampled", 1000)]),
    st.integers(0, 2**32 - 1),
)
def test_hybrid_equals_per_leaf_path(sizes, kind, mode_shots, seed):
    n, n_q = sizes
    mode, shots = mode_shots
    signal = RealSignal.from_values(_test_signal(kind, n, np.random.default_rng(seed)))
    plan = FftPlan(n=n, n_q=n_q, mode=mode, shots=shots, master_seed=seed)
    got, ledger = hybrid_dft(signal, plan)
    want, want_stderr, want_ledger = per_leaf_transform(signal, plan)
    assert ledger.as_dict() == want_ledger.as_dict()
    assert np.max(np.abs(got.values - want)) <= 1e-12
    if mode == "sampled":
        assert np.max(np.abs(got.stderr - want_stderr)) <= 1e-12
    else:
        assert got.stderr is None


def test_hybrid_resolves_fallback_leaves():
    # Each of the four 8-point leaves is CRITERION_3_BLOCK.
    signal = RealSignal.from_values(np.repeat(CRITERION_3_BLOCK, 4))
    plan = FftPlan(n=5, n_q=3)
    got, ledger = hybrid_dft(signal, plan)
    assert ledger.classical_fallbacks >= 4
    assert ledger.fallback_ops == 8 * ledger.classical_fallbacks
    assert np.max(np.abs(got.values - direct_dft(signal).values)) < 1e-9
    _, _, want_ledger = per_leaf_transform(signal, plan)
    assert ledger.as_dict() == want_ledger.as_dict()
