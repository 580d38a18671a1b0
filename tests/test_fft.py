import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqsim.checks import (
    STDERR_COEFFICIENT_LIMIT,
    STDERR_RATIO_BAND,
    TRANSFORM_TOLERANCE,
    stderr_miscalibrations,
    transform_deviation,
)
from hqsim import hybrid_fft, readout
from hqsim.costs import CostLedger
from hqsim.readout import (
    _WorkArrays,
    _work_arrays,
    build_schedule,
    evaluate_nodes,
    execute_schedule,
    rebuild_phases,
    rescale_to_dft,
)
from hqsim.hybrid_fft import (
    FftPlan,
    RealSignal,
    SpectrumVector,
    _combine_levels,
    _roots,
    butterfly_combine,
    decimate_leaves,
    direct_dft,
    hybrid_dft,
)
from reference import classical_fft


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


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
def test_direct_dft_is_exactly_conjugate_symmetric(n):
    # A real signal's coefficient N-k is the conjugate of coefficient k, bit
    # for bit, for every k other than 0 and N/2.
    N = 2**n
    values = np.random.default_rng(n).normal(size=N)
    got = direct_dft(RealSignal.from_values(values)).values
    k = np.arange(1, (N + 1) // 2)
    assert np.array_equal(got[N - k], np.conj(got[k]))
    assert np.max(np.abs(got - np.fft.ifft(values) * N)) < 1e-12


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
        roots = _roots(N)
        assert roots.shape == (N,)
        assert np.max(np.abs(np.abs(roots) - 1.0)) < 1e-12
        assert np.max(np.abs(roots**N - 1.0)) < 1e-9


def test_root_table_is_built_once_per_kept_size():
    signal = RealSignal.from_values(np.random.default_rng(8).uniform(-1, 1, 2**7))
    first = hybrid_dft(signal, FftPlan(n=7, n_q=2))[0].values
    roots = _work_arrays(2**7).roots
    hybrid_dft(signal, FftPlan(n=7, n_q=5))
    assert _work_arrays(2**7).roots is roots
    assert np.array_equal(roots, np.exp(2j * np.pi * np.arange(2**7) / 2**7))
    # Another size in between replaces the kept table; spectra do not move.
    classical_fft(RealSignal.from_values(np.ones(2**5)))
    assert _work_arrays(2**7).roots is None
    assert np.array_equal(hybrid_dft(signal, FftPlan(n=7, n_q=2))[0].values, first)


def test_butterfly_frozen_example():
    even = SpectrumVector(np.array([4, -2], complex))
    odd = SpectrumVector(np.array([6, -2], complex))
    got = butterfly_combine(even, odd)
    assert np.allclose(got.values, [10, -2 - 2j, -2, -2 + 2j], atol=1e-12)


def test_butterfly_zero_odd_duplicates_even():
    even = SpectrumVector(np.array([3 + 1j, 7], complex))
    odd = SpectrumVector(np.zeros(2, complex))
    got = butterfly_combine(even, odd)
    assert np.allclose(got.values, [3 + 1j, 7, 3 + 1j, 7])


def test_butterfly_size_two():
    one = SpectrumVector(np.array([1.0 + 0j]))
    got = butterfly_combine(one, one)
    assert np.allclose(got.values, [2, 0])


def test_butterfly_length_mismatch():
    with pytest.raises(ValueError):
        butterfly_combine(
            SpectrumVector(np.zeros(2, complex)),
            SpectrumVector(np.zeros(4, complex)),
        )


def test_butterfly_charges_per_output():
    ledger = CostLedger()
    even = SpectrumVector(np.zeros(8, complex))
    butterfly_combine(even, even, ledger)
    assert ledger.classical_ops == 16


def test_butterfly_combines_the_standard_errors_of_both_halves():
    # Output k and k + h both pair even[k] with odd[k], whose errors add in
    # quadrature; with one half's errors unknown, the output has none.
    even = SpectrumVector(np.array([1, 2], complex), np.array([0.3, 0.5]))
    odd = SpectrumVector(np.array([3, 4], complex), np.array([0.4, 1.2]))
    got = butterfly_combine(even, odd)
    paired = np.sqrt(even.stderr**2 + odd.stderr**2)
    assert np.array_equal(got.stderr, np.concatenate([paired, paired]))
    assert np.allclose(got.stderr, [0.5, 1.3, 0.5, 1.3], atol=1e-15)
    assert butterfly_combine(even, SpectrumVector(odd.values)).stderr is None


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_butterfly_recombination_equals_direct(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=2**n)
    signal = RealSignal.from_values(values)
    assert np.max(np.abs(classical_fft(signal).values - direct_dft(signal).values)) < 1e-9


def two_product_level(spec, stderr, roots):
    """Reference radix-2 level, one product per output coefficient:
    ``y_k = even[k % h] + roots[k] * odd[k % h]``."""
    pairs, h = spec.shape[0] // 2, spec.shape[1]
    spec = (spec[0::2, None, :] + roots.reshape(2, h) * spec[1::2, None, :]).reshape(pairs, 2 * h)
    if stderr is not None:
        half = np.sqrt(stderr[0::2] ** 2 + stderr[1::2] ** 2)
        stderr = np.concatenate([half, half], axis=1)
    return spec, stderr


def bit_reversal(count):
    """Bit-reversed order of ``range(count)``, a power of two."""
    bits = count.bit_length() - 1
    return np.array([int(format(i, f"0{bits}b")[::-1], 2) if bits else 0 for i in range(count)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.integers(0, 5), st.booleans(), st.integers(0, 2**31 - 1))
def test_one_product_levels_equal_two_product_reference(levels, log_width, with_stderr, seed):
    # roots[k + h] = -roots[k] only up to rounding, so the spectra agree
    # within a bound relative to the row norm; stderr and the charge match
    # exactly.  The reference pairs adjacent rows of leaves in bit-reversed
    # order; the levels under test take the same leaves as columns in
    # natural order, column c holding leaf bitrev(c).
    rows, width = 2**levels, 2**log_width
    rng = np.random.default_rng(seed)
    spec = rng.normal(size=(rows, width)) + 1j * rng.normal(size=(rows, width))
    stderr = rng.uniform(0.0, 1.0, (rows, width)) if with_stderr else None
    ledger = CostLedger()
    natural = bit_reversal(rows)
    got = _combine_levels(
        spec[natural].T.copy(), None if stderr is None else stderr[natural].T.copy(), ledger,
        _work_arrays(rows * width),
    )
    want, want_stderr = spec, stderr
    roots = np.exp(2j * np.pi * np.arange(rows * width) / (rows * width))
    while want.shape[0] > 1:
        want, want_stderr = two_product_level(want, want_stderr, roots[::want.shape[0] // 2])
    assert np.max(np.abs(got.values - want[0])) <= 1e-15 * np.linalg.norm(want[0])
    if with_stderr:
        assert np.array_equal(got.stderr, want_stderr[0])
    else:
        assert got.stderr is None
    assert ledger.classical_ops == levels * rows * width


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
    signals = [RealSignal.from_values(rng.uniform(-1, 1, 2**n)) for _ in range(3)]
    assert transform_deviation(signals) <= TRANSFORM_TOLERANCE


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("shots", [0, 256])
def test_hybrid_refuses_leaves_that_are_not_finite_or_overflow(shots):
    # A NaN, an infinity or a leaf whose squared norm overflows would give
    # an all-NaN spectrum; sample 6 of 16 sits in column 6 % 4 of the
    # (4, 4) leaves.
    for bad in (math.nan, math.inf, 1e200):
        values = np.ones(16)
        values[6] = bad
        with pytest.raises(ValueError, match=r"column 2 \(samples 2::4\)"):
            hybrid_dft(RealSignal.from_values(values), FftPlan(n=4, n_q=2, shots=shots))
    with pytest.raises(ValueError, match="column 0 "):
        hybrid_dft(RealSignal.from_values([1e200] * 4), FftPlan(n=2, n_q=1, shots=shots))
    # With no node the levels alone run, and they do not square the samples.
    spectrum = hybrid_dft(RealSignal.from_values([1e200] * 4), FftPlan(n=2, n_q=0, shots=shots))[0]
    assert spectrum.values.tolist() == [4e200, 0, 0, 0]


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


def test_plan_validation():
    with pytest.raises(ValueError):
        FftPlan(n=3, n_q=4)
    with pytest.raises(ValueError, match="shots must be >= 0"):
        FftPlan(n=3, n_q=1, shots=-1)
    with pytest.raises(ValueError, match="plan built for n=3, signal has n=2"):
        hybrid_dft(RealSignal.from_values(np.ones(4)), FftPlan(n=3, n_q=1))


def test_hybrid_sampled_mode_is_deterministic_and_annotated():
    rng = np.random.default_rng(14)
    signal = RealSignal.from_values(rng.normal(size=16))
    plan = FftPlan(n=4, n_q=2, shots=2000, master_seed=77)
    got1, _ = hybrid_dft(signal, plan)
    got2, _ = hybrid_dft(signal, plan)
    assert np.array_equal(got1.values, got2.values)
    assert got1.stderr is not None and got1.stderr.shape == (16,)
    assert np.all(got1.stderr >= 0)
    other, _ = hybrid_dft(signal, FftPlan(n=4, n_q=2, shots=2000, master_seed=78))
    assert not np.array_equal(got1.values, other.values)


def test_hybrid_sampled_mode_is_close_to_exact():
    rng = np.random.default_rng(15)
    signal = RealSignal.from_values(rng.normal(size=16))
    want = direct_dft(signal).values
    got, _ = hybrid_dft(signal, FftPlan(n=4, n_q=2, shots=200000, master_seed=5))
    scale = math.sqrt(float(np.sum(signal.values**2)) * 16)
    assert np.max(np.abs(got.values - want)) < 0.05 * scale


def test_sampled_stderr_matches_the_empirical_error():
    # The band is pinned from 12 signal sets built like this one (generator
    # seeds 0-11) at master seeds 400-799, and 6 of them at 0-399: the
    # overall ratio of empirical RMSE to reported stderr read 0.81-1.24 and
    # the worst coefficient up to 2.07.  Without the sign-flip term in the
    # stderr, the overall ratio read 1.38-2.28 at n = n_q = 6 and at 256
    # shots, and single coefficients up to 8.2.
    assert STDERR_RATIO_BAND == (0.75, 1.3)
    assert STDERR_COEFFICIENT_LIMIT == 2.5
    rng = np.random.default_rng(0)
    cases = []
    for n, n_q, shots in [(4, 2, 1024), (5, 3, 1024), (6, 6, 1024), (6, 3, 4096), (4, 4, 256)]:
        values = rng.normal(size=2**n) if n % 2 else rng.uniform(-1.0, 1.0, 2**n)
        cases.append((RealSignal.from_values(values), n_q, shots))
    assert stderr_miscalibrations(cases, range(400)) == []


# --- batched nodes against the per-leaf path -----------------------------

def per_leaf_transform(signal, plan):
    """hybrid_dft rebuilt from batch-of-one calls: execute_schedule and
    rebuild_phases on each nonzero leaf, then pairwise radix-2 combines."""
    ledger = CostLedger()
    sampled = plan.shots > 0
    spectra, errors = [], []
    for idx, block in enumerate(decimate_leaves(signal, plan.n_q)):
        if plan.n_q == 0 or block.norm == 0.0:
            spectra.append(block.values.astype(complex))
            errors.append(np.zeros(block.size))
            continue
        seed = int(np.random.SeedSequence([plan.master_seed, idx]).generate_state(1)[0])
        record = execute_schedule(block, build_schedule(plan.n_q), plan.shots, seed, ledger)
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
    st.sampled_from([0, 64, 1000]),
    st.integers(0, 2**32 - 1),
)
def test_hybrid_equals_per_leaf_path(sizes, kind, shots, seed):
    n, n_q = sizes
    signal = RealSignal.from_values(_test_signal(kind, n, np.random.default_rng(seed)))
    plan = FftPlan(n=n, n_q=n_q, shots=shots, master_seed=seed)
    got, ledger = hybrid_dft(signal, plan)
    want, want_stderr, want_ledger = per_leaf_transform(signal, plan)
    assert ledger.as_dict() == want_ledger.as_dict()
    assert np.max(np.abs(got.values - want)) <= 1e-12
    if shots:
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


def test_fallbacks_near_half_the_node_size_stay_within_the_tolerance():
    # x[N-k] = -x[k] zeroes the plus reference of pair k, so coefficient k's
    # real part falls back to the classical sum.  Near k = N/2 its phase
    # indices k*j reach N**2/2; unless they are reduced modulo N before the
    # float product, the transform is off by about 1e-8 at n = 18.
    n = 18
    N = 2**n
    values = np.random.default_rng(18).uniform(-1.0, 1.0, N)
    for k in (N // 2 - 1, N // 2 - 3, N // 2 - 5):
        values[N - k] = -values[k]
    got, ledger = hybrid_dft(RealSignal.from_values(values), FftPlan(n=n, n_q=n))
    assert ledger.classical_fallbacks >= 3
    assert np.max(np.abs(got.values - N * np.fft.ifft(values))) <= TRANSFORM_TOLERANCE


# --- work arrays ------------------------------------------------------------

@pytest.mark.parametrize("n_q", [2, 4, 8])
def test_a_warm_transform_allocates_little_beyond_its_spectrum(n_q):
    # The node stage and all levels but the last write into work arrays kept
    # from the first call, so a second call of the same size allocates the
    # returned spectrum (128 KiB at n = 13) and small per-column arrays.
    signal = RealSignal.from_values(np.random.default_rng(n_q).uniform(-1.0, 1.0, 2**13))
    plan = FftPlan(n=13, n_q=n_q)
    hybrid_dft(signal, plan)
    tracemalloc.start()
    try:
        hybrid_dft(signal, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**13 * 16


@pytest.mark.parametrize("shots", [0, 256])
@pytest.mark.parametrize("n_q", [0, 1, 3, 7])
def test_kept_results_do_not_change_after_a_later_call_of_the_same_size(n_q, shots):
    # No returned array may share memory with the kept work arrays, at any
    # node size, n_q = n (no level) included.
    n = 7
    rng = np.random.default_rng(70 + n_q)
    first, second = (RealSignal.from_values(rng.uniform(-1.0, 1.0, 2**n)) for _ in range(2))
    plan = FftPlan(n=n, n_q=n_q, shots=shots, master_seed=3)
    kept = hybrid_dft(first, plan)[0]
    want = (kept.values.copy(), None if kept.stderr is None else kept.stderr.copy())
    if n_q:
        blocks = first.values.reshape(2**n_q, -1)
        seeds = list(range(blocks.shape[1])) if shots else None
        nodes = evaluate_nodes(blocks, shots, seeds)
        want_nodes = tuple(None if v is None else v.copy() for v in nodes)
        evaluate_nodes(second.values.reshape(2**n_q, -1), shots, seeds)
        for got, expected in zip(nodes, want_nodes):
            assert (got is None and expected is None) or np.array_equal(got, expected)
    hybrid_dft(second, plan)
    assert np.array_equal(kept.values, want[0])
    assert (kept.stderr is None and want[1] is None) or np.array_equal(kept.stderr, want[1])


@pytest.mark.parametrize("shots", [0, 256])
def test_work_arrays_above_the_keep_bound_are_not_kept(shots):
    def kept_sizes():
        gc.collect()
        return [work.temp.size for work in gc.get_objects() if isinstance(work, _WorkArrays)]

    small = RealSignal.from_values(np.random.default_rng(13).uniform(-1.0, 1.0, 2**13))
    hybrid_dft(small, FftPlan(n=13, n_q=4, shots=shots, master_seed=1))
    assert 2**13 in kept_sizes()
    large = RealSignal.from_values(np.random.default_rng(17).uniform(-1.0, 1.0, 2**17))
    got = hybrid_dft(large, FftPlan(n=17, n_q=8, shots=shots, master_seed=1))[0]
    assert 2**17 not in kept_sizes()
    if not shots:
        assert np.max(np.abs(got.values - 2**17 * np.fft.ifft(large.values))) <= TRANSFORM_TOLERANCE


def test_transforms_above_the_keep_bound_leave_nothing_held():
    # Their work arrays, root tables and node plans are dropped on return: a
    # root table alone would hold 16 MiB at n = 20.
    signals = [RealSignal.from_values(np.random.default_rng(n).uniform(-1.0, 1.0, 2**n))
               for n in (17, 20)]
    gc.collect()
    tracemalloc.start()
    try:
        for signal, n_q in zip(signals, (8, 0)):
            hybrid_dft(signal, FftPlan(n=signal.n, n_q=n_q))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20


def test_a_second_transform_at_a_kept_size_builds_nothing(monkeypatch):
    # The benchmark's cycle of node sizes keeps all three plans, and the
    # root table, in the one kept object.
    signal = RealSignal.from_values(np.random.default_rng(13).uniform(-1.0, 1.0, 2**13))
    cycle = (2, 4, 8)
    want = [hybrid_dft(signal, FftPlan(n=13, n_q=n_q))[0].values for n_q in cycle]
    assert set(cycle) <= set(_work_arrays(2**13).plans)
    built = []
    for module, name in ((readout, "compile_circuit"), (readout, "build_schedule"),
                         (hybrid_fft, "_roots")):
        monkeypatch.setattr(module, name, lambda *args, name=name: built.append(name))
    for n_q, values in zip(cycle, want):
        assert np.array_equal(hybrid_dft(signal, FftPlan(n=13, n_q=n_q))[0].values, values)
    assert built == []


def test_a_new_size_drops_the_kept_workspace_with_its_plans():
    signal = RealSignal.from_values(np.random.default_rng(9).uniform(-1.0, 1.0, 2**9))
    hybrid_dft(signal, FftPlan(n=9, n_q=3))
    work = _work_arrays(2**9)
    plan = work.node_plan(3)
    # The plan's second step is the diagonal of the phase gates after the
    # first Hadamard; ``first`` is one of its per-call constants.
    diagonal = plan.steps[1][2]
    assert isinstance(diagonal, np.ndarray)
    kept = [weakref.ref(obj) for obj in (work, work.roots, plan, plan.schedule, diagonal, plan.first)]
    del work, plan, diagonal
    hybrid_dft(RealSignal.from_values(signal.values[:2**8]), FftPlan(n=8, n_q=3))
    gc.collect()
    assert [ref() for ref in kept] == [None] * 6
