import math

import numpy as np
import pytest

from hqsim.core import (
    Hadamard,
    MeasurementEffect,
    StateVector,
    apply_controlled_circuit,
    apply_gate,
    build_qft_circuit,
    effect_probability,
)
from hqsim.costs import CostLedger
from hqsim.readout import (
    ROLE_MAGNITUDE,
    ROLE_REFERENCE,
    BlockVector,
    _measure,
    build_schedule,
    execute_schedule,
    prepare_block_state,
    rebuild_phases,
    rescale_to_dft,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def dft_matrix(N):
    k = np.arange(N)
    return np.exp(2j * np.pi * np.outer(k, k) / N)


def direct_coefficients(block):
    """Amplitude-level oracle: transform of the normalized block."""
    N = block.size
    return dft_matrix(N) @ (block.values / block.norm) / math.sqrt(N)


def projector_effects(schedule):
    """The schedule's data projectors as per-entry effect objects."""
    effects = []
    for (i, j), sign, scale in zip(
        schedule.indices.tolist(), schedule.signs.tolist(), schedule.scales.tolist()
    ):
        terms = [(i, scale)] + ([(j, sign * scale)] if sign else [])
        effects.append(MeasurementEffect.superposition(schedule.n_q, terms))
    return effects


def readout_pipeline(values, **kwargs):
    block = BlockVector.from_values(values)
    schedule = build_schedule(block.n_q)
    record = execute_schedule(block, schedule, **kwargs)
    return block, record


# --- block preparation ------------------------------------------------------

def test_prepare_delta_block_charges_prep_units():
    ledger = CostLedger()
    state = prepare_block_state(BlockVector.from_values([1, 0, 0, 0]), ledger)
    assert np.array_equal(state.amplitudes, [1, 0, 0, 0])
    assert ledger.state_prep_units == 16  # n_q=2: 4 * 4


def test_prepare_normalizes():
    state = prepare_block_state(BlockVector.from_values([3, 4, 0, 0]))
    assert np.allclose(state.amplitudes, [0.6, 0.8, 0, 0], atol=1e-15)


def test_prepare_zero_block_rejected():
    with pytest.raises(ValueError):
        prepare_block_state(BlockVector.from_values([0, 0, 0, 0]))


def test_block_norm_invariant():
    block = BlockVector.from_values([1.5, -2.0, 0.25, 3.0])
    assert abs(block.norm**2 - np.sum(block.values**2)) < 1e-12


# --- schedule construction --------------------------------------------------

def test_schedule_n2_projectors_in_order():
    schedule = build_schedule(2)
    p0, p2, plus, minus = projector_effects(schedule)
    assert p0.terms == ((0, 1.0 + 0j),)
    assert p2.terms == ((2, 1.0 + 0j),)
    assert [i for i, _ in plus.terms] == [1, 3]
    assert np.allclose([c for _, c in plus.terms], [INV_SQRT2, INV_SQRT2])
    assert np.allclose([c for _, c in minus.terms], [INV_SQRT2, -INV_SQRT2])
    assert schedule.coefficient.tolist() == [0, 2, 1, 1]
    assert schedule.imaginary.tolist() == [False, False, False, True]
    # Reference phases: 0 except pi/2 on the minus projector.
    assert schedule.ancilla_phase.tolist() == [0.0, 0.0, 0.0, math.pi / 2]
    assert len(readout_pipeline([1, 2, 3, 4])[1].measurements) == 8


def test_schedule_n1_has_two_self_conjugate_projectors():
    schedule = build_schedule(1)
    assert schedule.indices.tolist() == [[0, 0], [1, 1]]
    assert schedule.signs.tolist() == [0.0, 0.0]
    assert len(readout_pipeline([1, 2])[1].measurements) == 4


def test_schedule_n3_counts():
    schedule = build_schedule(3)
    assert len(schedule.indices) == 8
    assert len(readout_pipeline(np.arange(1.0, 9.0))[1].measurements) == 16


@pytest.mark.parametrize("n_q", [1, 2, 3, 4])
def test_schedule_projectors_orthonormal(n_q):
    schedule = build_schedule(n_q)
    N = 2**n_q
    dense = np.zeros((N, N), dtype=complex)
    for i, proj in enumerate(projector_effects(schedule)):
        for idx, coeff in proj.terms:
            dense[i, idx] = coeff
    gram = dense @ dense.conj().T
    assert np.max(np.abs(gram - np.eye(N))) < 1e-12
    # Every coefficient 0 .. N/2 is read once for its real part, and every
    # one strictly between them once more for its imaginary part.
    parts = sorted(zip(schedule.coefficient.tolist(), schedule.imaginary.tolist()))
    want = [(k, False) for k in range(N // 2 + 1)] + [(k, True) for k in range(1, N // 2)]
    assert parts == sorted(want)


def test_schedule_rejects_bad_size():
    with pytest.raises(ValueError):
        build_schedule(0)


# --- schedule execution -----------------------------------------------------

def test_execute_delta_block_magnitudes():
    block, record = readout_pipeline([1, 0, 0, 0])
    # coefficient 0 is 1/2, so the joint magnitude probability is 1/8.
    assert abs(record.measurements[(0, ROLE_MAGNITUDE)] - 0.125) < 1e-14
    # The spectrum of a delta block is real: no imaginary-part mass.
    assert abs(record.measurements[(3, ROLE_MAGNITUDE)]) < 1e-14


def test_execute_alternating_block_imaginary_magnitude():
    block, record = readout_pipeline([1, -1, 0, 0])
    assert abs(record.measurements[(3, ROLE_MAGNITUDE)] - 0.125) < 1e-14


def test_execute_charges_gate_and_measurement_units():
    ledger = CostLedger()
    block = BlockVector.from_values([1, 2, 3, 4])
    execute_schedule(block, build_schedule(2), ledger=ledger)
    assert ledger.quantum_gate_units == 2 * 3 // 2 + 1  # 4
    assert ledger.measurement_units == 8
    assert ledger.state_prep_units == 16


def test_execute_size_mismatch():
    block = BlockVector.from_values([1, 0])
    with pytest.raises(ValueError):
        execute_schedule(block, build_schedule(2))


def test_exact_measurements_reproduce_closed_forms():
    # All eight joint probabilities for the 4-point schedule, against the
    # direct-matrix oracle, under the joint-probability convention.
    rng = np.random.default_rng(21)
    for _ in range(10):
        values = rng.normal(size=4)
        block, record = readout_pipeline(values)
        x = block.values / block.norm
        y = direct_coefficients(block)
        y1a, y1b = y[1].real, y[1].imag
        m = record.measurements
        assert abs(m[(0, ROLE_MAGNITUDE)] - abs(y[0]) ** 2 / 2) < 1e-13
        assert abs(m[(0, ROLE_REFERENCE)] - abs(x[0] + y[0]) ** 2 / 4) < 1e-13
        assert abs(m[(1, ROLE_MAGNITUDE)] - abs(y[2]) ** 2 / 2) < 1e-13
        assert abs(m[(1, ROLE_REFERENCE)] - abs(x[2] + y[2]) ** 2 / 4) < 1e-13
        assert abs(m[(2, ROLE_MAGNITUDE)] - y1a**2) < 1e-13
        assert abs(m[(2, ROLE_REFERENCE)] - 0.5 * abs((x[1] + x[3]) / 2 + y1a) ** 2) < 1e-13
        assert abs(m[(3, ROLE_MAGNITUDE)] - y1b**2) < 1e-13
        assert abs(m[(3, ROLE_REFERENCE)] - 0.5 * abs((x[1] - x[3]) / 2 + y1b) ** 2) < 1e-13


def test_sampled_mode_is_seeded_and_bounded():
    block = BlockVector.from_values([3, 2, -2, -1])
    schedule = build_schedule(2)
    r1 = execute_schedule(block, schedule, mode="sampled", shots=2000, seed=5)
    r2 = execute_schedule(block, schedule, mode="sampled", shots=2000, seed=5)
    assert r1.measurements == r2.measurements
    assert all(0.0 <= v <= 1.0 for v in r1.measurements.values())
    r3 = execute_schedule(block, schedule, mode="sampled", shots=2000, seed=6)
    assert r3.measurements != r1.measurements


def test_sampled_mode_requires_shots():
    block = BlockVector.from_values([1, 0, 0, 0])
    with pytest.raises(ValueError):
        execute_schedule(block, build_schedule(2), mode="sampled", shots=0)


@pytest.mark.parametrize("n_q", [1, 2, 3, 4, 5])
def test_batched_probabilities_match_per_entry_effects(n_q):
    # The batch reads the schedule's fixed layout with index arithmetic; the
    # per-entry reference projects one effect object at a time.
    N = 2**n_q
    rng = np.random.default_rng(60 + n_q)
    rows = [rng.normal(size=N), rng.integers(-2, 3, size=N).astype(float),
            np.tile([1.0, 1.0, 2.0, 1.0, 1.0, -1.0, 1.0, 1.0], N)[:N], np.eye(N)[N - 1]]
    blocks = [BlockVector.from_values(v) for v in rows if np.any(v)]
    normalized = np.array([block.values / block.norm for block in blocks])
    schedule = build_schedule(n_q)
    magnitude, reference = _measure(schedule, normalized, 0, None, None)
    circuit = [gate.shifted(1) for gate in build_qft_circuit(n_q)]
    for row, block in enumerate(blocks):
        joint = np.concatenate([prepare_block_state(block).amplitudes, np.zeros(N)])
        state = apply_gate(StateVector(n_q + 1, joint), Hadamard(0))
        state = apply_controlled_circuit(state, 0, circuit)
        for p, projector in enumerate(projector_effects(schedule)):
            want = effect_probability(state, projector, MeasurementEffect.basis(1, 1))
            assert abs(magnitude[row, p] - want) <= 1e-15
            phi = schedule.ancilla_phase[p]
            phase = complex(math.cos(phi), math.sin(phi))
            ancilla = MeasurementEffect.superposition(1, [(0, INV_SQRT2), (1, phase * INV_SQRT2)])
            want = effect_probability(state, projector, ancilla)
            assert abs(reference[row, p] - want) <= 1e-15


# --- phase rebuilding -------------------------------------------------------

def test_rebuild_alternating_block_selects_negative_sign():
    block, record = readout_pipeline([1, -1, 0, 0])
    estimate = rebuild_phases(record, block)
    assert abs(estimate.coefficients[1].imag - (-1 / (2 * math.sqrt(2)))) < 1e-12
    # The k=1 pair references are solid, so the sign comes from the
    # measurements; only the zero x_2 reference needs the fallback.
    assert estimate.ambiguous == frozenset({2})


def test_rebuild_delta_block():
    block, record = readout_pipeline([1, 0, 0, 0])
    estimate = rebuild_phases(record, block)
    assert np.allclose(estimate.coefficients, [0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert estimate.scale == 2.0
    # x_2 and (x_1+x_3)/sqrt(2) are exactly zero for a delta block, so both
    # sign tests are undecidable and must be flagged, not guessed: the block
    # (0,1,0,1) has the same zero references but a negative coefficient 2.
    assert estimate.ambiguous == frozenset({1, 2})
    assert estimate.classical_fallbacks == 2


def test_rebuild_conjugate_assembly_is_exact():
    rng = np.random.default_rng(31)
    block, record = readout_pipeline(rng.normal(size=8))
    estimate = rebuild_phases(record, block)
    N = 8
    for k in range(1, N):
        assert estimate.coefficients[N - k] == np.conj(estimate.coefficients[k])


def test_rebuild_requires_complete_record():
    block, record = readout_pipeline([1, 2, 3, 4])
    del record.measurements[(2, ROLE_REFERENCE)]
    with pytest.raises(ValueError):
        rebuild_phases(record, block)


def test_ambiguous_reference_falls_back_to_classical():
    # x_1 == x_7 makes the k=1 minus reference zero while the imaginary part
    # of coefficient 1 is nonzero: undecidable sign, resolved classically.
    values = [1.0, 1.0, 2.0, 1.0, 1.0, -1.0, 1.0, 1.0]
    ledger = CostLedger()
    block, record = readout_pipeline(values)
    estimate = rebuild_phases(record, block, ledger)
    assert 1 in estimate.ambiguous
    assert estimate.classical_fallbacks >= 1
    assert ledger.classical_fallbacks == estimate.classical_fallbacks
    assert ledger.fallback_ops == 8 * estimate.classical_fallbacks
    # The fallback is never silently wrong.
    got = rescale_to_dft(estimate)
    want = dft_matrix(8) @ block.values.astype(complex)
    assert np.max(np.abs(got - want)) < 1e-9


def test_rescale_examples():
    block, record = readout_pipeline([1, 0, 0, 0])
    assert np.allclose(rescale_to_dft(rebuild_phases(record, block)), [1, 1, 1, 1], atol=1e-12)
    block, record = readout_pipeline([1, 1, 1, 1])
    assert np.allclose(rescale_to_dft(rebuild_phases(record, block)), [4, 0, 0, 0], atol=1e-12)
    block, record = readout_pipeline([0, 1, 0, 0])
    assert np.allclose(rescale_to_dft(rebuild_phases(record, block)), [1, 1j, -1, -1j], atol=1e-12)


@pytest.mark.parametrize("n_q", [1, 2, 3, 4])
def test_round_trip_exact_on_integer_blocks(n_q):
    rng = np.random.default_rng(100 + n_q)
    schedule = build_schedule(n_q)
    for _ in range(50):
        values = rng.choice([-2.0, -1.0, 1.0, 2.0], size=2**n_q)
        block = BlockVector.from_values(values)
        record = execute_schedule(block, schedule)
        got = rescale_to_dft(rebuild_phases(record, block))
        want = dft_matrix(2**n_q) @ values.astype(complex)
        assert np.max(np.abs(got - want)) < 1e-9


def test_parseval_after_rescale():
    rng = np.random.default_rng(41)
    for n_q in (1, 2, 3):
        block, record = readout_pipeline(rng.normal(size=2**n_q))
        rescaled = rescale_to_dft(rebuild_phases(record, block))
        lhs = np.sum(np.abs(rescaled) ** 2)
        rhs = 2**n_q * np.sum(block.values**2)
        assert abs(lhs - rhs) < 1e-9


def test_sign_robustness_with_solid_references():
    rng = np.random.default_rng(51)
    n_q = 3
    N = 2**n_q
    schedule = build_schedule(n_q)
    checked = 0
    while checked < 200:
        values = rng.normal(size=N)
        block = BlockVector.from_values(values)
        x = values / block.norm
        refs = [abs(x[0]), abs(x[N // 2])]
        for k in range(1, N // 2):
            refs.append(abs(x[k] + x[N - k]) * INV_SQRT2)
            refs.append(abs(x[k] - x[N - k]) * INV_SQRT2)
        if min(refs) < 0.05:
            continue
        checked += 1
        record = execute_schedule(block, schedule)
        estimate = rebuild_phases(record, block)
        assert not estimate.ambiguous
        got = rescale_to_dft(estimate)
        want = dft_matrix(N) @ values.astype(complex)
        assert np.max(np.abs(got - want)) < 1e-9


def test_sampled_rebuild_carries_stderr():
    block = BlockVector.from_values([3, 2, -2, -1])
    schedule = build_schedule(2)
    record = execute_schedule(block, schedule, mode="sampled", shots=4000, seed=9)
    estimate = rebuild_phases(record, block)
    assert estimate.stderr is not None
    assert estimate.stderr.shape == (4,)
    assert np.all(estimate.stderr >= 0)
    # Rough scale: a few parts in sqrt(shots).
    assert np.max(estimate.stderr) < 5.0 / math.sqrt(4000)
