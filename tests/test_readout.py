import math
from functools import lru_cache

import numpy as np
import pytest

from hqsim import core, readout
from hqsim.core import (
    Hadamard,
    MeasurementEffect,
    PhaseShift,
    StateVector,
    apply_controlled_circuit,
    apply_gate,
    build_qft_circuit,
    effect_probability,
)
from hqsim.checks import TRANSFORM_TOLERANCE, round_trip_deviation
from hqsim.costs import CostLedger
from hqsim.readout import (
    RealSignal,
    EPS_REF_EXACT,
    _classical_coefficients,
    _flip_signs,
    _measure,
    _rebuild,
    _reference,
    _work_arrays,
    build_schedule,
    evaluate_nodes,
    execute_schedule,
    prepare_block_state,
    rebuild_phases,
    rescale_to_dft,
)
from reference import flip_signs, shifted, signed_parts

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
    block = RealSignal.from_values(values)
    schedule = build_schedule(block.n)
    record = execute_schedule(block, schedule, **kwargs)
    return block, record


# --- block preparation ------------------------------------------------------

def test_prepare_delta_block_charges_prep_units():
    ledger = CostLedger()
    state = prepare_block_state(RealSignal.from_values([1, 0, 0, 0]), ledger)
    assert np.array_equal(state.amplitudes, [1, 0, 0, 0])
    assert ledger.state_prep_units == 16  # n_q=2: 4 * 4


def test_prepare_normalizes():
    state = prepare_block_state(RealSignal.from_values([3, 4, 0, 0]))
    assert np.allclose(state.amplitudes, [0.6, 0.8, 0, 0], atol=1e-15)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
def test_a_leaf_that_is_not_finite_or_overflows_is_refused(bad):
    # Its norm would be NaN or inf and its spectrum NaN; the refusal names
    # its column and the samples it holds.
    blocks = np.ones((8, 5))
    blocks[3, 2] = bad
    with pytest.raises(ValueError, match=r"column 2 \(samples 2::5\)"):
        evaluate_nodes(blocks)
    with pytest.raises(ValueError, match="column 2 "):
        evaluate_nodes(blocks, 64, [1, 2, 3, 4, 5])


def test_prepare_zero_block_rejected():
    with pytest.raises(ValueError):
        prepare_block_state(RealSignal.from_values([0, 0, 0, 0]))


def test_block_norm_invariant():
    block = RealSignal.from_values([1.5, -2.0, 0.25, 3.0])
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
    record = readout_pipeline([1, 2, 3, 4])[1]
    assert record.magnitude.shape == record.reference.shape == (4,)


def test_schedule_n1_has_two_self_conjugate_projectors():
    schedule = build_schedule(1)
    assert schedule.indices.tolist() == [[0, 0], [1, 1]]
    assert schedule.signs.tolist() == [0.0, 0.0]
    record = readout_pipeline([1, 2])[1]
    assert record.magnitude.shape == record.reference.shape == (2,)


def test_schedule_n3_counts():
    schedule = build_schedule(3)
    assert len(schedule.indices) == 8
    record = readout_pipeline(np.arange(1.0, 9.0))[1]
    assert record.magnitude.shape == record.reference.shape == (8,)


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


def test_schedules_are_read_only():
    # The work arrays keep one schedule per node size and share it.
    for schedule in (build_schedule(3), _work_arrays(8).node_plan(3).schedule):
        for array in (schedule.indices, schedule.signs, schedule.scales,
                      schedule.imaginary, schedule.ancilla_phase):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]


# --- schedule execution -----------------------------------------------------

def test_execute_delta_block_magnitudes():
    block, record = readout_pipeline([1, 0, 0, 0])
    # coefficient 0 is 1/2, so the joint magnitude probability is 1/8.
    assert abs(record.magnitude[0] - 0.125) < 1e-14
    # The spectrum of a delta block is real: no imaginary-part mass.
    assert abs(record.magnitude[3]) < 1e-14


def test_execute_alternating_block_imaginary_magnitude():
    block, record = readout_pipeline([1, -1, 0, 0])
    assert abs(record.magnitude[3] - 0.125) < 1e-14


def test_execute_charges_gate_and_measurement_units():
    ledger = CostLedger()
    block = RealSignal.from_values([1, 2, 3, 4])
    execute_schedule(block, build_schedule(2), ledger=ledger)
    assert ledger.quantum_gate_units == 2 * 3 // 2 + 1  # 4
    assert ledger.measurement_units == 8
    assert ledger.state_prep_units == 16


def patch_node_circuit(monkeypatch, gate):
    """Append ``gate`` to the node circuit, compiled into work arrays kept
    apart from the other tests' and dropped afterwards."""
    monkeypatch.setattr(readout, "build_qft_circuit", lambda n_q: build_qft_circuit(n_q) + [gate])
    monkeypatch.setattr(readout, "_kept_work", lru_cache(maxsize=1)(readout._WorkArrays))


def counting(monkeypatch, module, name):
    """Count the calls of ``module.name`` from then on."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_gate_charge_counts_the_circuit_that_ran(monkeypatch):
    # One more gate in the node circuit costs one more unit per live column.
    blocks = np.random.default_rng(63).normal(size=(3, 8)).T.copy()
    blocks[:, 1] = 0.0
    before, after = CostLedger(), CostLedger()
    evaluate_nodes(blocks, ledger=before)
    patch_node_circuit(monkeypatch, PhaseShift(0, 0.0))
    evaluate_nodes(blocks, ledger=after)
    assert after.quantum_gate_units == before.quantum_gate_units + 2


def test_node_circuit_is_compiled_once_per_size(monkeypatch):
    # The first run at a size may compile its circuit; later runs at that
    # size, in either mode, reuse the plan.  Its steps are one butterfly
    # per Hadamard and one diagonal between each two, and each butterfly
    # reads the two contiguous halves of the top axis.
    blocks = np.random.default_rng(64).normal(size=(4, 32)).T.copy()
    evaluate_nodes(blocks)
    compiles = counting(monkeypatch, readout, "compile_circuit")
    schedules = counting(monkeypatch, readout, "build_schedule")
    evaluate_nodes(blocks)
    evaluate_nodes(blocks, 100, [3, 4, 5, 6])
    assert compiles == [] and schedules == []
    steps, _, _ = core.compile_circuit(5, build_qft_circuit(5))
    assert [diagonal is None for _, _, diagonal in steps] == [True, False] * 4 + [True]
    assert [shape for shape, _, diagonal in steps if diagonal is None] == [(1, 2, -1)] * 5


def test_apply_circuit_batch_compiles_per_call(monkeypatch):
    compiles = counting(monkeypatch, core, "compile_circuit")
    columns = np.zeros((2**13, 1), dtype=complex)
    columns[0] = 1.0
    for _ in range(2):
        core.apply_circuit_batch(columns, build_qft_circuit(13))
    assert len(compiles) == 2
    # The transform of |0> is uniform, and the transform of that is |0>.
    assert abs(columns[0, 0] - 1.0) < 1e-12
    assert np.max(np.abs(columns[1:, 0])) < 1e-12


def test_patched_node_circuit_is_compiled_and_run(monkeypatch):
    # A different gate list compiled into new work arrays is what runs.
    blocks = np.random.default_rng(65).normal(size=(3, 8)).T.copy()
    values, _ = evaluate_nodes(blocks)
    patch_node_circuit(monkeypatch, PhaseShift(0, math.pi))
    flipped, _ = evaluate_nodes(blocks)
    # The phase negates the rows from N/2 on: coefficient 0 stays, the
    # self-conjugate coefficient N/2 changes sign and the pairs mix.
    assert np.allclose(flipped[0], values[0], atol=1e-12)
    assert np.allclose(flipped[4], -values[4], atol=1e-12)
    assert not np.allclose(flipped, values)


def test_execute_size_mismatch():
    block = RealSignal.from_values([1, 0])
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
        mag, ref = record.magnitude, record.reference
        assert abs(mag[0] - abs(y[0]) ** 2 / 2) < 1e-13
        assert abs(ref[0] - abs(x[0] + y[0]) ** 2 / 4) < 1e-13
        assert abs(mag[1] - abs(y[2]) ** 2 / 2) < 1e-13
        assert abs(ref[1] - abs(x[2] + y[2]) ** 2 / 4) < 1e-13
        assert abs(mag[2] - y1a**2) < 1e-13
        assert abs(ref[2] - 0.5 * abs((x[1] + x[3]) / 2 + y1a) ** 2) < 1e-13
        assert abs(mag[3] - y1b**2) < 1e-13
        assert abs(ref[3] - 0.5 * abs((x[1] - x[3]) / 2 + y1b) ** 2) < 1e-13


def test_sampled_mode_is_seeded_and_bounded():
    block = RealSignal.from_values([3, 2, -2, -1])
    schedule = build_schedule(2)
    r1 = execute_schedule(block, schedule, shots=2000, seed=5)
    r2 = execute_schedule(block, schedule, shots=2000, seed=5)
    entries = [np.concatenate([r.magnitude, r.reference]) for r in (r1, r2)]
    assert np.array_equal(*entries)
    assert np.all((0.0 <= entries[0]) & (entries[0] <= 1.0))
    r3 = execute_schedule(block, schedule, shots=2000, seed=6)
    assert not np.array_equal(np.concatenate([r3.magnitude, r3.reference]), entries[0])


def test_execute_refuses_negative_shots():
    block = RealSignal.from_values([1, 0, 0, 0])
    with pytest.raises(ValueError, match="shots must be >= 0"):
        execute_schedule(block, build_schedule(2), shots=-1)


def test_sampled_nodes_need_one_seed_per_row():
    # Each block is a column of the node stage's input.
    blocks = np.random.default_rng(61).normal(size=(3, 4)).T.copy()
    blocks[:, 1] = 0.0
    # Seeds only for the live columns are refused too: a column's seed never
    # depends on which other columns are zero.
    for seeds in (None, [1], [1, 3], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="one seed per column"):
            evaluate_nodes(blocks, 100, seeds)
    values, stderr = evaluate_nodes(blocks, 100, [1, 2, 3])
    assert values.shape == stderr.shape == (4, 3)
    with pytest.raises(ValueError, match="shots must be >= 0"):
        evaluate_nodes(blocks, -1, [1, 2, 3])


def test_integer_blocks_are_read_as_floats():
    blocks = np.array([[1, 2], [3, 4]])
    values, _ = evaluate_nodes(blocks)
    assert np.array_equal(values, evaluate_nodes(blocks.astype(float))[0])
    assert np.allclose(values, [[4, 6], [-2, -2]], atol=1e-12)


@pytest.mark.parametrize("rows", [1, 3])
def test_nodes_refuse_columns_that_are_not_a_power_of_two_above_one(rows):
    with pytest.raises(ValueError, match=f"column length {rows} is not a power of two >= 2"):
        evaluate_nodes(np.ones((rows, 2)))


def test_sampled_entries_are_one_binomial_draw_each_from_the_row_seed():
    block = RealSignal.from_values([3.0, 2.0, -2.0, -1.0, 0.5, 1.0, 0.0, 4.0])
    schedule = build_schedule(3)
    exact = execute_schedule(block, schedule)
    sampled = execute_schedule(block, schedule, shots=1000, seed=21)
    # Schedule order: each projector's magnitude entry, then its reference.
    p = np.clip(np.stack([exact.magnitude, exact.reference], axis=1).ravel(), 0.0, 1.0)
    want = np.random.default_rng(21).binomial(1000, p) / 1000
    assert np.stack([sampled.magnitude, sampled.reference], axis=1).ravel().tolist() == want.tolist()


def test_sampled_nodes_depend_only_on_their_own_seed():
    blocks = np.random.default_rng(62).normal(size=(5, 8)).T.copy()
    blocks[:, 2] = 0.0
    seeds = [11, 12, 13, 14, 15]
    values, stderr = evaluate_nodes(blocks, 500, seeds)
    for i, seed in enumerate(seeds):
        alone, alone_stderr = evaluate_nodes(blocks[:, i : i + 1], 500, [seed])
        assert np.array_equal(alone[:, 0], values[:, i])
        assert np.array_equal(alone_stderr[:, 0], stderr[:, i])
    reversed_values, reversed_stderr = evaluate_nodes(blocks[:, ::-1], 500, seeds[::-1])
    assert np.array_equal(reversed_values[:, ::-1], values)
    assert np.array_equal(reversed_stderr[:, ::-1], stderr)


@pytest.mark.parametrize("n_q", [1, 2, 5])
def test_zero_columns_leave_the_live_columns_unchanged(n_q):
    # Zero columns at random positions are skipped; the live columns come out
    # bit for bit as the batch of the live columns alone, passed here as the
    # F-ordered array that boolean column indexing returns.
    rng = np.random.default_rng(80 + n_q)
    L = 37
    blocks = rng.normal(size=(2**n_q, L))
    zero = rng.random(L) < 0.4
    blocks[:, zero] = 0.0
    live = ~zero
    assert blocks[:, live].flags.f_contiguous and not blocks[:, live].flags.c_contiguous
    for shots, seeds in ((0, None), (300, list(range(L)))):
        ledger, alone_ledger = CostLedger(), CostLedger()
        values, stderr = evaluate_nodes(blocks, shots, seeds, ledger)
        live_seeds = None if seeds is None else [s for s, keep in zip(seeds, live) if keep]
        alone, alone_stderr = evaluate_nodes(blocks[:, live], shots, live_seeds, alone_ledger)
        assert np.array_equal(values[:, live], alone)
        assert not np.any(values[:, zero])
        if seeds is not None:
            assert np.array_equal(stderr[:, live], alone_stderr)
            assert not np.any(stderr[:, zero])
        assert ledger == alone_ledger
        assert ledger.node_accesses == np.count_nonzero(live)


def test_sampled_nodes_make_one_generator_per_live_row(monkeypatch):
    real_rng = np.random.default_rng
    made = []

    def counting_rng(seed=None):
        made.append(seed)
        return real_rng(seed)

    blocks = real_rng(63).normal(size=(4, 16)).T.copy()
    blocks[:, 1] = 0.0
    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    evaluate_nodes(blocks, 200, [5, 6, 7, 8])
    assert made == [5, 7, 8]


@pytest.mark.parametrize("n_q", [1, 2, 3, 4, 5, 8])
def test_batched_probabilities_match_per_entry_effects(n_q):
    # The batch reads the schedule's fixed layout with index arithmetic; the
    # per-entry reference projects one effect object at a time.
    N = 2**n_q
    rng = np.random.default_rng(60 + n_q)
    rows = [rng.normal(size=N), rng.integers(-2, 3, size=N).astype(float),
            np.tile([1.0, 1.0, 2.0, 1.0, 1.0, -1.0, 1.0, 1.0], N)[:N], np.eye(N)[N - 1]]
    blocks = [RealSignal.from_values(v) for v in rows if np.any(v)]
    normalized = np.array([block.values / block.norm for block in blocks]).T.copy()
    work = _work_arrays(normalized.size)
    plan = work.node_plan(n_q)
    schedule = plan.schedule
    magnitude, reference = _measure(
        plan, normalized, _reference(schedule, normalized, work), 0, None, None, work
    )
    circuit = [shifted(gate, 1) for gate in build_qft_circuit(n_q)]
    for row, block in enumerate(blocks):
        joint = np.concatenate([prepare_block_state(block).amplitudes, np.zeros(N)])
        state = apply_gate(StateVector(n_q + 1, joint), Hadamard(0))
        state = apply_controlled_circuit(state, 0, circuit)
        for p, projector in enumerate(projector_effects(schedule)):
            want = effect_probability(state, projector, MeasurementEffect.basis(1, 1))
            assert abs(magnitude[p, row] - want) <= 1e-15
            phi = schedule.ancilla_phase[p]
            phase = complex(math.cos(phi), math.sin(phi))
            ancilla = MeasurementEffect.superposition(1, [(0, INV_SQRT2), (1, phase * INV_SQRT2)])
            want = effect_probability(state, projector, ancilla)
            assert abs(reference[p, row] - want) <= 1e-15


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
    with pytest.raises(ValueError, match="record and block sizes differ"):
        rebuild_phases(record, RealSignal.from_values(np.arange(1.0, 9.0)))
    complete = record.reference
    record.reference = complete[:3]
    with pytest.raises(ValueError, match="4 reference entries"):
        rebuild_phases(record, block)
    record.reference, record.magnitude = complete, np.append(record.magnitude, 0.0)
    with pytest.raises(ValueError, match="4 magnitude"):
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


def classical_coefficient(normalized, k):
    """Per-fallback reference: one amplitude-level coefficient computed
    classically, one phase vector and one sum per call; the phase index
    ``k*j`` is reduced modulo N in integers."""
    N = normalized.size
    phases = np.exp(2j * np.pi * ((k * np.arange(N)) & (N - 1)) / N)
    return complex(np.sum(normalized * phases) / math.sqrt(N))


@pytest.mark.parametrize("n_q, count", [(2, 20000), (5, 500), (15, 5), (17, 3)])
def test_batched_fallbacks_match_per_fallback_reference(n_q, count):
    # A chunk holds at most 2**16 phase entries: several chunks at n_q = 2,
    # two fallbacks a chunk at n_q = 15 and one at n_q = 17.
    N = 2**n_q
    rng = np.random.default_rng(70 + n_q)
    x = rng.normal(size=(3, N))
    rows = rng.integers(0, 3, size=count)
    k = rng.integers(0, N // 2 + 1, size=count)
    want = [classical_coefficient(x[row], kk) for row, kk in zip(rows.tolist(), k.tolist())]
    assert np.array_equal(_classical_coefficients(x.T.copy(), rows, k), want)


def crafted_entries():
    """Classical references ``a`` and entries of eight projectors in four
    columns: exact ties between the two hypotheses, zero ``|b|`` (from a
    zero, a negative zero and a negative magnitude entry), clear negative
    and positive decisions, and fallback rows."""
    a = np.empty((8, 4))
    magnitude = np.empty((8, 4))
    reference = np.empty((8, 4))
    # Column 0: a = 1/2 and |b| = 1/4, so the hypotheses are 9/64 and 1/64
    # and a reference at 5/64 or at a hypothesis' far side ties or decides.
    a[:, 0], magnitude[:, 0] = 0.5, 0.03125
    reference[:, 0] = [0.078125, 0.078125, 0.015625, 0.140625, 0.0, 0.2, 0.078125, 0.01]
    # Column 1: |b| = 0, so the hypotheses coincide, whatever the reference.
    a[:, 1] = [0.3, -0.3, 0.25, -0.25, 0.5, -0.5, 1e-3, -1e-3]
    magnitude[:, 1] = [0.0, -0.0, -1e-18, 0.0, -0.0, 0.0, -1e-30, 0.0]
    reference[:, 1] = [0.0225, 0.5, 0.0, 0.9, 0.0625, 0.0, 0.3, 1e-7]
    # Column 2: a negative and a positive decision on each projector.
    a[:, 2], magnitude[:, 2] = -0.125, 0.0078125
    reference[:, 2] = np.tile([np.square(-0.125 + 0.125) / 4, np.square(-0.25) / 4], 4)
    # Column 3: |a| below the threshold with |b| above it falls back.
    a[:, 3] = [1e-12, -1e-12, 0.0, 0.2, 1e-10, -0.0, 0.4, 1e-12]
    magnitude[:, 3] = [0.1, 0.02, 0.3, 0.1, 1e-20, 0.05, 0.0, 0.2]
    reference[:, 3] = 0.05
    return a, magnitude, reference


def test_rebuild_signs_equal_the_masked_formula_on_crafted_entries():
    # Ties go to the plus sign, |b| = 0 keeps the sign of zero that the
    # masked negation gave, and the fallback rows are the same ones.
    a, magnitude, reference = crafted_entries()
    b_abs = np.sqrt(2.0 * np.maximum(magnitude, 0.0))
    ties = np.abs(reference - np.square(a + b_abs) / 4) == np.abs(reference - np.square(a - b_abs) / 4)
    assert ties[[0, 1, 6], 0].all() and ties[:, 1].all()
    x = np.random.default_rng(73).normal(size=(8, 4))
    x /= np.linalg.norm(x, axis=0)
    work = _work_arrays(x.size)
    plan = work.node_plan(3)
    coefficients, _, fallback = _rebuild(plan, x, a, magnitude, reference, 0, None, work)
    want, want_fallback = signed_parts(plan.schedule, a, magnitude, reference, EPS_REF_EXACT)
    assert np.array_equal(fallback, want_fallback)
    assert fallback[:, 3].sum() == 5 and not fallback[:, :3].any()
    rows = coefficients[plan.schedule.coefficient]
    got = np.where(plan.schedule.imaginary[:, None], rows.imag, rows.real)
    assert got[~fallback].tobytes() == want[~fallback].tobytes()
    assert np.array_equal(np.signbit(got[~fallback]), np.signbit(want[~fallback]))
    # Column 2 decides both ways, so the comparison covers flipped signs.
    assert (got[:, 2] < 0).any() and (got[:, 2] > 0).any()


def test_sign_flip_negates_zeros_as_the_masked_negation_does():
    # With |b| = 0 the hypotheses tie, so a negative decision on a zero part
    # never comes out of the rebuild; the flip itself must still give -0.0.
    values = np.array([0.0, 0.0, 1.5, 2.0, 0.0, -0.0, -0.0, np.inf])
    negative = np.array([True, False, True, False, True, True, False, True])
    got = values.copy()
    _flip_signs(got, negative, np.empty(values.size))
    want = flip_signs(values.copy(), negative)
    assert got.tobytes() == want.tobytes()
    assert np.signbit(got).tolist() == [True, False, True, False, True, False, True, True]


def test_rebuild_fallbacks_match_per_fallback_reference():
    # At 64 shots the sign test needs |a| >= 3/8, so sampled rows take many
    # fallbacks; each must equal the per-fallback reference bit for bit.
    n_q, shots, L = 3, 64, 400
    rng = np.random.default_rng(72)
    blocks = rng.normal(size=(L, 2**n_q))
    x = blocks / np.linalg.norm(blocks, axis=1)[:, None]
    columns = x.T.copy()
    work = _work_arrays(columns.size)
    plan = work.node_plan(n_q)
    schedule = plan.schedule
    a = _reference(schedule, columns, work)
    magnitude, reference = _measure(plan, columns, a, shots, list(range(L)), None, work)
    ledger = CostLedger()
    coefficients, _, fallback = _rebuild(
        plan, columns, a, magnitude, reference, shots, ledger, work
    )
    p, rows = np.nonzero(fallback)
    assert len(rows) > 500
    assert ledger.classical_fallbacks == len(rows)
    assert ledger.fallback_ops == len(rows) * 2**n_q
    k = schedule.coefficient[p]
    want = np.array([classical_coefficient(x[row], kk) for row, kk in zip(rows.tolist(), k.tolist())])
    imaginary = schedule.imaginary[p]
    got = coefficients[k, rows]
    assert np.array_equal(np.where(imaginary, got.imag, got.real),
                          np.where(imaginary, want.imag, want.real))


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
    blocks = [rng.choice([-2.0, -1.0, 1.0, 2.0], size=2**n_q) for _ in range(50)]
    assert round_trip_deviation(blocks) <= TRANSFORM_TOLERANCE


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
        block = RealSignal.from_values(values)
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


def test_erfc_fit_equals_numpy_polyval_bit_for_bit():
    # The Horner loop replaced numpy.polynomial's polyval, which sampled runs
    # imported for this one call; the stderr must not move by a bit.
    x = np.concatenate([np.linspace(0.0, 12.0, 4001), [1e-300, 1e-12, 0.3, 27.0, 1e3]])
    t = 1.0 / (1.0 + 0.5 * x)
    want = t * np.exp(np.polynomial.polynomial.polyval(t, readout._ERFC_FIT) - x * x)
    assert np.array_equal(readout._erfc(x), want)
    assert np.allclose(readout._erfc(x[:50]), [math.erfc(v) for v in x[:50]], rtol=1.2e-7, atol=0)


def test_sampled_rebuild_carries_stderr():
    block = RealSignal.from_values([3, 2, -2, -1])
    schedule = build_schedule(2)
    record = execute_schedule(block, schedule, shots=4000, seed=9)
    estimate = rebuild_phases(record, block)
    assert estimate.stderr is not None
    assert estimate.stderr.shape == (4,)
    assert np.all(estimate.stderr >= 0)
    # Rough scale: a few parts in sqrt(shots).
    assert np.max(estimate.stderr) < 5.0 / math.sqrt(4000)
