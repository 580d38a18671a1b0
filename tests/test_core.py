import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqsim.checks import (
    CIRCUIT_TOLERANCE,
    UNITARITY_TOLERANCE,
    circuit_deviation,
    unitarity_deviation,
)
from hqsim.core import (
    ControlledPhase,
    Hadamard,
    MeasurementEffect,
    PhaseShift,
    StateVector,
    Swap,
    apply_circuit_batch,
    apply_controlled_circuit,
    apply_gate,
    build_qft_circuit,
    circuit_matrix,
    effect_probability,
    sample_effect,
)
from hqsim.core import compile_circuit, run_circuit
from reference import (
    apply_circuit,
    apply_in_place,
    compile_in_place,
    gate_matrix,
    probed_residual,
    residual_probes,
    run_in_place,
    shifted,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def qft_reference_matrix(n_q):
    """Direct construction: entries exp(+2*pi*i*k*j/N)/sqrt(N)."""
    N = 2**n_q
    k = np.arange(N)
    return np.exp(2j * np.pi * np.outer(k, k) / N) / math.sqrt(N)


def basis_state(num_qubits, index):
    """The computational basis state ``|index>``."""
    return StateVector(num_qubits, np.eye(2**num_qubits, dtype=complex)[index])


# --- state vectors ----------------------------------------------------------

def test_statevector_rejects_wrong_length():
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0]))


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))


# --- elementary gates -------------------------------------------------------

def test_hadamard_on_zero():
    state = apply_gate(basis_state(1, 0), Hadamard(0))
    assert np.allclose(state.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)


def test_controlled_phase_on_11():
    state = apply_gate(basis_state(2, 3), ControlledPhase(0, 1, math.pi / 2))
    assert abs(state.amplitudes[3] - 1j) < 1e-15
    assert np.allclose(state.amplitudes[:3], 0)


def test_swap_01_to_10():
    # Qubit 0 is the most significant bit: |01> is index 1, |10> is index 2.
    state = apply_gate(basis_state(2, 1), Swap(0, 1))
    assert np.allclose(state.amplitudes, [0, 0, 1, 0])


def test_phase_shift_targets_one_component():
    state = apply_gate(basis_state(2, 1), Hadamard(0))
    phased = apply_gate(state, PhaseShift(1, math.pi))
    # Qubit 1 is |1> in both branches, so both pick up the phase.
    assert np.allclose(phased.amplitudes, -state.amplitudes)


def test_apply_gate_invalid_index():
    with pytest.raises(ValueError):
        apply_gate(basis_state(2, 0), Hadamard(2))


@pytest.mark.parametrize(
    "gate",
    [Hadamard(0), PhaseShift(0, 0.37), ControlledPhase(0, 1, 2.2), Swap(0, 1),
     Hadamard(1), ControlledPhase(1, 0, 2.2), Swap(1, 0)],
)
def test_gate_matrices_unitary(gate):
    assert unitarity_deviation([gate]) <= UNITARITY_TOLERANCE
    # The in-place kernel applies the gate's matrix, on whichever qubits.
    num_qubits = max(gate.qubits) + 1
    got = circuit_matrix([gate], num_qubits)
    assert np.max(np.abs(got - embedded_matrix(gate, num_qubits))) < 1e-15


@pytest.mark.parametrize("gate", [ControlledPhase(1, 1, 0.5), Swap(0, 0)])
def test_two_qubit_gates_need_distinct_qubits(gate):
    with pytest.raises(ValueError):
        apply_gate(basis_state(2, 0), gate)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_circuits_preserve_norm(data):
    num_qubits = data.draw(st.integers(2, 4))
    index = data.draw(st.integers(0, 2**num_qubits - 1))
    gates = []
    for _ in range(data.draw(st.integers(1, 12))):
        kind = data.draw(st.integers(0, 3))
        q = data.draw(st.integers(0, num_qubits - 1))
        q2 = data.draw(st.integers(0, num_qubits - 1).filter(lambda x: x != q))
        angle = data.draw(st.floats(-math.pi, math.pi, allow_nan=False))
        gates.append(
            [Hadamard(q), PhaseShift(q, angle), ControlledPhase(q, q2, angle), Swap(q, q2)][kind]
        )
    state = apply_circuit(basis_state(num_qubits, index), gates)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


# --- transform circuit ------------------------------------------------------

def test_qft_single_qubit_is_hadamard():
    circuit = build_qft_circuit(1)
    assert circuit == [Hadamard(0)]
    m = circuit_matrix(circuit, 1)
    assert np.allclose(m, np.array([[1, 1], [1, -1]]) * INV_SQRT2, atol=1e-15)


@pytest.mark.parametrize("n_q", range(1, 7))
def test_circuit_matrix_columns_equal_single_state_runs(n_q):
    # One batched run on the identity equals a run per basis state, bit for bit.
    circuit = build_qft_circuit(n_q)
    m = circuit_matrix(circuit, n_q)
    for j in range(2**n_q):
        assert np.array_equal(m[:, j], apply_circuit(basis_state(n_q, j), circuit).amplitudes)


def test_qft_two_qubits_on_00():
    state = apply_circuit(basis_state(2, 0), build_qft_circuit(2))
    assert np.allclose(state.amplitudes, [0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_qft_two_qubits_entry_11():
    m = circuit_matrix(build_qft_circuit(2), 2)
    assert abs(m[1, 1] - 0.5j) < 1e-12


@pytest.mark.parametrize("n_q", range(1, 7))
def test_qft_gate_count(n_q):
    circuit = build_qft_circuit(n_q)
    hadamards = sum(isinstance(g, Hadamard) for g in circuit)
    phases = sum(isinstance(g, ControlledPhase) for g in circuit)
    swaps = sum(isinstance(g, Swap) for g in circuit)
    assert hadamards == n_q
    assert phases == n_q * (n_q - 1) // 2
    assert swaps == n_q // 2
    assert len(circuit) == hadamards + phases + swaps


@pytest.mark.parametrize("n_q", range(1, 7))
def test_qft_matrix_unitary_and_exact(n_q):
    m = circuit_matrix(build_qft_circuit(n_q), n_q)
    N = 2**n_q
    assert np.max(np.abs(m.conj().T @ m - np.eye(N))) < 1e-10
    assert circuit_deviation([n_q]) <= CIRCUIT_TOLERANCE


def test_qft_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        build_qft_circuit(0)


# --- controlled application -------------------------------------------------

def test_controlled_circuit_control_off():
    # Ancilla |0> (x) |10>: joint index 2 on 3 qubits.
    state = basis_state(3, 2)
    out = apply_controlled_circuit(state, 0, [shifted(g, 1) for g in build_qft_circuit(2)])
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-15)


def test_controlled_circuit_plus_ancilla():
    joint = np.zeros(8, dtype=complex)
    joint[0] = INV_SQRT2  # |0>|00>
    joint[4] = INV_SQRT2  # |1>|00>
    state = StateVector(3, joint)
    out = apply_controlled_circuit(state, 0, [shifted(g, 1) for g in build_qft_circuit(2)])
    expected = np.concatenate([[1, 0, 0, 0], [0.5, 0.5, 0.5, 0.5]]) * INV_SQRT2
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


@pytest.mark.parametrize("j", range(4))
def test_controlled_circuit_control_on(j):
    state = basis_state(3, 4 + j)  # |1> (x) |j>
    out = apply_controlled_circuit(state, 0, [shifted(g, 1) for g in build_qft_circuit(2)])
    expected = np.zeros(8, dtype=complex)
    expected[4:] = qft_reference_matrix(2)[:, j]
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_controlled_circuit_rejects_touching_control():
    state = basis_state(3, 0)
    with pytest.raises(ValueError):
        apply_controlled_circuit(state, 0, [Hadamard(0)])
    with pytest.raises(ValueError):
        apply_controlled_circuit(state, 1, [ControlledPhase(1, 2, 0.3)])


def test_controlled_circuit_with_interior_control():
    # Control on qubit 1 of three; gate on qubit 2 must shift axes correctly.
    state = apply_gate(basis_state(3, 0b010), Hadamard(2))  # |01+>
    out = apply_controlled_circuit(state, 1, [PhaseShift(2, math.pi)])
    expected = np.zeros(8, dtype=complex)
    expected[0b010] = INV_SQRT2
    expected[0b011] = -INV_SQRT2
    assert np.allclose(out.amplitudes, expected, atol=1e-15)


@pytest.mark.parametrize("control", [None, 0, 1])
def test_batched_rows_match_single_states(control):
    # A controlled run equals the batched run where the control is |1> and
    # returns its input unchanged where the control is |0>, bit for bit.
    rng = np.random.default_rng(17)
    rows = rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    circuit = [Hadamard(3), PhaseShift(2, 0.4), ControlledPhase(3, 2, 1.3), Swap(2, 3)]
    # The batch holds each register as a column.
    batch = rows.T.copy()
    apply_circuit_batch(batch, circuit)
    on = np.ones(16, dtype=bool)
    if control is not None:
        on = (np.arange(16) >> (3 - control)) & 1 == 1
    for row, got in zip(rows, batch.T):
        state = StateVector(4, row)
        if control is None:
            want = apply_circuit(state, circuit)
        else:
            want = apply_controlled_circuit(state, control, circuit)
        assert np.array_equal(got[on], want.amplitudes[on])
        assert np.array_equal(row[~on], want.amplitudes[~on])


def embedded_matrix(gate, num_qubits):
    """Dense unitary of one gate on the full register, from its own matrix:
    the entry between two basis states whose other qubits agree."""
    dim = 2**num_qubits
    qs = gate.qubits
    m = gate_matrix(gate)

    def local(index):
        bits = [(index >> (num_qubits - 1 - q)) & 1 for q in qs]
        return sum(bit << (len(qs) - 1 - i) for i, bit in enumerate(bits))

    rest = ~sum(1 << (num_qubits - 1 - q) for q in qs)
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            if i & rest == j & rest:
                out[i, j] = m[local(i), local(j)]
    return out


@pytest.mark.parametrize("control", [None, 0, 2])
def test_gates_after_swaps_match_dense_matrices(control):
    # Swaps relabel tensor axes, so every later gate must find its qubit on
    # the exchanged axis; the reference multiplies dense gate matrices.
    circuit = [Swap(1, 3), Hadamard(1), ControlledPhase(1, 3, 0.9), Swap(3, 4),
               PhaseShift(4, 0.4), Hadamard(3), Swap(1, 4), ControlledPhase(4, 1, 1.7)]
    if control is None:
        circuit = [Hadamard(2), Swap(0, 2)] + circuit + [Swap(2, 1), Hadamard(0)]
    rng = np.random.default_rng(19)
    amplitudes = rng.normal(size=32) + 1j * rng.normal(size=32)
    amplitudes /= np.linalg.norm(amplitudes)
    want = amplitudes.copy()
    for gate in circuit:
        unitary = embedded_matrix(gate, 5)
        if control is not None:
            on = np.array([(i >> (4 - control)) & 1 for i in range(32)], dtype=bool)
            unitary = np.where(np.outer(on, on), unitary, np.eye(32))
        want = unitary @ want
    state = StateVector(5, amplitudes)
    if control is None:
        got = apply_circuit(state, circuit)
    else:
        got = apply_controlled_circuit(state, control, circuit)
    assert np.max(np.abs(got.amplitudes - want)) < 1e-14


def dense_circuit(circuit, num_qubits, control=None):
    """The product of the gates' embedded matrices, each acting only where
    ``control`` is |1> when one is given."""
    dim = 2**num_qubits
    out = np.eye(dim, dtype=complex)
    on = np.array([control is None or (i >> (num_qubits - 1 - control)) & 1 for i in range(dim)],
                  dtype=bool)
    for gate in circuit:
        out = np.where(np.outer(on, on), embedded_matrix(gate, num_qubits), np.eye(dim)) @ out
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fused_diagonal_runs_match_dense_matrices(data):
    # Long runs of phase gates, whose qubits are shared by every gate of the
    # run, by some or by none, between Hadamards and with swaps before,
    # between and after them: each run is one precomputed diagonal.
    num_qubits = data.draw(st.integers(2, 5))
    control = data.draw(st.none() | st.integers(0, num_qubits - 1))
    free = [q for q in range(num_qubits) if q != control]
    qubit = st.sampled_from(free)
    angle = st.floats(-math.pi, math.pi, allow_nan=False)

    def swaps():
        pairs = st.lists(qubit, min_size=2, max_size=2, unique=True)
        count = data.draw(st.integers(0, 2)) if len(free) > 1 else 0
        return [Swap(*data.draw(pairs)) for _ in range(count)]

    circuit = swaps()
    for _ in range(data.draw(st.integers(1, 3))):
        shared = data.draw(qubit)
        for _ in range(data.draw(st.integers(1, 10))):
            others = [q for q in free if q != shared]
            if not others or data.draw(st.booleans()):
                q = data.draw(qubit)
                gate = PhaseShift(q, data.draw(angle))
            elif data.draw(st.booleans()):
                other = data.draw(st.sampled_from(others))
                pair = (shared, other) if data.draw(st.booleans()) else (other, shared)
                gate = ControlledPhase(*pair, data.draw(angle))
            else:
                pair = data.draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
                gate = ControlledPhase(*pair, data.draw(angle))
            circuit.append(gate)
            circuit += swaps() if data.draw(st.booleans()) else []
        circuit.append(Hadamard(data.draw(qubit)))
        circuit += swaps()
    if data.draw(st.booleans()):
        circuit.pop()  # end on a run, not on a Hadamard
    if control is None:
        got = circuit_matrix(circuit, num_qubits)
    else:
        # Column j is the controlled run on basis state |j>.
        got = np.array([apply_controlled_circuit(basis_state(num_qubits, j), control, circuit)
                        .amplitudes for j in range(2**num_qubits)]).T
    assert np.max(np.abs(got - dense_circuit(circuit, num_qubits, control))) < 1e-12


def test_batched_rows_must_be_contiguous():
    columns = np.zeros((8, 4), dtype=complex)
    with pytest.raises(ValueError):
        apply_circuit_batch(columns[:, ::2], [Hadamard(0)])
    with pytest.raises(ValueError):
        apply_circuit_batch(columns[:6], [Hadamard(0)])
    # An F-ordered batch would be copied by the reshape into the gate
    # tensor, and the in-place gates would change only the copy.
    with pytest.raises(ValueError):
        apply_circuit_batch(np.asfortranarray(columns), [Hadamard(0)])


@pytest.mark.parametrize("n_q", range(1, 13))
def test_out_of_place_runner_equals_the_in_place_runner_bit_for_bit(n_q):
    # The transform circuit through the out-of-place runner, read through
    # its rows from the (L, N) result, against the in-place reference
    # runner, at every batch width the node stage can meet.
    N = 2**n_q
    steps, rows, scale = compile_circuit(n_q, build_qft_circuit(n_q))
    in_place_steps, in_place_rows, in_place_scale = compile_in_place(n_q, build_qft_circuit(n_q))
    assert scale == in_place_scale
    for width in sorted({0, 1, 3, 32, 2 ** (12 - n_q)}):
        rng = np.random.default_rng(1000 * n_q + width)
        columns = rng.normal(size=(N, width)) + 1j * rng.normal(size=(N, width))
        want = columns.copy()
        run_in_place(want, in_place_steps)
        result = run_circuit(columns.copy(), np.empty_like(columns), steps)
        assert result.shape == (width, N)
        assert result.T[rows].tobytes() == want[in_place_rows].tobytes()


def test_out_of_order_hadamards_with_swaps_equal_the_in_place_runner():
    # Hadamards that find their qubit away from the top axis, swaps between
    # them, a qubit that no Hadamard moves and phases on every pattern of
    # axes: slower paths of the same runner, still bit for bit.
    gates = [
        Hadamard(3), ControlledPhase(0, 3, 0.3), Swap(0, 2), PhaseShift(4, 1.1), Hadamard(0),
        Swap(1, 3), ControlledPhase(4, 1, -0.7), PhaseShift(2, 0.4), Hadamard(2), Hadamard(1),
        ControlledPhase(1, 2, 2.2), Swap(3, 4), Hadamard(3), Hadamard(0), PhaseShift(0, -1.3),
    ]
    for width in (1, 3, 32):
        rng = np.random.default_rng(width)
        columns = rng.normal(size=(32, width)) + 1j * rng.normal(size=(32, width))
        want = columns.copy()
        apply_in_place(want, gates)
        apply_circuit_batch(columns, gates)
        assert columns.tobytes() == want.tobytes()


# --- projections and effects ------------------------------------------------

def random_branch_state(rng, n_data):
    """(|0>|X> + |1>|Y>)/sqrt(2) with known complex X, Y halves."""
    N = 2**n_data
    x = rng.normal(size=N) + 1j * rng.normal(size=N)
    x /= np.linalg.norm(x)
    y = rng.normal(size=N) + 1j * rng.normal(size=N)
    y /= np.linalg.norm(y)
    joint = np.concatenate([x, y]) * INV_SQRT2
    return StateVector(n_data + 1, joint), x, y


def test_projection_single_basis_residual():
    # The four ancilla probes fix the residual up to its global phase; the
    # first two sum to the probability of the projection outcome.
    state, x, y = random_branch_state(np.random.default_rng(5), 2)
    got = probed_residual(state, MeasurementEffect.basis(2, 0))
    assert np.allclose(got, residual_probes(np.array([x[0], y[0]]) * INV_SQRT2),
                       rtol=0, atol=1e-14)
    assert abs(got[0] + got[1] - (abs(x[0]) ** 2 + abs(y[0]) ** 2) / 2) < 1e-14


def test_projection_pair_residual():
    state, x, y = random_branch_state(np.random.default_rng(6), 2)
    effect = MeasurementEffect.superposition(2, [(1, INV_SQRT2), (3, INV_SQRT2)])
    expected = np.array([(x[1] + x[3]) / 2, (y[1] + y[3]) / 2])
    assert np.allclose(probed_residual(state, effect), residual_probes(expected),
                       rtol=0, atol=1e-14)


def test_projection_orthogonal_gives_zero_probability():
    joint = np.zeros(8, dtype=complex)
    joint[0] = INV_SQRT2
    joint[4] = INV_SQRT2
    state = StateVector(3, joint)  # data support on |00> only
    assert np.array_equal(probed_residual(state, MeasurementEffect.basis(2, 3)), np.zeros(4))


def test_projection_dimension_mismatch():
    state, _, _ = random_branch_state(np.random.default_rng(7), 2)
    with pytest.raises(ValueError, match="effect spans 3 qubits, data register has 2"):
        effect_probability(state, MeasurementEffect.basis(3, 0), MeasurementEffect.basis(1, 0))
    # A one-qubit state holds the ancilla alone.
    with pytest.raises(ValueError, match="no data register"):
        effect_probability(
            StateVector(1, np.array([1.0, 0.0])),
            MeasurementEffect.basis(0, 0),
            MeasurementEffect.basis(1, 0),
        )
    with pytest.raises(ValueError, match="ancilla effect"):
        effect_probability(state, MeasurementEffect.basis(2, 0), MeasurementEffect.basis(2, 0))


def test_effect_requires_unit_norm():
    with pytest.raises(ValueError):
        MeasurementEffect.superposition(2, [(0, 1.0), (1, 1.0)])
    with pytest.raises(ValueError):
        MeasurementEffect.superposition(2, [(0, 0.5)])


def test_joint_probability_closed_forms():
    state, x, y = random_branch_state(np.random.default_rng(8), 2)
    p = effect_probability(state, MeasurementEffect.basis(2, 0), MeasurementEffect.basis(1, 1))
    assert abs(p - abs(y[0]) ** 2 / 2) < 1e-14
    pair = MeasurementEffect.superposition(2, [(1, INV_SQRT2), (3, INV_SQRT2)])
    p = effect_probability(state, pair, MeasurementEffect.basis(1, 1))
    assert abs(p - abs((y[1] + y[3]) / 2) ** 2) < 1e-14


def test_joint_probabilities_complete():
    state, _, _ = random_branch_state(np.random.default_rng(9), 3)
    total = 0.0
    for d in range(8):
        for a in range(2):
            total += effect_probability(
                state, MeasurementEffect.basis(3, d), MeasurementEffect.basis(1, a)
            )
    assert abs(total - 1.0) < 1e-10


def test_projection_completeness_over_orthonormal_set():
    state, _, _ = random_branch_state(np.random.default_rng(10), 2)
    effects = [
        MeasurementEffect.basis(2, 0),
        MeasurementEffect.basis(2, 2),
        MeasurementEffect.superposition(2, [(1, INV_SQRT2), (3, INV_SQRT2)]),
        MeasurementEffect.superposition(2, [(1, INV_SQRT2), (3, -INV_SQRT2)]),
    ]
    total = sum(probed_residual(state, e)[:2].sum() for e in effects)
    assert abs(total - 1.0) < 1e-10


# --- shot sampling ----------------------------------------------------------

def plus_state():
    return apply_gate(basis_state(2, 0), Hadamard(0))


def test_sample_effect_degenerate_zero():
    state = basis_state(2, 0)
    count, estimate = sample_effect(
        state, MeasurementEffect.basis(1, 1), MeasurementEffect.basis(1, 0), 500, 1
    )
    assert count == 0 and estimate == 0.0


def test_sample_effect_degenerate_one():
    state = basis_state(2, 0)
    count, estimate = sample_effect(
        state, MeasurementEffect.basis(1, 0), MeasurementEffect.basis(1, 0), 500, 1
    )
    assert count == 500 and estimate == 1.0


def test_sample_effect_deterministic_for_seed():
    state = plus_state()
    a = sample_effect(state, MeasurementEffect.basis(1, 0), MeasurementEffect.basis(1, 1), 1000, 42)
    b = sample_effect(state, MeasurementEffect.basis(1, 0), MeasurementEffect.basis(1, 1), 1000, 42)
    assert a == b


def test_sample_effect_rejects_no_shots():
    state = plus_state()
    with pytest.raises(ValueError):
        sample_effect(state, MeasurementEffect.basis(1, 0), MeasurementEffect.basis(1, 0), 0, 1)


def test_sample_effect_half_probability_tail():
    # p = 1/2 joint outcome; 10000 shots should land within +-0.02 of 1/2
    # for at least 99% of seeds (a 4-sigma binomial bound).
    state = plus_state()
    data = MeasurementEffect.basis(1, 0)
    anc = MeasurementEffect.basis(1, 0)
    p = effect_probability(state, data, anc)
    assert abs(p - 0.5) < 1e-14
    hits = 0
    for seed in range(1000):
        _, estimate = sample_effect(state, data, anc, 10000, seed)
        if abs(estimate - 0.5) <= 0.02:
            hits += 1
    assert hits >= 990


def test_sampling_error_shrinks_with_shots():
    state = plus_state()
    data = MeasurementEffect.basis(1, 0)
    anc = MeasurementEffect.basis(1, 1)
    exact = effect_probability(state, data, anc)
    mean_errors = []
    for shots in (10**2, 10**4, 10**6):
        errors = []
        within = 0
        for seed in range(100):
            _, estimate = sample_effect(state, data, anc, shots, seed)
            err = abs(estimate - exact)
            errors.append(err)
            if err < 5.0 / math.sqrt(shots):
                within += 1
        assert within >= 95
        mean_errors.append(np.mean(errors))
    assert mean_errors[0] > mean_errors[1] > mean_errors[2]
