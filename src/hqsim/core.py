"""Exact statevector simulation of a small quantum register.

Conventions, fixed once and used everywhere:

* Qubit 0 is the most significant bit of the basis index, so for a register
  of ``Q`` qubits the basis state ``|j>`` puts qubit ``q`` at bit
  ``Q - 1 - q`` of ``j``.
* The transform circuit built here sends ``|j>`` to
  ``(1/sqrt(N)) * sum_k exp(+2*pi*i*k*j/N) |k>`` — note the plus sign.
* Each gate class (:class:`Hadamard`, :class:`PhaseShift`,
  :class:`ControlledPhase`, :class:`Swap`) carries everything about itself:
  the qubits it acts on (``qubits``), its dense unitary (``matrix()``), a
  copy re-targeted by a qubit offset (``shifted()``) and its in-place kernel
  on a register tensor (``apply()``).  Two-qubit matrices list the first
  qubit as the more significant one.
* Circuits run in place on an ``(L, 2, ..., 2)`` tensor whose leading axis
  is a batch of registers; single states are a batch of one.
* Measurement effects are sparse unit vectors on one subsystem; joint
  probabilities are squared overlaps, computed exactly or estimated from a
  seeded binomial draw.  They are the per-entry reference that the batched
  readout in :mod:`hqsim.readout` is tested against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "ResourceLimitError",
    "Hadamard",
    "PhaseShift",
    "ControlledPhase",
    "Swap",
    "GateOp",
    "StateVector",
    "MeasurementEffect",
    "new_basis_state",
    "apply_gate",
    "apply_circuit",
    "apply_circuit_batch",
    "build_qft_circuit",
    "apply_controlled_circuit",
    "circuit_matrix",
    "project_data_register",
    "effect_probability",
    "sample_effect",
]

MAX_QUBITS = 24

_NORM_TOL = 1e-12
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class ResourceLimitError(ValueError):
    """Requested register exceeds the configured qubit cap."""


@dataclass(frozen=True)
class Hadamard:
    target: int

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target,)

    def matrix(self) -> np.ndarray:
        return np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2

    def shifted(self, offset: int) -> "Hadamard":
        return Hadamard(self.target + offset)

    def apply(self, tensor: np.ndarray, axis_of) -> None:
        _apply_1q_axis(tensor, axis_of(self.target), self.matrix())


@dataclass(frozen=True)
class PhaseShift:
    target: int
    angle: float

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target,)

    def matrix(self) -> np.ndarray:
        return np.array([[1, 0], [0, cmath.exp(1j * self.angle)]], dtype=complex)

    def shifted(self, offset: int) -> "PhaseShift":
        return PhaseShift(self.target + offset, self.angle)

    def apply(self, tensor: np.ndarray, axis_of) -> None:
        _apply_phase(tensor, [axis_of(self.target)], self.angle)


@dataclass(frozen=True)
class ControlledPhase:
    control: int
    target: int
    angle: float

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.control, self.target)

    def matrix(self) -> np.ndarray:
        m = np.eye(4, dtype=complex)
        m[3, 3] = cmath.exp(1j * self.angle)
        return m

    def shifted(self, offset: int) -> "ControlledPhase":
        return ControlledPhase(self.control + offset, self.target + offset, self.angle)

    def apply(self, tensor: np.ndarray, axis_of) -> None:
        _apply_phase(tensor, [axis_of(self.control), axis_of(self.target)], self.angle)


@dataclass(frozen=True)
class Swap:
    a: int
    b: int

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.a, self.b)

    def matrix(self) -> np.ndarray:
        m = np.eye(4, dtype=complex)
        m[[1, 2]] = m[[2, 1]]
        return m

    def shifted(self, offset: int) -> "Swap":
        return Swap(self.a + offset, self.b + offset)

    def apply(self, tensor: np.ndarray, axis_of) -> None:
        _apply_swap(tensor, axis_of(self.a), axis_of(self.b))


GateOp = Hadamard | PhaseShift | ControlledPhase | Swap


@dataclass(eq=False)
class StateVector:
    """Dense complex amplitude vector of a quantum register.

    ``unnormalized`` marks projection residuals, the only states allowed to
    carry a norm other than one.
    """

    num_qubits: int
    amplitudes: np.ndarray
    unnormalized: bool = False

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got {self.amplitudes.shape}"
            )
        if not self.unnormalized:
            norm_sq = float(np.sum(np.abs(self.amplitudes) ** 2))
            if abs(norm_sq - 1.0) > 1e-9:
                raise ValueError(f"state norm**2 = {norm_sq}, expected 1")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def new_basis_state(num_qubits: int, index: int, max_qubits: int = MAX_QUBITS) -> StateVector:
    """Computational basis state ``|index>`` on ``num_qubits`` qubits."""
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    if num_qubits > max_qubits:
        raise ResourceLimitError(
            f"num_qubits={num_qubits} exceeds the cap of {max_qubits}"
        )
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def _check_qubit(q: int, num_qubits: int) -> None:
    if not 0 <= q < num_qubits:
        raise ValueError(f"qubit index {q} out of range for {num_qubits} qubits")


def _apply_1q_axis(tensor: np.ndarray, axis: int, m: np.ndarray) -> None:
    """Apply a 2x2 matrix along one tensor axis, in place."""
    v0 = tensor.take(0, axis=axis)
    v1 = tensor.take(1, axis=axis)
    idx = [slice(None)] * tensor.ndim
    idx[axis] = 0
    tensor[tuple(idx)] = m[0, 0] * v0 + m[0, 1] * v1
    idx[axis] = 1
    tensor[tuple(idx)] = m[1, 0] * v0 + m[1, 1] * v1


def _apply_phase(tensor: np.ndarray, axes_at_one, angle: float) -> None:
    """Multiply by exp(i*angle) where every listed axis is |1>, in place."""
    idx = [slice(None)] * tensor.ndim
    for ax in axes_at_one:
        idx[ax] = 1
    tensor[tuple(idx)] *= cmath.exp(1j * angle)


def _apply_swap(tensor: np.ndarray, ax_a: int, ax_b: int) -> None:
    """Exchange the |01> and |10> blocks of two axes, in place."""
    i01 = [slice(None)] * tensor.ndim
    i01[ax_a], i01[ax_b] = 0, 1
    i10 = [slice(None)] * tensor.ndim
    i10[ax_a], i10[ax_b] = 1, 0
    tmp = tensor[tuple(i01)].copy()
    tensor[tuple(i01)] = tensor[tuple(i10)]
    tensor[tuple(i10)] = tmp


def apply_circuit_batch(rows: np.ndarray, circuit, control: int | None = None) -> None:
    """Apply a gate sequence, in place, to every row of an ``(L, 2**Q)``
    C-contiguous complex array; each row is one ``Q``-qubit register.

    The rows are viewed as an ``(L, 2, ..., 2)`` tensor whose leading axis is
    the batch, so qubit ``q`` sits on axis ``q + 1``.  With ``control`` set,
    every gate acts only on the branch where that qubit is |1>, and no gate
    may touch it.
    """
    if rows.ndim != 2 or not rows.flags.c_contiguous or rows.dtype != complex:
        raise ValueError("rows must be a C-contiguous (L, 2**Q) complex array")
    num_qubits = rows.shape[1].bit_length() - 1
    if rows.shape[1] != 2**num_qubits or num_qubits < 1:
        raise ValueError(f"row length {rows.shape[1]} is not a power of two >= 2")
    if control is not None:
        _check_qubit(control, num_qubits)
    for gate in circuit:
        if len(set(gate.qubits)) != len(gate.qubits):
            raise ValueError(f"gate {gate!r} acts twice on one qubit")
        for q in gate.qubits:
            _check_qubit(q, num_qubits)
            if q == control:
                raise ValueError(f"gate {gate!r} touches the control qubit {control}")
    tensor = rows.reshape((rows.shape[0],) + (2,) * num_qubits)
    if control is None:
        view = tensor

        def axis_of(q: int) -> int:
            return q + 1
    else:
        idx = [slice(None)] * tensor.ndim
        idx[control + 1] = 1
        view = tensor[tuple(idx)]  # writable view of the control-on branch

        def axis_of(q: int) -> int:
            return q if q > control else q + 1

    for gate in circuit:
        gate.apply(view, axis_of)


def _apply_to_state(state: StateVector, circuit, control: int | None = None) -> StateVector:
    rows = state.amplitudes.copy()[None, :]
    apply_circuit_batch(rows, circuit, control)
    return StateVector(state.num_qubits, rows[0], state.unnormalized)


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Return the state with one gate applied; the input is untouched."""
    return _apply_to_state(state, [gate])


def apply_circuit(state: StateVector, circuit) -> StateVector:
    """Apply a gate sequence left to right."""
    return _apply_to_state(state, circuit)


def build_qft_circuit(n_q: int) -> list[GateOp]:
    """Gate sequence for the n_q-qubit transform with the +i phase sign.

    The sequence is a Hadamard per qubit, a controlled phase per qubit pair
    (n_q*(n_q-1)/2 of them) and floor(n_q/2) final order-reversing swaps.
    """
    if n_q < 1:
        raise ValueError(f"n_q must be >= 1, got {n_q}")
    gates: list[GateOp] = []
    for i in range(n_q):
        gates.append(Hadamard(i))
        for j in range(i + 1, n_q):
            angle = 2.0 * math.pi / 2 ** (j - i + 1)
            gates.append(ControlledPhase(control=j, target=i, angle=angle))
    for i in range(n_q // 2):
        gates.append(Swap(i, n_q - 1 - i))
    return gates


def apply_controlled_circuit(state: StateVector, control: int, circuit) -> StateVector:
    """Apply every gate of ``circuit`` conditioned on ``control`` being |1>.

    Gate indices refer to the full register; none may touch the control
    qubit.
    """
    return _apply_to_state(state, circuit, control)


def circuit_matrix(circuit, num_qubits: int) -> np.ndarray:
    """Assemble the dense unitary of a circuit column by column."""
    dim = 2**num_qubits
    out = np.empty((dim, dim), dtype=complex)
    for j in range(dim):
        out[:, j] = apply_circuit(new_basis_state(num_qubits, j), circuit).amplitudes
    return out


@dataclass(frozen=True, eq=False)
class MeasurementEffect:
    """Sparse unit vector on one subsystem: ``terms`` are (basis index,
    coefficient) pairs over a ``num_qubits``-wide register."""

    num_qubits: int
    terms: tuple[tuple[int, complex], ...]

    def __post_init__(self) -> None:
        dim = 2**self.num_qubits
        seen = set()
        norm_sq = 0.0
        for index, coeff in self.terms:
            if not 0 <= index < dim:
                raise ValueError(f"effect index {index} out of range (dim {dim})")
            if index in seen:
                raise ValueError(f"duplicate effect index {index}")
            seen.add(index)
            norm_sq += abs(coeff) ** 2
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(f"effect norm**2 = {norm_sq}, expected 1")

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> "MeasurementEffect":
        return cls(num_qubits, ((index, 1.0 + 0j),))

    @classmethod
    def superposition(cls, num_qubits: int, terms) -> "MeasurementEffect":
        return cls(num_qubits, tuple((int(i), complex(c)) for i, c in terms))

    def overlap_with(self, component: np.ndarray) -> complex:
        """<effect|component> for a dense vector on the same register."""
        if component.shape != (2**self.num_qubits,):
            raise ValueError("effect dimension mismatch")
        return complex(sum(np.conj(c) * component[i] for i, c in self.terms))


def project_data_register(
    state: StateVector, effect: MeasurementEffect
) -> tuple[StateVector, float]:
    """Project the data register (qubits 1..Q-1; qubit 0 is the ancilla).

    Returns the unnormalized residual over the ancilla and its squared norm,
    the probability of the projection outcome.
    """
    n_data = state.num_qubits - 1
    if n_data < 1:
        raise ValueError("state has no data register")
    if effect.num_qubits != n_data:
        raise ValueError(
            f"effect spans {effect.num_qubits} qubits, data register has {n_data}"
        )
    blocks = state.amplitudes.reshape(2, 2**n_data)
    residual = np.zeros(2, dtype=complex)
    for index, coeff in effect.terms:
        residual += np.conj(coeff) * blocks[:, index]
    probability = float(np.sum(np.abs(residual) ** 2))
    return StateVector(1, residual, unnormalized=True), probability


def effect_probability(
    state: StateVector,
    data_effect: MeasurementEffect,
    ancilla_effect: MeasurementEffect,
) -> float:
    """Joint probability of a data projection together with an ancilla
    outcome: ``|<ancilla| x <data| state>|**2``."""
    if ancilla_effect.num_qubits != 1:
        raise ValueError("ancilla effect must span exactly one qubit")
    residual, _ = project_data_register(state, data_effect)
    amp = ancilla_effect.overlap_with(residual.amplitudes)
    return float(abs(amp) ** 2)


def sample_effect(
    state: StateVector,
    data_effect: MeasurementEffect,
    ancilla_effect: MeasurementEffect,
    shots: int,
    seed: int,
) -> tuple[int, float]:
    """Finite-shot estimate of a joint probability.

    Draws one binomial with the exact probability as success rate; the draw
    is deterministic for a fixed seed.  Returns (count, count/shots).
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = effect_probability(state, data_effect, ancilla_effect)
    p = min(max(p, 0.0), 1.0)
    rng = np.random.default_rng(seed)
    count = int(rng.binomial(shots, p))
    return count, count / shots
