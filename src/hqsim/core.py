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
* Circuits run in place on a ``(2, ..., 2, L)`` tensor whose last axis is a
  batch of registers, so each register is a column of a ``(2**Q, L)`` array
  and every kernel's inner loop runs along the batch; single states are a
  batch of one.  A :class:`Swap` moves no amplitude: it exchanges which
  tensor axes hold its two qubits, and the circuit's final relabelling is
  applied once, as one permuting copy.
* Measurement effects are sparse unit vectors on one subsystem; joint
  probabilities are squared overlaps, computed exactly or estimated from a
  seeded binomial draw.  They are the per-entry reference, within 1e-15 and
  not bit for bit, for the batched readout's exact probabilities in
  :mod:`hqsim.readout`.  They do not reproduce its sampled draws:
  :func:`sample_effect` makes a generator per entry, while the readout
  draws all entries of a node from one generator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "Hadamard",
    "PhaseShift",
    "ControlledPhase",
    "Swap",
    "GateOp",
    "StateVector",
    "MeasurementEffect",
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


# Shared by the transform and the search; not re-exported by the package.
def check_mode(mode: str, shots: int | None = None) -> int:
    """Validate a probability mode ("exact" or "sampled") and, where given,
    its shot count; returns the shots a sampled draw takes, 0 in exact mode."""
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and shots is not None and shots < 1:
        raise ValueError("sampled mode needs shots >= 1")
    return shots if mode == "sampled" else 0


def derive_seed(*key: int) -> int:
    """The seed of one work unit, from the master seed and the unit's key, so
    that a unit's draws do not depend on how the units are batched."""
    return int(np.random.SeedSequence(key).generate_state(1)[0])


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

    def apply(self, tensor: np.ndarray, axes: dict[int, int]) -> None:
        _apply_hadamard(tensor, axes[self.target])


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

    def apply(self, tensor: np.ndarray, axes: dict[int, int]) -> None:
        _apply_phase(tensor, [axes[self.target]], self.angle)


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

    def apply(self, tensor: np.ndarray, axes: dict[int, int]) -> None:
        _apply_phase(tensor, [axes[self.control], axes[self.target]], self.angle)


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

    def apply(self, tensor: np.ndarray, axes: dict[int, int]) -> None:
        # A relabelling: the two qubits trade the tensor axes that hold them.
        axes[self.a], axes[self.b] = axes[self.b], axes[self.a]


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


def _check_qubit(q: int, num_qubits: int) -> None:
    if not 0 <= q < num_qubits:
        raise ValueError(f"qubit index {q} out of range for {num_qubits} qubits")


def _apply_hadamard(tensor: np.ndarray, axis: int) -> None:
    """Write ``S*v0 + S*v1`` and ``S*v0 - S*v1``, ``S = 1/sqrt(2)``, into the
    |0> and |1> halves of one axis, in place."""
    v0, v1 = tensor.swapaxes(0, axis)  # writable views
    s0 = v0 * _INV_SQRT2
    v1 *= _INV_SQRT2
    np.add(s0, v1, out=v0)
    np.subtract(s0, v1, out=v1)


def _apply_phase(tensor: np.ndarray, axes_at_one, angle: float) -> None:
    """Multiply by exp(i*angle) where every listed axis is |1>, in place."""
    idx = [slice(None)] * tensor.ndim
    for ax in axes_at_one:
        idx[ax] = 1
    tensor[tuple(idx)] *= cmath.exp(1j * angle)


def apply_circuit_batch(columns: np.ndarray, circuit, control: int | None = None) -> None:
    """Apply a gate sequence, in place, to every column of a ``(2**Q, L)``
    C-contiguous complex array; each column is one ``Q``-qubit register.

    The columns are viewed as a ``(2, ..., 2, L)`` tensor whose last axis is
    the batch, so qubit ``q`` sits on axis ``q``.  Swaps only relabel which
    axis holds which qubit; once every gate has run, one permuting copy puts
    the qubits back in order.  With ``control`` set, every gate acts only on
    the branch where that qubit is |1>, and no gate may touch it.
    """
    if columns.ndim != 2 or not columns.flags.c_contiguous or columns.dtype != complex:
        raise ValueError("columns must be a C-contiguous (2**Q, L) complex array")
    num_qubits = columns.shape[0].bit_length() - 1
    if columns.shape[0] != 2**num_qubits or num_qubits < 1:
        raise ValueError(f"column length {columns.shape[0]} is not a power of two >= 2")
    if control is not None:
        _check_qubit(control, num_qubits)
    for gate in circuit:
        if len(set(gate.qubits)) != len(gate.qubits):
            raise ValueError(f"gate {gate!r} acts twice on one qubit")
        for q in gate.qubits:
            _check_qubit(q, num_qubits)
            if q == control:
                raise ValueError(f"gate {gate!r} touches the control qubit {control}")
    tensor = columns.reshape((2,) * num_qubits + (columns.shape[1],))
    if control is not None:
        tensor = tensor[(slice(None),) * control + (1,)]  # writable view
    # The tensor axis that holds each qubit; a swap exchanges two entries.
    qubits = [q for q in range(num_qubits) if q != control]
    axes = {q: axis for axis, q in enumerate(qubits)}
    for gate in circuit:
        gate.apply(tensor, axes)
    order = [axes[q] for q in qubits]
    if order != sorted(order):
        tensor[...] = tensor.transpose(order + [len(order)]).copy()


def _apply_to_state(state: StateVector, circuit, control: int | None = None) -> StateVector:
    columns = state.amplitudes.copy()[:, None]
    apply_circuit_batch(columns, circuit, control)
    return StateVector(state.num_qubits, columns[:, 0], state.unnormalized)


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
    """The dense unitary of a circuit: the circuit run once on the identity,
    whose columns are the basis states."""
    out = np.eye(2**num_qubits, dtype=complex)
    apply_circuit_batch(out, circuit)
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
