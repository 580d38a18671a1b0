"""Exact statevector simulation of a small quantum register.

Conventions, fixed once and used everywhere:

* Qubit 0 is the most significant bit of the basis index, so for a register
  of ``Q`` qubits the basis state ``|j>`` puts qubit ``q`` at bit
  ``Q - 1 - q`` of ``j``.
* The transform circuit built here sends ``|j>`` to
  ``(1/sqrt(N)) * sum_k exp(+2*pi*i*k*j/N) |k>`` — note the plus sign.
* Each gate class (:class:`Hadamard`, :class:`PhaseShift`,
  :class:`ControlledPhase`, :class:`Swap`) carries the qubits it acts on
  (``qubits``); its action is defined by the compiled step below, and
  :func:`circuit_matrix` gives it as a dense unitary.
* Circuits run on the columns of a ``(2**Q, L)`` array, one register each,
  compiled into a plan of steps per call here and once per node size in the
  readout's kept work arrays.  A Hadamard is an unnormalized butterfly, out
  of place: it reads its qubit's two halves from one buffer and writes them
  as the last axis of the other (Stockham order), so in the transform
  circuit each qubit's halves are contiguous.  The phase gates between two
  Hadamards are one multiply by a precomputed diagonal; a :class:`Swap`
  only relabels axes.  The result lands as an ``(L, 2**Q)`` array, and its
  relabelling and the Hadamards' 1/sqrt(2) factors are applied once, as one
  permuting copy, or folded by the caller into what it reads.
* Measurement effects are sparse unit vectors on one subsystem; joint
  probabilities are squared overlaps, computed exactly or estimated from a
  seeded binomial draw.  They are the per-entry reference, within 1e-15 and
  not bit for bit, for the batched readout's exact probabilities in
  :mod:`hqsim.readout`.  They do not reproduce its sampled draws:
  :func:`sample_effect` seeds a generator per entry, while the readout
  draws all entries of a node from the node's own Philox stream.
* Sampled units (a transform's leaf, a search's node call) draw from
  counter-based streams (Salmon et al., "Parallel random numbers: as easy
  as 1, 2, 3", SC'11): key ``k < 2**128`` is ``Philox(key=k)``'s stream.
  :func:`run_key` puts a run's master seed above 64 unit-index bits, and
  :func:`unit_streams` resets one bit generator per call to each key.
"""

from __future__ import annotations

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
    "apply_circuit_batch",
    "build_qft_circuit",
    "apply_controlled_circuit",
    "circuit_matrix",
    "effect_probability",
    "sample_effect",
]

MAX_QUBITS = 24

_NORM_TOL = 1e-12
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


# Shared by the transform and the search; not re-exported by the package.
def check_seed(value, name: str, bits: int | None = None) -> int:
    """``value`` as an int; ``ValueError`` naming ``name`` unless it is an
    integer from 0, and below ``2**bits`` when ``bits`` is given."""
    whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not whole or value < 0 or bits and int(value) >> bits:
        bound = f"2**{bits}" if bits else "inf"
        raise ValueError(f"{name} must be an integer in [0, {bound}), got {value!r}")
    return int(value)


def run_key(master_seed: int) -> int:
    """The high word of every unit key of a run: one ``SeedSequence`` word of
    ``master_seed``, above the 64 bits that index the unit."""
    return int(np.random.SeedSequence(master_seed).generate_state(1, np.uint64)[0]) << 64


def unit_streams(keys):
    """Yield, for each key, one Generator on one Philox bit generator reset to
    the start of that key's stream, which draws as ``Generator(Philox(key=key))``."""
    bits = np.random.Philox(0)
    generator, state = np.random.Generator(bits), bits.state  # counter 0, buffer empty
    for key in keys:
        state["state"]["key"] = (key & (2**64 - 1), key >> 64)
        bits.state = state
        yield generator


@dataclass(frozen=True)
class Hadamard:
    target: int

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target,)


@dataclass(frozen=True)
class PhaseShift:
    target: int
    angle: float

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target,)


@dataclass(frozen=True)
class ControlledPhase:
    control: int
    target: int
    angle: float

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.control, self.target)


@dataclass(frozen=True)
class Swap:
    a: int
    b: int

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.a, self.b)


GateOp = Hadamard | PhaseShift | ControlledPhase | Swap


@dataclass(eq=False)
class StateVector:
    """Dense complex amplitude vector of a quantum register, of norm one."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got {self.amplitudes.shape}"
            )
        norm_sq = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(norm_sq - 1.0) > 1e-9:
            raise ValueError(f"state norm**2 = {norm_sq}, expected 1")


def _check_qubit(q: int, num_qubits: int) -> None:
    if not 0 <= q < num_qubits:
        raise ValueError(f"qubit index {q} out of range for {num_qubits} qubits")


def _diagonal_step(run: list, order: list) -> tuple:
    """The step of a run of phase gates, each given as (the wires it needs at
    |1>, its angle), on axes holding the wires in ``order``: the sum of their
    phases over the wires it touches, where the wires all gates need are |1>."""
    common = set.intersection(*(wires for wires, _ in run))
    kept = [wire for wire in order if wire not in common]
    touched = set().union(*(wires for wires, _ in run))
    phase = np.zeros([2 if wire in touched else 1 for wire in kept])
    for wires, angle in run:
        phase[tuple(slice(1, None) if wire in wires else slice(None) for wire in kept)] += angle
    shape = tuple(-1 if wire == len(order) - 1 else 2 for wire in order)
    at_one = tuple(1 if wire in common else slice(None) for wire in order)
    diagonal = phase * 1j
    return shape, at_one, np.exp(diagonal, out=diagonal)


# Shared with the readout; not re-exported by the package.
def compile_circuit(num_qubits: int, circuit) -> tuple:
    """Validate a circuit and compile it into ``(steps, rows, scale)``.

    The state has an axis per wire: wire ``q`` holds qubit ``q`` at first,
    and wire ``Q``, the batch, is last.  A Hadamard is the butterfly step
    ``(shape, out_shape, None)``: it reads the halves of its wire's axis and
    writes them as the last axis.  The phase gates between two Hadamards are
    one step, ``(shape, at_one, diagonal)``, a multiply of the slice where
    their common wires are |1> by a diagonal laid out for the axes of that
    point.  A swap exchanges which wires hold two qubits.  A last step with
    a two-axis ``shape`` moves the wires no Hadamard moved behind the batch,
    so logical row ``r`` of register ``l`` ends at ``[l, rows[r]]`` of the
    ``(L, 2**Q)`` result, short of the Hadamards' 1/sqrt(2) factors, ``scale``.
    """
    wires = list(range(num_qubits))  # the wire holding each qubit
    order = list(range(num_qubits + 1))  # the wire on each tensor axis
    steps, run, hadamards = [], [], 0
    for gate in circuit:
        if len(set(gate.qubits)) != len(gate.qubits):
            raise ValueError(f"gate {gate!r} acts twice on one qubit")
        for q in gate.qubits:
            _check_qubit(q, num_qubits)
        if isinstance(gate, Swap):
            wires[gate.a], wires[gate.b] = wires[gate.b], wires[gate.a]
        elif isinstance(gate, Hadamard):
            if run:
                steps.append(_diagonal_step(run, order))
                run = []
            axis = order.index(wires[gate.target])
            head, tail = (-1, 2 ** (num_qubits - axis)) if order.index(num_qubits) < axis else (2**axis, -1)
            steps.append(((head, 2, tail), (head, tail, 2), None))
            order.append(order.pop(axis))
            hadamards += 1
        elif isinstance(gate, (PhaseShift, ControlledPhase)):
            run.append(({wires[q] for q in gate.qubits}, gate.angle))
        else:
            raise TypeError(f"unknown gate {gate!r}")
    if run:
        steps.append(_diagonal_step(run, order))
    if unmoved := order.index(num_qubits):
        steps.append(((2**unmoved, -1), (-1, 2**unmoved), None))
        order = order[unmoved:] + order[:unmoved]
    position = [order.index(wire) - 1 for wire in wires]
    rows = np.arange(2**num_qubits).reshape((2,) * num_qubits).transpose(position).ravel()
    rows.flags.writeable = False  # shared by every caller of a kept plan
    return tuple(steps), rows, math.ldexp(_INV_SQRT2 if hadamards % 2 else 1.0, -(hadamards // 2))


# Shared with the readout; not re-exported by the package.
def run_circuit(columns: np.ndarray, spare: np.ndarray, steps: tuple) -> np.ndarray:
    """Run the steps of a compiled circuit (:func:`compile_circuit`) on every
    column of a ``(2**Q, L)`` C-contiguous complex array, ping-ponging with
    the like array ``spare``: the circuit but for its final relabelling and
    its normalization, as an ``(L, 2**Q)`` view of the array written last."""
    N, L = columns.shape
    for shape, at, diagonal in steps if L else ():  # an empty batch leaves -1 unknown
        if diagonal is not None:
            columns.reshape(shape)[at] *= diagonal
            continue
        halves, out = columns.reshape(shape), spare.reshape(at)
        if halves.ndim == 2:  # the wires no Hadamard moved go behind the batch
            out[...] = halves.T
        else:  # |1> rounds once, as |0> - |1>, as in the in-place runner the tests keep
            v0, v1 = halves[:, 0], halves[:, 1]
            np.add(v0, v1, out=out[..., 0])
            np.subtract(v0, v1, out=out[..., 1])
        columns, spare = spare, columns
    return columns.reshape(L, N)


def apply_circuit_batch(columns: np.ndarray, circuit) -> None:
    """Apply a gate sequence, in place, to every column of a ``(2**Q, L)``
    C-contiguous complex array; each column is one ``Q``-qubit register.

    The gates are compiled per call.  Once :func:`run_circuit` has run them,
    one permuting copy puts the qubits and columns back in order and applies
    the normalization.
    """
    if columns.ndim != 2 or not columns.flags.c_contiguous or columns.dtype != complex:
        raise ValueError("columns must be a C-contiguous (2**Q, L) complex array")
    num_qubits = columns.shape[0].bit_length() - 1
    if columns.shape[0] != 2**num_qubits or num_qubits < 1:
        raise ValueError(f"column length {columns.shape[0]} is not a power of two >= 2")
    steps, rows, scale = compile_circuit(num_qubits, circuit)
    columns[...] = run_circuit(columns, np.empty_like(columns), steps).T[rows] * scale


def _apply_to_state(state: StateVector, circuit) -> StateVector:
    columns = state.amplitudes.copy()[:, None]
    apply_circuit_batch(columns, circuit)
    return StateVector(state.num_qubits, columns[:, 0])


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Return the state with one gate applied; the input is untouched."""
    return _apply_to_state(state, [gate])


def build_qft_circuit(n_q: int) -> list[GateOp]:
    """Gate sequence for the n_q-qubit transform with the +i phase sign.

    The sequence is a Hadamard per qubit, a controlled phase per qubit pair
    (n_q*(n_q-1)/2 of them) and floor(n_q/2) final order-reversing swaps.
    Every call builds a new list; the readout builds and compiles it once
    per node size and kept work arrays.
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
    qubit.  Since no gate touches it, the circuit runs on the whole register
    and the control-off half is then restored from the input.
    """
    _check_qubit(control, state.num_qubits)
    circuit = tuple(circuit)
    for gate in circuit:
        if control in gate.qubits:
            raise ValueError(f"gate {gate!r} touches the control qubit {control}")
    out = _apply_to_state(state, circuit)
    halves = (2**control, 2, -1)  # axis 1 is the control qubit
    out.amplitudes.reshape(halves)[:, 0] = state.amplitudes.reshape(halves)[:, 0]
    return out


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


def effect_probability(
    state: StateVector,
    data_effect: MeasurementEffect,
    ancilla_effect: MeasurementEffect,
) -> float:
    """Joint probability of a data projection together with an ancilla
    outcome: ``|<ancilla| x <data| state>|**2``.

    The data register is qubits 1..Q-1 and qubit 0 is the ancilla.
    Projecting the data register on ``data_effect`` leaves an unnormalized
    residual over the ancilla, which ``ancilla_effect`` then reads.
    """
    if ancilla_effect.num_qubits != 1:
        raise ValueError("ancilla effect must span exactly one qubit")
    n_data = state.num_qubits - 1
    if n_data < 1:
        raise ValueError("state has no data register")
    if data_effect.num_qubits != n_data:
        raise ValueError(
            f"effect spans {data_effect.num_qubits} qubits, data register has {n_data}"
        )
    blocks = state.amplitudes.reshape(2, 2**n_data)
    residual = np.zeros(2, dtype=complex)
    for index, coeff in data_effect.terms:
        residual += np.conj(coeff) * blocks[:, index]
    amp = ancilla_effect.overlap_with(residual)
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
