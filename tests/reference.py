"""Test-side stand-ins for what the package does not offer: each gate's
dense matrix, a circuit run on one state, an in-place circuit runner that
the out-of-place one must match bit for bit, gates re-targeted by a qubit
offset, the plain radix-2 transform, the readout's sign rebuild written with
a masked negation, and a projection's ancilla residual read through joint
probabilities."""

import cmath
import dataclasses
import math

import numpy as np

from hqsim.core import (
    ControlledPhase,
    Hadamard,
    MeasurementEffect,
    PhaseShift,
    StateVector,
    Swap,
    apply_circuit_batch,
    effect_probability,
)
from hqsim.hybrid_fft import _combine_levels
from hqsim.readout import _work_arrays

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def gate_matrix(gate):
    """The dense unitary of one gate on its own qubits, from the gate's
    definition; a two-qubit matrix lists the first qubit as the more
    significant one."""
    if isinstance(gate, Hadamard):
        return np.array([[1, 1], [1, -1]], dtype=complex) * INV_SQRT2
    if isinstance(gate, PhaseShift):
        return np.array([[1, 0], [0, cmath.exp(1j * gate.angle)]], dtype=complex)
    m = np.eye(4, dtype=complex)
    if isinstance(gate, ControlledPhase):
        m[3, 3] = cmath.exp(1j * gate.angle)
    elif isinstance(gate, Swap):
        m[[1, 2]] = m[[2, 1]]
    else:
        raise TypeError(f"unknown gate {gate!r}")
    return m


def apply_circuit(state, circuit):
    """The state with a gate sequence applied, left to right: a batch of one
    column through :func:`apply_circuit_batch`."""
    columns = state.amplitudes.copy()[:, None]
    apply_circuit_batch(columns, circuit)
    return StateVector(state.num_qubits, columns[:, 0])


def compile_in_place(num_qubits, circuit):
    """A valid circuit compiled for :func:`run_in_place`: ``(steps, rows,
    scale)``, where each step is ``(at_zero, at_one, diagonal)``, indices of a
    ``(2, ..., 2, L)`` tensor whose axes never move.  A Hadamard has no
    diagonal; a run of phase gates between two Hadamards multiplies the slice
    where their common axes are |1> by the sum of their phases over the rest.
    Logical row ``r`` ends at row ``rows[r]``, short of ``scale``."""
    axes = list(range(num_qubits))  # the axis holding each qubit
    steps, run, hadamards = [], [], 0

    def diagonal_step():
        common = set.intersection(*(needed for needed, _ in run))
        kept = [axis for axis in range(num_qubits) if axis not in common]
        touched = set().union(*(needed for needed, _ in run))
        phase = np.zeros([2 if axis in touched else 1 for axis in kept] + [1])
        for needed, angle in run:
            phase[tuple(slice(1, None) if axis in needed else slice(None) for axis in kept)] += angle
        at_one = tuple(1 if axis in common else slice(None) for axis in range(num_qubits))
        return None, at_one, np.exp(phase * 1j)

    for gate in circuit:
        if isinstance(gate, Swap):
            axes[gate.a], axes[gate.b] = axes[gate.b], axes[gate.a]
        elif isinstance(gate, Hadamard):
            if run:
                steps.append(diagonal_step())
                run = []
            head = (slice(None),) * axes[gate.target]
            steps.append((head + (0,), head + (1,), None))
            hadamards += 1
        else:
            run.append(({axes[q] for q in gate.qubits}, gate.angle))
    if run:
        steps.append(diagonal_step())
    rows = np.arange(2**num_qubits).reshape((2,) * num_qubits).transpose(axes).ravel()
    return steps, rows, math.ldexp(INV_SQRT2 if hadamards % 2 else 1.0, -(hadamards // 2))


def run_in_place(columns, steps):
    """Run the steps of :func:`compile_in_place`, in place, on every column
    of a ``(2**Q, L)`` C-contiguous complex array: each butterfly on the
    interleaved halves of its qubit's axis."""
    tensor = columns.reshape((2,) * (columns.shape[0].bit_length() - 1) + (columns.shape[1],))
    for at_zero, at_one, diagonal in steps:
        v1 = tensor[at_one]  # writable views
        if diagonal is None:
            v0 = tensor[at_zero]
            v0 += v1
            v1 *= -2.0
            v1 += v0
        else:
            v1 *= diagonal


def apply_in_place(columns, circuit):
    """:func:`hqsim.core.apply_circuit_batch` through the in-place runner."""
    steps, rows, scale = compile_in_place(columns.shape[0].bit_length() - 1, circuit)
    run_in_place(columns, steps)
    columns[...] = columns[rows] * scale


def flip_signs(values, negative):
    """The sign flip of the readout's rebuild as a masked negation of
    ``values`` where ``negative`` holds."""
    np.negative(values, out=values, where=negative)
    return values


def signed_parts(schedule, a, magnitude, reference, eps):
    """Each projector's signed part, ``(N, L)``, and the mask of parts left
    to the classical fallback, by the readout's rebuild with a masked sign
    flip: ``|b| = sqrt(2*m)``, the sign of the hypothesis ``(a + s|b|)**2 /
    4`` nearest the reference entry, a tie going to the plus sign."""
    b_abs = np.sqrt(2.0 * np.maximum(magnitude, 0.0))
    plus, minus = np.square(a + b_abs) / 4.0, np.square(a - b_abs) / 4.0
    negative = np.abs(reference - plus) > np.abs(reference - minus)
    values = flip_signs(b_abs * schedule.scales[:, None], negative)
    return values, (np.abs(a) < eps) & (b_abs >= eps)


def shifted(gate, offset):
    """A copy of ``gate`` acting on the qubits ``offset`` higher."""
    qubits = {f.name: getattr(gate, f.name) + offset
              for f in dataclasses.fields(gate) if f.name != "angle"}
    return dataclasses.replace(gate, **qubits)


def classical_fft(signal, ledger=None):
    """The plain radix-2 transform: the butterfly levels alone, on the
    single-sample leaves in natural order."""
    return _combine_levels(signal.values.astype(complex)[None, :], None, ledger,
                           _work_arrays(signal.size))


# Ancilla outcomes whose probabilities fix a residual (r0, r1) up to its
# global phase: |r0|**2, |r1|**2, |r0 + r1|**2 / 2 and |r0 - i*r1|**2 / 2.
ANCILLA_PROBES = (
    MeasurementEffect.basis(1, 0),
    MeasurementEffect.basis(1, 1),
    MeasurementEffect.superposition(1, [(0, INV_SQRT2), (1, INV_SQRT2)]),
    MeasurementEffect.superposition(1, [(0, INV_SQRT2), (1, 1j * INV_SQRT2)]),
)


def probed_residual(state, data_effect):
    """The joint probabilities of ``data_effect`` with each ancilla probe."""
    return np.array([effect_probability(state, data_effect, a) for a in ANCILLA_PROBES])


def residual_probes(residual):
    """The probe probabilities that the ancilla residual ``residual`` gives."""
    return np.array([abs(a.overlap_with(residual)) ** 2 for a in ANCILLA_PROBES])
