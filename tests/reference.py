"""Test-side stand-ins for what the package does not offer: each gate's
dense matrix, a circuit run on one state, gates re-targeted by a qubit
offset, the plain radix-2 transform, and a projection's ancilla residual
read through joint probabilities."""

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
