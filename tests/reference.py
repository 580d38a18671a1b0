"""Test-side stand-ins for what the package does not offer: each gate's
dense matrix, a circuit run on one state, an in-place circuit runner that
the out-of-place one must match bit for bit, gates re-targeted by a qubit
offset, the plain radix-2 transform level by level, the readout's node
stage read through the schedule's per-projector index maps, which its pair
form and its output must match bit for bit, the readout's sign rebuild written with a
masked negation, a fallback coefficient read from numpy's inverse FFT, a
projection's ancilla residual read through joint probabilities, and the
documented Philox key of a sampled unit."""

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
from hqsim.hybrid_fft import SpectrumVector

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
            difference = v0 - v1
            v0 += v1
            v1[...] = difference
        else:
            v1 *= diagonal


def apply_in_place(columns, circuit):
    """:func:`hqsim.core.apply_circuit_batch` through the in-place runner."""
    steps, rows, scale = compile_in_place(columns.shape[0].bit_length() - 1, circuit)
    run_in_place(columns, steps)
    columns[...] = columns[rows] * scale


def schedule_references(schedule, x):
    """The classical reference ``(x_i + sign * x_j) * scale`` of every
    projector of every column of ``x``, ``(N, L)``, through the schedule's
    index maps: the sum before the weight."""
    first, second = schedule.indices.T
    return (x[first] + x[second] * schedule.signs[:, None]) * schedule.scales[:, None]


def schedule_projections(schedule, rows, scale, result):
    """Overlap of every register with every data projector, ``(N, L)``, from
    a compiled circuit's ``(L, N)`` result, whose logical row ``r`` is at
    ``rows[r]`` short of ``scale``: each projector weights its two rows
    before their sum."""
    columns = result.T
    first, second = rows[schedule.indices.T]
    weights = schedule.scales * (INV_SQRT2 * scale)
    return columns[first] * weights[:, None] + columns[second] * (weights * schedule.signs)[:, None]


def schedule_entries(schedule, a, projections):
    """The exact magnitude and reference entries, ``(N, L)`` each, of
    projectors whose classical references are ``a`` and whose control-on
    overlaps are ``projections``: the squared ancilla residual ``|r1|**2``
    and ``|r0/sqrt(2) + w*r1|**2`` with ``r0 = a/sqrt(2)`` and ``w`` the
    conjugate of ``e^{i*ancilla_phase}/sqrt(2)``."""
    ancilla = np.exp(-1j * schedule.ancilla_phase) * INV_SQRT2
    ref = ancilla[:, None] * projections
    ref.real += 0.5 * a
    return tuple(np.square(z.real) + np.square(z.imag) for z in (projections, ref))


def schedule_coefficients(schedule, values):
    """Coefficients ``0 .. N/2`` from ``(N, L)`` per-projector values: each
    projector's value goes to the real or imaginary part of the coefficient
    it yields, and the self-conjugate ones have imaginary part +0."""
    N, L = values.shape
    parts = np.zeros((N // 2 + 1, L, 2))
    parts[schedule.coefficient, :, schedule.imaginary.astype(np.intp)] = values
    return parts.view(complex)[..., 0]


def schedule_spectrum(schedule, values, scale):
    """A node's output from ``(N, L)`` per-projector values: the
    coefficients, those above N/2 the conjugates of those below, each
    column's then multiplied by its ``scale`` as a complex number."""
    N = values.shape[0]
    coefficients = np.empty(values.shape, complex)
    coefficients[: N // 2 + 1] = schedule_coefficients(schedule, values)
    coefficients[N // 2 + 1 :] = np.conjugate(coefficients[N // 2 - 1 : 0 : -1])
    return coefficients * (scale + 0j)


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


def bit_reversal(count):
    """Bit-reversed order of ``range(count)``, a power of two."""
    bits = count.bit_length() - 1
    return np.array([int(format(i, f"0{bits}b")[::-1], 2) if bits else 0 for i in range(count)])


def two_product_level(spec, stderr, roots):
    """Reference radix-2 level, one product per output coefficient:
    ``y_k = even[k % h] + roots[k] * odd[k % h]``."""
    pairs, h = spec.shape[0] // 2, spec.shape[1]
    spec = (spec[0::2, None, :] + roots.reshape(2, h) * spec[1::2, None, :]).reshape(pairs, 2 * h)
    if stderr is not None:
        half = np.sqrt(stderr[0::2] ** 2 + stderr[1::2] ** 2)
        stderr = np.concatenate([half, half], axis=1)
    return spec, stderr


def classical_fft(signal, ledger=None):
    """The plain radix-2 transform: the single-sample leaves in bit-reversed
    order, combined by :func:`two_product_level` one level at a time, one
    classical op per output coefficient per level."""
    N = signal.size
    spec = signal.values.astype(complex)[bit_reversal(N), None]
    roots = np.exp(2j * np.pi * np.arange(N) / N)
    while spec.shape[0] > 1:
        spec, _ = two_product_level(spec, None, roots[:: spec.shape[0] // 2])
        if ledger is not None:
            ledger.classical_ops += N
    return SpectrumVector(spec[0])


def transformed_coefficient(normalized, k):
    """Amplitude-level coefficient ``k`` of one normalized column from one
    unnormalized inverse FFT, as a leaf with more fallbacks than qubits
    computes it."""
    return complex((np.fft.ifft(normalized, norm="forward") / math.sqrt(normalized.size))[k])


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


def unit_key(master_seed, index):
    """The documented Philox key of a sampled unit: one 64-bit
    ``SeedSequence`` word of the master seed times 2**64, plus the unit's
    index (leaf ``r``: ``r``; call ``c`` of sublist ``r``: ``r * 2**32 + c``)."""
    word = np.random.SeedSequence(master_seed).generate_state(1, np.uint64)[0]
    return int(word) * 2**64 + int(index)
