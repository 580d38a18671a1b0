"""Quantum-node readout of a real block's full complex spectrum.

A real block of length ``N = 2**n_q`` is amplitude-encoded on the data
register, an ancilla is put into ``(|0> + |1>)/sqrt(2)`` and the transform
circuit runs controlled on it, producing ``(|0>|X> + |1>|Y>)/sqrt(2)``.
Projecting the data register on

* ``|0>`` and ``|N/2>`` (the two self-conjugate indices), and
* ``(|k> + |N-k>)/sqrt(2)``, ``(|k> - |N-k>)/sqrt(2)`` for ``k < N/2``

leaves an ancilla residual ``(a|0> + b|1>)/sqrt(2)`` whose ``|1>`` component
carries, respectively, a self-conjugate coefficient, ``sqrt(2)`` times the
real part, or ``i*sqrt(2)`` times the imaginary part of coefficient ``k``.
Each projector gets two measurement entries: a *magnitude* entry (ancilla
``|1>``) fixing ``|b|``, and a *reference* entry (ancilla
``(|0> + e^{i*phi}|1>)/sqrt(2)``, ``phi = pi/2`` for the minus projectors)
whose value depends on the sign of ``b`` relative to the classically known
``a``.  The sign is then recovered by nearest-hypothesis selection, and the
conjugate coefficient comes for free, so the output is Hermitian-symmetric
by construction.

All stored values are joint probabilities of (projection, ancilla outcome).
When the classical reference ``a`` is too small to separate the two sign
hypotheses, that single coefficient is computed classically instead and the
fallback is charged to the ledger.

The layout above is defined once, by :func:`build_schedule`: a
:class:`ReadoutSchedule` holds it as arrays, one row per projector (the
basis indices and weights it reads, the coefficient part it yields and its
reference ancilla phase).  The node stage is batched: :func:`evaluate_nodes`
takes every block of a run as a column of one ``(2**n_q, L)`` array, runs the
circuit on all of them at once (:mod:`hqsim.core`) and reads every projector
of every block as a row, through the plan's row maps, so no effect objects
are built per entry.  The ancilla's
control-off branch is the encoded block itself, so only the control-on
branch is simulated; its projections read through the circuit's final
relabelling, with the circuit's normalization folded into the projector
weights: the node stage copies the circuit's ``(L, N)`` result back to
``(N, L)`` order once, and neither permutes nor rescales it.
:func:`execute_schedule` and :func:`rebuild_phases` are batch-of-one
wrappers round the same code; their :class:`ReadoutRecord` holds a block's
magnitude and reference entries as two arrays in projector order.  A block
is a :class:`RealSignal`, the type the transform takes for a whole signal,
and ``shots`` alone picks the readout: 0 is exact, a positive count is
sampled mode.

Every step of the node stage writes into work arrays, and so do the
transform's butterfly levels (:mod:`hqsim.hybrid_fft`): one object holds,
per sample of the signal, four complex arrays that double as float pairs,
a float temporary and two masks, 74 bytes in all, which the steps reuse in
order of liveness.  It also holds the root table that the levels read
and each node size's plan (schedule, circuit, constants), built once.
It is all the transform keeps between calls, and it is kept for the last
signal size only, up to 2**16 samples; a larger transform builds its own
per call.  Only sampled mode's draws and standard errors are allocated per
call, and every returned array is new.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    StateVector,
    build_qft_circuit,
    compile_circuit,
    run_circuit,
)
from .costs import CostLedger

__all__ = [
    "RealSignal",
    "ReadoutSchedule",
    "ReadoutRecord",
    "SpectrumEstimate",
    "prepare_block_state",
    "build_schedule",
    "evaluate_nodes",
    "execute_schedule",
    "rebuild_phases",
    "rescale_to_dft",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Exact mode's sign-test threshold: a classical reference ``|a|`` below it
# does not separate the two sign hypotheses (see _rebuild).
EPS_REF_EXACT = 1e-9


@dataclass(eq=False)
class RealSignal:
    """Real samples, length ``2**n``: a whole signal, or one block of it that
    a node reads."""

    values: np.ndarray

    @classmethod
    def from_values(cls, values) -> "RealSignal":
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size < 1 or vals.size & (vals.size - 1):
            raise ValueError(f"signal length must be a power of two, got {vals.shape}")
        return cls(vals)

    @property
    def n(self) -> int:
        return self.size.bit_length() - 1

    @property
    def size(self) -> int:
        return int(self.values.size)

    @property
    def norm(self) -> float:
        """The Euclidean norm of ``values``, computed as the batched node
        stage computes it."""
        return float(_column_norms(np.ascontiguousarray(self.values)[None, :])[0])


@dataclass(frozen=True, eq=False)
class ReadoutSchedule:
    """The readout layout, one row per data projector in measurement order:
    index 0, index N/2, then the plus and minus projector of each pair
    ``(k, N-k)`` for ``k = 1 .. N/2-1``.  Each projector has two entries, a
    magnitude and a reference one.

    Projector ``p`` is ``scales[p] * (|i> + signs[p] * |j>)`` with
    ``(i, j) = indices[p]``: a self-conjugate projector repeats its index
    with sign 0, a pair projector has sign +1 or -1 and scale 1/sqrt(2).  It
    yields the real part (``imaginary[p]`` False) or the imaginary part of
    coefficient ``i``, and its reference entry measures the ancilla on
    ``(|0> + e^{i*ancilla_phase[p]}|1>)/sqrt(2)``.
    """

    n_q: int
    indices: np.ndarray
    signs: np.ndarray
    scales: np.ndarray
    imaginary: np.ndarray
    ancilla_phase: np.ndarray

    @property
    def coefficient(self) -> np.ndarray:
        """The transform coefficient each projector yields a part of."""
        return self.indices[:, 0]


@dataclass(eq=False)
class ReadoutRecord:
    """Measured joint probabilities of one block: ``magnitude[p]`` and
    ``reference[p]`` are the two entries of projector ``p``, ``(N,)`` arrays
    in projector order, estimated from ``shots`` draws, or exact when
    ``shots`` is 0."""

    schedule: ReadoutSchedule
    magnitude: np.ndarray
    reference: np.ndarray
    shots: int


@dataclass(eq=False)
class SpectrumEstimate:
    """Reconstructed coefficients at amplitude level plus the factor that
    restores the unnormalized transform values."""

    coefficients: np.ndarray
    scale: float
    ambiguous: frozenset
    classical_fallbacks: int
    stderr: np.ndarray | None = None


def prepare_block_state(block: RealSignal, ledger: CostLedger | None = None) -> StateVector:
    """Amplitude-encode a block on the data register.

    Charges ``n_q**2 * 2**n_q`` state-prep units; a zero block cannot be
    normalized and must be short-circuited by the caller.
    """
    normalized = _encode(block.values[:, None], np.array([block.norm]), ledger, np.empty((block.size, 1)))
    return StateVector(block.n, normalized[:, 0])


def build_schedule(n_q: int) -> ReadoutSchedule:
    """Projection/measurement schedule for a ``2**n_q``-point readout.

    Exactly ``N`` pairwise orthogonal data projectors with two entries each:
    the self-conjugate indices 0 and N/2 plus a conjugate pair (+, -) per
    index below N/2.  Its arrays are read-only: the node stage keeps one
    schedule per node size in its work arrays and shares it with every
    call.
    """
    if n_q < 1:
        raise ValueError(f"n_q must be >= 1, got {n_q}")
    N = 2**n_q
    p = np.arange(N)
    # Projectors 0 and 1 read the self-conjugate indices 0 and N/2; from
    # projector 2 on, projector p reads the pair (k, N-k) with k = p // 2,
    # with a plus sign for even p and a minus sign for odd p.
    self_conjugate = p < 2
    first = np.where(self_conjugate, p * (N // 2), p // 2)
    signs = np.where(self_conjugate, 0.0, 1.0 - 2.0 * (p % 2))
    imaginary = signs < 0
    arrays = dict(
        indices=np.stack([first, np.where(self_conjugate, first, N - first)], axis=1),
        signs=signs,
        scales=np.where(self_conjugate, 1.0, _INV_SQRT2),
        imaginary=imaginary,
        # The minus projectors' residual carries i*sqrt(2) times the
        # imaginary part, so their reference ancilla is rotated by pi/2.
        ancilla_phase=np.where(imaginary, math.pi / 2, 0.0),
    )
    for array in arrays.values():
        array.flags.writeable = False
    return ReadoutSchedule(n_q=n_q, **arrays)


class _NodePlan:
    """What the node stage reads for a schedule and never writes: the compiled
    transform circuit and its gate count, and per projector its rows of the
    result with their weights, its ancilla weight and its part (1 imaginary)."""

    def __init__(self, schedule: ReadoutSchedule) -> None:
        circuit = build_qft_circuit(schedule.n_q)
        self.schedule, self.gates = schedule, len(circuit)
        self.steps, rows, scale = compile_circuit(schedule.n_q, circuit)
        self.first, self.second = rows[schedule.indices.T]
        scales = schedule.scales * (_INV_SQRT2 * scale)
        self.weights = scales[:, None], (scales * schedule.signs)[:, None]
        # <ref| r> = r0/sqrt(2) + w*r1, w the conjugate of e^{i*phi}/sqrt(2).
        self.ancilla = (np.exp(-1j * schedule.ancilla_phase) * _INV_SQRT2)[:, None]
        self.part = schedule.imaginary.astype(np.intp)


class _WorkArrays:
    """The work arrays for ``size`` samples, of which a step takes the
    leading elements, with the root table of ``size`` (``roots``, filled in
    by the levels) and the plan of each node size (``node_plan``).  Roles
    that share memory are never live at once.  In order, ``spectrum`` holds
    ``x | a``, then the node output; ``state`` and ``r1`` are the circuit's
    two buffers; ``product`` its result in ``(N, L)`` order, then
    ``magnitude | values``; ``state`` the second projection term, ``ref``,
    ``b_abs | plus``, then the spread output; ``r1`` the projections, then
    ``reference | minus``; the levels then ping-pong between ``r1`` and
    ``product``.  Threads that run transforms at once would share the kept
    object."""

    def __init__(self, size: int) -> None:
        arrays = np.empty((4, size), complex)
        self.spectrum, self.state, self.r1, self.product = arrays
        (self.x, self.a, self.b_abs, self.plus, self.reference, self.minus,
         self.magnitude, self.values) = arrays.view(float).reshape(8, size)
        self.temp = np.empty(size)
        self.masks = np.empty((2, size), bool)
        self.roots = None
        self.plans = {}

    def node_plan(self, n_q: int) -> _NodePlan:
        """The plan of ``2**n_q``-point nodes, built on first use."""
        if n_q not in self.plans:
            self.plans[n_q] = _NodePlan(build_schedule(n_q))
        return self.plans[n_q]


# At most 4.6 MiB of work arrays, 1 MiB of roots and 14.1 MiB of node plans
# (every node size up to 16 qubits) are kept; larger ones are built per call,
# so a run keeps nothing the size of a large signal.
_KEEP_MAX_SIZE = 2**16
_kept_work = lru_cache(maxsize=1)(_WorkArrays)


def _work_arrays(size: int) -> _WorkArrays:
    return _kept_work(size) if size <= _KEEP_MAX_SIZE else _WorkArrays(size)


def _shaped(flat: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading elements of a work array, in ``shape``."""
    return flat[: math.prod(shape)].reshape(shape)


def _column_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a C-contiguous ``(L, N)`` array, one
    dot product per row."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _encode(blocks: np.ndarray, norms: np.ndarray, ledger: CostLedger | None, out) -> np.ndarray:
    """Normalized columns, written into ``out``; charges
    ``n_q**2 * 2**n_q`` state-prep units per column."""
    if np.any(norms == 0.0):
        raise ValueError("zero block cannot be amplitude-encoded")
    N, L = blocks.shape
    n_q = N.bit_length() - 1
    if n_q < 1:
        raise ValueError("block must span at least one qubit")
    if ledger is not None:
        ledger.state_prep_units += L * n_q**2 * N
    return np.divide(blocks, norms, out=out)


# Every take below writes into a work array: with the default mode, "raise",
# numpy takes into a temporary copy first.  The indices are in range.
def _reference(schedule: ReadoutSchedule, x: np.ndarray, work: _WorkArrays) -> np.ndarray:
    """The classical reference ``a = (x_i + sign * x_j) * scale`` of every
    projector of every column of ``x``, ``(N, L)``: the sum comes before the
    weight, as in the scalar rebuild this replaced."""
    first, second = schedule.indices.T
    a = np.take(x, first, axis=0, out=_shaped(work.a, x.shape), mode="clip")
    pair = np.take(x, second, axis=0, out=_shaped(work.temp, x.shape), mode="clip")
    pair *= schedule.signs[:, None]
    a += pair
    a *= schedule.scales[:, None]
    return a


def _project(plan: _NodePlan, result: np.ndarray, work: _WorkArrays) -> np.ndarray:
    """Overlap of every register with every data projector, ``(N, L)``, from
    the circuit's ``(L, N)`` result copied to ``(N, L)`` order; the weights
    multiply before the sum, as in :func:`hqsim.core.effect_probability`."""
    columns = _shaped(work.product, result.shape[::-1])
    columns[...] = result.T
    r1 = np.take(columns, plan.first, axis=0, out=_shaped(work.r1, columns.shape), mode="clip")
    r1 *= plan.weights[0]
    term = np.take(columns, plan.second, axis=0, out=_shaped(work.state, columns.shape), mode="clip")
    term *= plan.weights[1]
    r1 += term
    return r1


def _by_coefficient(plan: _NodePlan, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows ``0 .. N/2`` of the complex ``(N, L)`` ``out``, the coefficients
    from ``(N, L)`` per-projector values: each projector's value goes to the
    real or imaginary part of the coefficient it yields."""
    half = out[: 2 ** (plan.schedule.n_q - 1) + 1]
    half[...] = 0.0
    # Axis 2 holds each coefficient's real and imaginary part.
    parts = half.view(float).reshape(half.shape + (2,))
    parts[plan.schedule.coefficient, :, plan.part] = values
    return out


def _hermitian(columns: np.ndarray) -> np.ndarray:
    """Rows ``N/2+1 ..`` of ``(N, L)`` coefficients of real signals, filled
    in: coefficient ``N-k`` is the conjugate of ``k``."""
    half = columns.shape[0] // 2
    np.conjugate(columns[half - 1 : 0 : -1], out=columns[half + 1 :])
    return columns


# Chebyshev fit of erfc with fractional error below 1.2e-7 for every
# argument (Press et al., Numerical Recipes, 2nd ed., section 6.2), in
# increasing powers of t = 1 / (1 + x/2).
_ERFC_FIT = (
    -1.26551223, 1.00002368, 0.37409196, 0.09678418, -0.18628806,
    0.27886807, -1.13520398, 1.48851587, -0.82215223, 0.17087277,
)


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function of nonnegative ``x``, elementwise."""
    t = 1.0 / (1.0 + 0.5 * x)
    # Horner's rule in the order of numpy's polyval, highest power first.
    fit = _ERFC_FIT[-1]
    for c in _ERFC_FIT[-2::-1]:
        fit = c + fit * t
    return t * np.exp(fit - x * x)


def _measure(
    plan: _NodePlan,
    x: np.ndarray,
    a: np.ndarray,
    shots: int,
    seeds,
    ledger: CostLedger | None,
    work: _WorkArrays,
) -> tuple[np.ndarray, np.ndarray]:
    """Joint probabilities of every normalized column of the C-contiguous
    ``(N, L)`` array ``x``, whose classical references are ``a``: the
    magnitude and the reference entry of each projector, two ``(N, L)``
    arrays with one row per projector.

    The ancilla Hadamard on |0> leaves ``x/sqrt(2)`` in both ancilla
    branches.  The control-off branch stays there, so its projections are
    ``a/sqrt(2)``; the controlled transform runs on the control-on branch of
    every column in one batch and is read through the circuit's final
    relabelling, with its normalization folded into the projector weights.
    ``shots = 0`` gives exact values.  Otherwise each entry is a binomial
    estimate: column ``i`` makes one generator from ``seeds[i]`` and draws
    one binomial per entry from it, over its 2N entries in schedule order,
    so a column's estimates depend on its own seed only.
    """
    N, L = x.shape
    on = _shaped(work.state, x.shape)
    on[...] = x
    result = run_circuit(on, _shaped(work.r1, x.shape), plan.steps)
    if ledger is not None:
        ledger.quantum_gate_units += L * plan.gates
        ledger.measurement_units += L * 2 * N

    # Ancilla residual (r0, r1) of each data projector, r0 = a/sqrt(2).
    r1 = _project(plan, result, work)
    temp = _shaped(work.temp, x.shape)
    ref = np.multiply(plan.ancilla, r1, out=on)
    ref += np.multiply(0.5, a, out=temp)
    magnitude = np.multiply(r1.real, r1.real, out=_shaped(work.magnitude, x.shape))
    magnitude += np.multiply(r1.imag, r1.imag, out=temp)
    reference = np.multiply(ref.real, ref.real, out=_shaped(work.reference, x.shape))
    reference += np.multiply(ref.imag, ref.imag, out=temp)
    if not shots:
        return magnitude, reference

    # Schedule order interleaves each projector's magnitude and reference.
    probabilities = np.stack([magnitude.T, reference.T], axis=-1).reshape(L, 2 * N)
    probabilities = np.clip(probabilities, 0.0, 1.0)
    counts = np.empty((L, 2 * N))
    for i, seed in enumerate(seeds):
        counts[i] = np.random.default_rng(seed).binomial(shots, probabilities[i])
    estimates = counts / shots
    return estimates[:, 0::2].T, estimates[:, 1::2].T


def _classical_coefficients(x: np.ndarray, columns: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Amplitude-level coefficient ``k[i]`` of column ``x[:, columns[i]]``,
    computed classically with 2**n_q ops; at most 2**16 phases are held at
    once."""
    N = x.shape[0]
    out = np.empty(len(k), dtype=complex)
    step = max(1, 2**16 // N)
    for start in range(0, len(k), step):
        chunk = slice(start, start + step)
        # N is a power of two, so the mask reduces k*j modulo N.
        phases = 2j * np.pi * ((k[chunk, None] * np.arange(N)) & (N - 1)) / N
        np.multiply(np.exp(phases, out=phases), x[:, columns[chunk]].T, out=phases)
        out[chunk] = np.sum(phases, axis=1) / math.sqrt(N)
    return out


def _flip_signs(values: np.ndarray, negative: np.ndarray, temp: np.ndarray) -> None:
    """Negate ``values`` where ``negative`` holds, zeros included, by a product
    with ``1 - 2*negative``: no branch per element."""
    values *= np.subtract(1.0, np.multiply(negative, 2.0, out=temp), out=temp)


def _rebuild(
    plan: _NodePlan,
    x: np.ndarray,
    a: np.ndarray,
    magnitude: np.ndarray,
    reference: np.ndarray,
    shots: int,
    ledger: CostLedger | None,
    work: _WorkArrays,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Signed amplitude-level coefficients of every column of ``x``, whose
    classical references are ``a``.

    Returns the ``(N, L)`` coefficients, their standard errors when
    ``shots`` is nonzero (sampled mode) or None, and the ``(N, L)`` mask of
    projectors resolved by the classical fallback, one row per projector.
    ``|a| < eps`` is a fallback unless ``|b|`` is below ``eps`` too, where
    ``eps`` is ``EPS_REF_EXACT`` in exact mode and three shot-noise
    deviations, ``3 / sqrt(shots)``, in sampled mode.
    """
    N, _ = shape = x.shape
    mag = np.maximum(magnitude, 0.0, out=_shaped(work.magnitude, shape))
    b_abs = np.multiply(2.0, mag, out=_shaped(work.b_abs, shape))
    np.sqrt(b_abs, out=b_abs)
    # Nearest hypothesis (a + s|b|)**2 / 4 to the reference picks the sign.
    plus = np.add(a, b_abs, out=_shaped(work.plus, shape))
    minus = np.subtract(a, b_abs, out=_shaped(work.minus, shape))
    for hypothesis in (plus, minus):
        np.square(hypothesis, out=hypothesis)
        hypothesis /= 4.0
    values, temp = _shaped(work.values, shape), _shaped(work.temp, shape)
    np.abs(np.subtract(reference, plus, out=values), out=values)
    np.abs(np.subtract(reference, minus, out=temp), out=temp)
    negative = np.greater(values, temp, out=_shaped(work.masks[0], shape))
    # A pair projector's part is |b|/sqrt(2), its scale times |b|.
    _flip_signs(np.multiply(b_abs, plan.schedule.scales[:, None], out=values), negative, temp)

    eps = 3.0 / math.sqrt(shots) if shots else EPS_REF_EXACT
    fallback = np.less(np.abs(a, out=temp), eps, out=negative)
    fallback &= np.greater_equal(b_abs, eps, out=_shaped(work.masks[1], shape))
    fallbacks = 0
    if fallback.any():
        p, columns = np.nonzero(fallback)
        c = _classical_coefficients(x, columns, plan.schedule.coefficient[p])
        values[p, columns] = np.where(plan.schedule.imaginary[p], c.imag, c.real)
        fallbacks = len(p)
    if ledger is not None:
        ledger.fallback_ops += fallbacks * N
        ledger.classical_fallbacks += fallbacks

    # The node output overwrites x and a, which are spent.
    coefficients = _hermitian(_by_coefficient(plan, values, _shaped(work.spectrum, shape)))
    if not shots:
        return coefficients, None, fallback

    # The part value is |b| on self-conjugate projectors and |b|/sqrt(2) on
    # pair projectors; a fallback value carries no shot noise.  A
    # coefficient's variance sums those of its real and imaginary parts.
    spread = np.maximum(1.0 - mag, 0.0) / shots
    variance = np.where(plan.schedule.signs[:, None] != 0, spread / 4.0, spread / 2.0)
    # The sign test picks the wrong hypothesis, an error of twice the part
    # value, when the reference falls on the wrong side of the hypotheses'
    # midpoint (a**2 + |b|**2) / 4 = a**2/4 + m/2, half their gap away.  Both
    # the reference and m carry shot noise, each at least one count's worth
    # so that an entry read as 0 or 1 claims no certainty.
    floor = 1.0 / shots
    noise = np.maximum(reference * (1.0 - reference), floor)
    noise += np.maximum(mag * (1.0 - mag), floor) / 4.0
    flip = 0.5 * _erfc(np.abs(plus - minus) / 2.0 / np.sqrt(2.0 * noise / shots))
    variance += flip * (2.0 * values) ** 2
    variance[fallback] = 0.0
    parts = _by_coefficient(plan, variance, np.zeros(shape, complex))
    return coefficients, np.sqrt(_hermitian(parts.real + parts.imag)), fallback


def evaluate_nodes(
    blocks: np.ndarray,
    shots: int = 0,
    seeds=None,
    ledger: CostLedger | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The node stage for every column of a ``(2**n_q, L)`` real block
    array.

    Encodes the nonzero columns, runs the readout circuit and schedule on
    all of them as one batch, rebuilds their signs and undoes both
    normalizations, exactly when ``shots`` is 0 and from ``shots`` draws per
    entry otherwise (sampled mode).  Returns the ``(2**n_q, L)``
    unnormalized transforms, one per column, and, in sampled mode, their
    standard errors (None in exact mode).  All-zero columns never touch the
    node: their transform is zero.  ``seeds`` holds one seed per column;
    sampled mode raises ``ValueError`` without exactly that many, and exact
    mode ignores it.  Charges every node counter as columns times unit, plus
    each fallback.
    """
    blocks = np.asarray(blocks, dtype=float)
    N, _ = blocks.shape
    if N < 2 or N & (N - 1):
        raise ValueError(f"column length {N} is not a power of two >= 2")
    values, stderr = _evaluate_nodes(_work_arrays(blocks.size), blocks, shots, seeds, ledger)
    return values.copy(), stderr


def _evaluate_nodes(work: _WorkArrays, blocks: np.ndarray, shots: int, seeds, ledger):
    """:func:`evaluate_nodes` in ``work``, whose arrays hold the transforms
    it returns until the next use of ``work``."""
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    N, L = blocks.shape
    if shots and (seeds is None or len(seeds) != L):
        raise ValueError(f"sampled mode needs one seed per column, {L} columns")
    rows = _shaped(work.temp, (L, N))
    rows[...] = blocks.T
    norms = _column_norms(rows)
    if not np.isfinite(norms).all():
        c = int(np.argmin(np.isfinite(norms)))
        raise ValueError(f"leaf in column {c} (samples {c}::{L}) is not finite or its squared norm overflows")
    live = norms != 0.0
    if not live.all():  # all-live blocks are encoded as they are
        norms, x = norms[live], _shaped(work.x, (N, np.count_nonzero(live)))
        blocks = np.take(blocks, np.flatnonzero(live), axis=1, out=x, mode="clip")
    x = _encode(blocks, norms, ledger, _shaped(work.x, blocks.shape))
    plan = work.node_plan(N.bit_length() - 1)
    live_seeds = [seed for seed, keep in zip(seeds, live) if keep] if shots else None
    a = _reference(plan.schedule, x, work)
    magnitude, reference = _measure(plan, x, a, shots, live_seeds, ledger, work)
    coefficients, stderr, _ = _rebuild(plan, x, a, magnitude, reference, shots, ledger, work)
    if ledger is not None:
        ledger.node_accesses += x.shape[1]
    scale = norms * math.sqrt(N)
    coefficients *= scale
    values = _spread(coefficients, live, _shaped(work.state, (N, L)))
    return values, None if stderr is None else _spread(stderr * scale, live, np.empty((N, L)))


def _spread(columns: np.ndarray, live: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The ``(N, L)`` output from the columns of the live blocks, with zeros
    for the others, written into ``out``; ``columns`` itself when every
    block is live."""
    if live.all():
        return columns
    out[:, ~live] = 0.0
    out[:, live] = columns
    return out


def execute_schedule(
    block: RealSignal,
    schedule: ReadoutSchedule,
    shots: int = 0,
    seed: int = 0,
    ledger: CostLedger | None = None,
) -> ReadoutRecord:
    """Run the readout circuit on one block and fill every schedule entry.

    A batch of one through the node stage of :func:`evaluate_nodes`: builds
    ancilla tensor block state, applies the ancilla Hadamard and the
    controlled transform, then evaluates both joint probabilities of each
    projector, exactly when ``shots`` is 0 and otherwise as a binomial
    estimate drawn from ``seed``.  Projector ``p`` of ``schedule`` fills
    entry ``p`` of the record's ``magnitude`` and ``reference`` arrays.
    """
    if block.n != schedule.n_q:
        raise ValueError(
            f"schedule built for n_q={schedule.n_q}, block has n_q={block.n}"
        )
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    work = _work_arrays(block.size)
    x = _encode(block.values[:, None], np.array([block.norm]), ledger, _shaped(work.x, (block.size, 1)))
    a = _reference(schedule, x, work)
    magnitude, reference = _measure(_NodePlan(schedule), x, a, shots, [seed], ledger, work)
    return ReadoutRecord(schedule, magnitude[:, 0].copy(), reference[:, 0].copy(), shots)


def rebuild_phases(
    record: ReadoutRecord,
    block: RealSignal,
    ledger: CostLedger | None = None,
) -> SpectrumEstimate:
    """Turn a readout record into signed complex coefficients.

    A batch of one through the sign rebuild of :func:`evaluate_nodes`.  For
    each projector the magnitude entry fixes ``|b| = sqrt(2*m)`` and the
    sign comes from whichever hypothesis ``(a + s|b|)**2 / 4`` lies nearest
    the reference entry.  When ``|a|`` is below the sign-test threshold the
    hypotheses coincide; the coefficient is flagged ambiguous and evaluated
    classically instead, charging ``2**n_q`` classical ops to the fallback
    counter.  Raises ``ValueError`` unless the record holds ``2**n_q``
    entries of each kind.
    """
    schedule = record.schedule
    N = 2**schedule.n_q
    if block.n != schedule.n_q:
        raise ValueError("record and block sizes differ")

    magnitude = np.asarray(record.magnitude, dtype=float)
    reference = np.asarray(record.reference, dtype=float)
    if magnitude.shape != (N,) or reference.shape != (N,):
        raise ValueError(f"record needs {N} magnitude and {N} reference entries")
    work = _work_arrays(N)
    x = np.divide(block.values[:, None], block.norm, out=_shaped(work.x, (N, 1)))
    coefficients, stderr, fallback = _rebuild(
        _NodePlan(schedule), x, _reference(schedule, x, work), magnitude[:, None], reference[:, None],
        record.shots, ledger, work,
    )
    return SpectrumEstimate(
        coefficients=coefficients[:, 0].copy(),
        scale=block.norm * math.sqrt(N),
        ambiguous=frozenset(schedule.coefficient[fallback[:, 0]].tolist()),
        classical_fallbacks=int(np.count_nonzero(fallback)),
        stderr=None if stderr is None else stderr[:, 0],
    )


def rescale_to_dft(estimate: SpectrumEstimate) -> np.ndarray:
    """Undo the two normalizations: returns the unnormalized transform of
    the original block values."""
    return estimate.scale * estimate.coefficients
