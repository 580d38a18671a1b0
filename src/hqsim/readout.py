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
circuit on a ``(2, ..., 2, L)`` tensor with the batch innermost and reads
every projector of every block as a row of that array, through the
schedule's arrays, so no effect objects are built per entry.  The ancilla's
control-off branch is the encoded block itself, so only the control-on
branch is simulated; its projections read through the circuit's final
relabelling, with the circuit's normalization folded into the projector
weights, so the node stage neither permutes nor rescales the state.
:func:`execute_schedule` and :func:`rebuild_phases` are batch-of-one
wrappers round the same code; their :class:`ReadoutRecord` holds a block's
magnitude and reference entries as two arrays in projector order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    SHARED_MAX_QUBITS,
    StateVector,
    build_qft_circuit,
    check_mode,
    run_circuit,
)
from .costs import CostLedger

__all__ = [
    "BlockVector",
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
class BlockVector:
    """Real vector of length ``2**n_q``."""

    values: np.ndarray

    @classmethod
    def from_values(cls, values) -> "BlockVector":
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size < 1 or vals.size & (vals.size - 1):
            raise ValueError(f"block length must be a power of two, got {vals.shape}")
        return cls(vals)

    @property
    def norm(self) -> float:
        """The Euclidean norm of ``values``."""
        return float(_column_norms(self.values[:, None])[0])

    @property
    def n_q(self) -> int:
        return int(self.values.size).bit_length() - 1

    @property
    def size(self) -> int:
        return int(self.values.size)


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
    seed: int


@dataclass(eq=False)
class SpectrumEstimate:
    """Reconstructed coefficients at amplitude level plus the factor that
    restores the unnormalized transform values."""

    coefficients: np.ndarray
    scale: float
    ambiguous: frozenset
    classical_fallbacks: int
    stderr: np.ndarray | None = None


def prepare_block_state(block: BlockVector, ledger: CostLedger | None = None) -> StateVector:
    """Amplitude-encode a block on the data register.

    Charges ``n_q**2 * 2**n_q`` state-prep units; a zero block cannot be
    normalized and must be short-circuited by the caller.
    """
    normalized = _encode(block.values[:, None], np.array([block.norm]), ledger)
    return StateVector(block.n_q, normalized[:, 0])


def build_schedule(n_q: int) -> ReadoutSchedule:
    """Projection/measurement schedule for a ``2**n_q``-point readout.

    Exactly ``N`` pairwise orthogonal data projectors with two entries each:
    the self-conjugate indices 0 and N/2 plus a conjugate pair (+, -) per
    index below N/2.  Its arrays are read-only: a schedule of up to
    ``SHARED_MAX_QUBITS`` qubits is shared by every caller.
    """
    # The shared schedules take under 350 KB in all.  A larger one costs
    # little next to its own circuit, O(N) against O(N * n_q**2), and keeping
    # every size of a sweep would hold up to twice the largest schedule for
    # the rest of the run.
    if n_q <= SHARED_MAX_QUBITS:
        return _shared_schedule(n_q)
    return _new_schedule(n_q)


def _new_schedule(n_q: int) -> ReadoutSchedule:
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


_shared_schedule = lru_cache(maxsize=None)(_new_schedule)


def _column_norms(blocks: np.ndarray) -> np.ndarray:
    """Euclidean norm of every column, one dot product per column."""
    rows = np.ascontiguousarray(blocks.T)
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _encode(blocks: np.ndarray, norms: np.ndarray, ledger: CostLedger | None) -> np.ndarray:
    """Normalized columns; charges ``n_q**2 * 2**n_q`` state-prep units per
    column."""
    if np.any(norms == 0.0):
        raise ValueError("zero block cannot be amplitude-encoded")
    N, L = blocks.shape
    n_q = N.bit_length() - 1
    if n_q < 1:
        raise ValueError("block must span at least one qubit")
    if ledger is not None:
        ledger.state_prep_units += L * n_q**2 * N
    return blocks / norms


def _reference(schedule: ReadoutSchedule, x: np.ndarray) -> np.ndarray:
    """The classical reference ``a = (x_i + sign * x_j) * scale`` of every
    projector of every column of ``x``, ``(N, L)``: the sum comes before the
    weight, as in the scalar rebuild this replaced."""
    first, second = schedule.indices.T
    pair = x.take(first, axis=0) + schedule.signs[:, None] * x.take(second, axis=0)
    return pair * schedule.scales[:, None]


def _project(
    schedule: ReadoutSchedule, columns: np.ndarray, rows: np.ndarray, factor: float
) -> np.ndarray:
    """Overlap of every column with every data projector, times ``factor``:
    ``(N, L)`` with one row per projector in projector order.  Basis index
    ``i`` is read from row ``rows[i]``.  The weights multiply before the
    sum, as in :func:`hqsim.core.effect_probability`."""
    first, second = rows[schedule.indices.T]
    scales = schedule.scales * factor
    return (scales[:, None] * columns.take(first, axis=0)
            + (scales * schedule.signs)[:, None] * columns.take(second, axis=0))


def _by_coefficient(schedule: ReadoutSchedule, values: np.ndarray) -> np.ndarray:
    """``(N/2+1, L)`` complex columns over coefficients ``0 .. N/2`` from
    ``(N, L)`` per-projector values: each projector's value goes to the real
    or imaginary part of the coefficient it yields."""
    out = np.zeros((2 ** (schedule.n_q - 1) + 1, values.shape[1]), dtype=complex)
    imaginary = schedule.imaginary
    out.real[schedule.coefficient[~imaginary]] = values[~imaginary]
    out.imag[schedule.coefficient[imaginary]] = values[imaginary]
    return out


def _hermitian(half: np.ndarray) -> np.ndarray:
    """Full columns from coefficients ``0 .. N/2`` of real signals:
    coefficient ``N-k`` is the conjugate of ``k``."""
    return np.concatenate([half, np.conj(half[-2:0:-1])], axis=0)


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
    schedule: ReadoutSchedule,
    x: np.ndarray,
    a: np.ndarray,
    shots: int,
    seeds,
    ledger: CostLedger | None,
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
    on = x.astype(complex)
    circuit = build_qft_circuit(schedule.n_q)
    rows, scale = run_circuit(on, circuit)
    if ledger is not None:
        ledger.quantum_gate_units += L * len(circuit)
        ledger.measurement_units += L * 2 * N

    # Ancilla residual (r0, r1) of each data projector, r0 = a/sqrt(2).
    r1 = _project(schedule, on, rows, _INV_SQRT2 * scale)
    # <ref| r> = r0/sqrt(2) + w*r1, w the conjugate of e^{i*phi}/sqrt(2).
    w = np.exp(-1j * schedule.ancilla_phase) * _INV_SQRT2
    ref = 0.5 * a + w[:, None] * r1
    magnitude = r1.real * r1.real + r1.imag * r1.imag
    reference = ref.real * ref.real + ref.imag * ref.imag
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
        phases = np.exp(2j * np.pi * ((k[chunk, None] * np.arange(N)) & (N - 1)) / N)
        leaves = np.ascontiguousarray(x[:, columns[chunk]].T)
        out[chunk] = np.sum(leaves * phases, axis=1) / math.sqrt(N)
    return out


def _rebuild(
    schedule: ReadoutSchedule,
    x: np.ndarray,
    a: np.ndarray,
    magnitude: np.ndarray,
    reference: np.ndarray,
    shots: int,
    ledger: CostLedger | None,
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
    N = x.shape[0]
    mag = np.maximum(magnitude, 0.0)
    b_abs = np.sqrt(2.0 * mag)
    pair = schedule.signs[:, None] != 0
    # Nearest hypothesis (a + s|b|)**2 / 4 to the reference picks the sign.
    plus = np.square(a + b_abs) / 4.0
    minus = np.square(a - b_abs) / 4.0
    sign = np.where(np.abs(reference - plus) <= np.abs(reference - minus), 1.0, -1.0)
    values = sign * np.where(pair, b_abs * _INV_SQRT2, b_abs)

    eps = 3.0 / math.sqrt(shots) if shots else EPS_REF_EXACT
    fallback = (np.abs(a) < eps) & (b_abs >= eps)
    p, columns = np.nonzero(fallback)
    c = _classical_coefficients(x, columns, schedule.coefficient[p])
    values[p, columns] = np.where(schedule.imaginary[p], c.imag, c.real)
    fallbacks = len(p)
    if ledger is not None:
        ledger.fallback_ops += fallbacks * N
        ledger.classical_fallbacks += fallbacks

    coefficients = _hermitian(_by_coefficient(schedule, values))
    if not shots:
        return coefficients, None, fallback

    # The part value is |b| on self-conjugate projectors and |b|/sqrt(2) on
    # pair projectors; a fallback value carries no shot noise.  A
    # coefficient's variance sums those of its real and imaginary parts.
    spread = np.maximum(1.0 - mag, 0.0) / shots
    variance = np.where(pair, spread / 4.0, spread / 2.0)
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
    parts = _by_coefficient(schedule, variance)
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
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    N, L = blocks.shape
    if shots and (seeds is None or len(seeds) != L):
        raise ValueError(f"sampled mode needs one seed per column, {L} columns")
    norms = _column_norms(blocks)
    live = norms != 0.0
    # compress returns the live columns C-contiguous, as the in-place circuit
    # needs them; boolean indexing would return them F-ordered.
    x = _encode(blocks.compress(live, axis=1), norms[live], ledger)
    schedule = build_schedule(N.bit_length() - 1)
    live_seeds = [seed for seed, keep in zip(seeds, live) if keep] if shots else None
    a = _reference(schedule, x)
    magnitude, reference = _measure(schedule, x, a, shots, live_seeds, ledger)
    coefficients, stderr, _ = _rebuild(schedule, x, a, magnitude, reference, shots, ledger)
    if ledger is not None:
        ledger.node_accesses += x.shape[1]
    scale = norms[live] * math.sqrt(N)
    values = _spread(coefficients * scale, live)
    return values, None if stderr is None else _spread(stderr * scale, live)


def _spread(columns: np.ndarray, live: np.ndarray) -> np.ndarray:
    """The ``(N, L)`` output from the columns of the live blocks, with zeros
    for the others: one take from the columns behind a zero column."""
    padded = np.concatenate([np.zeros((columns.shape[0], 1), columns.dtype), columns], axis=1)
    # Output column j reads padded column 0 when its block is all zero, and
    # 1 + its rank among the live columns otherwise.
    return padded.take(np.cumsum(live) * live, axis=1)


def execute_schedule(
    block: BlockVector,
    schedule: ReadoutSchedule,
    mode: str = "exact",
    shots: int = 0,
    seed: int = 0,
    ledger: CostLedger | None = None,
) -> ReadoutRecord:
    """Run the readout circuit on one block and fill every schedule entry.

    A batch of one through the node stage of :func:`evaluate_nodes`: builds
    ancilla tensor block state, applies the ancilla Hadamard and the
    controlled transform, then evaluates both joint probabilities of each
    projector, exactly or as a seeded binomial estimate in sampled mode.
    Projector ``p`` of ``schedule`` fills entry ``p`` of the record's
    ``magnitude`` and ``reference`` arrays.
    """
    if block.n_q != schedule.n_q:
        raise ValueError(
            f"schedule built for n_q={schedule.n_q}, block has n_q={block.n_q}"
        )
    shots = check_mode(mode, shots)
    x = _encode(block.values[:, None], np.array([block.norm]), ledger)
    magnitude, reference = _measure(schedule, x, _reference(schedule, x), shots, [seed], ledger)
    return ReadoutRecord(schedule, magnitude[:, 0], reference[:, 0], shots, seed)


def rebuild_phases(
    record: ReadoutRecord,
    block: BlockVector,
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
    if block.n_q != schedule.n_q:
        raise ValueError("record and block sizes differ")

    magnitude = np.asarray(record.magnitude, dtype=float)
    reference = np.asarray(record.reference, dtype=float)
    if magnitude.shape != (N,) or reference.shape != (N,):
        raise ValueError(f"record needs {N} magnitude and {N} reference entries")
    x = block.values[:, None] / block.norm
    coefficients, stderr, fallback = _rebuild(
        schedule, x, _reference(schedule, x), magnitude[:, None], reference[:, None],
        record.shots, ledger,
    )
    return SpectrumEstimate(
        coefficients=coefficients[:, 0],
        scale=block.norm * math.sqrt(N),
        ambiguous=frozenset(schedule.coefficient[fallback[:, 0]].tolist()),
        classical_fallbacks=int(np.count_nonzero(fallback)),
        stderr=None if stderr is None else stderr[:, 0],
    )


def rescale_to_dft(estimate: SpectrumEstimate) -> np.ndarray:
    """Undo the two normalizations: returns the unnormalized transform of
    the original block values."""
    return estimate.scale * estimate.coefficients
