"""Hybrid transform: quantum-node leaves plus classical butterfly levels.

A length-``2**n`` real signal is decimated in time down to ``2**(n-n_q)``
leaves of size ``2**n_q``.  Each nonzero leaf is evaluated on a simulated
quantum node (encode, controlled transform, readout, sign rebuild) and the
results are recombined through ``n - n_q`` classical butterfly levels.  With
``n_q = 0`` the whole computation is the plain radix-2 FFT; with
``n_q = n`` it is a single node evaluation.  The sign convention is
``y_k = sum_j x_j exp(+2*pi*i*k*j/N)`` throughout.

Every stage works on arrays: one bit-reversal permutation lays the leaves
out as the rows of a matrix, the batched node stage
(:func:`~hqsim.readout.evaluate_nodes`) evaluates all of them at once, and
each butterfly level combines all even/odd row pairs in one array
operation, the level-by-level form of the Cooley-Tukey recursion (Van Loan,
*Computational Frameworks for the FFT*, SIAM 1992).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostLedger
from .readout import BlockVector, evaluate_nodes

__all__ = [
    "RealSignal",
    "SpectrumVector",
    "TwiddleTable",
    "FftPlan",
    "direct_dft",
    "classical_fft",
    "decimate_leaves",
    "butterfly_combine",
    "hybrid_dft",
]


@dataclass(eq=False)
class RealSignal:
    """Real samples, length ``2**n``."""

    values: np.ndarray
    n: int

    @classmethod
    def from_values(cls, values) -> "RealSignal":
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size < 1 or vals.size & (vals.size - 1):
            raise ValueError(f"signal length must be a power of two, got {vals.shape}")
        return cls(vals, int(vals.size).bit_length() - 1)

    @property
    def size(self) -> int:
        return int(self.values.size)


@dataclass(eq=False)
class SpectrumVector:
    """Complex spectrum; ``stderr`` carries per-coefficient statistical
    error estimates in sampled mode, None otherwise."""

    values: np.ndarray
    stderr: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class TwiddleTable:
    """The ``N`` complex roots of unity ``exp(+2*pi*i*k/N)``."""

    size: int
    roots: np.ndarray

    @classmethod
    def for_size(cls, size: int) -> "TwiddleTable":
        if size < 1 or size & (size - 1):
            raise ValueError(f"twiddle size must be a power of two, got {size}")
        return cls(size, np.exp(2j * np.pi * np.arange(size) / size))


@dataclass(frozen=True)
class FftPlan:
    """How to run the transform: node size, probability mode, seeding."""

    n: int
    n_q: int
    mode: str = "exact"
    shots: int = 0
    master_seed: int = 0
    n_precision: int = 64
    charge_decimation: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.n_q <= self.n:
            raise ValueError(f"n_q={self.n_q} out of range for n={self.n}")
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "sampled" and self.shots < 1:
            raise ValueError("sampled mode needs shots >= 1")


# Elements of the phase matrix that direct_dft holds at once.
_DIRECT_BLOCK_ELEMENTS = 2**16


def direct_dft(signal: RealSignal) -> SpectrumVector:
    """O(N**2) reference transform straight from the definition.

    The phase index ``k*j mod N`` is reduced in integers and looks up one
    table of the N roots of unity, so no phase is a large float product.
    Rows are taken in blocks, so temporaries stay within
    ``_DIRECT_BLOCK_ELEMENTS`` elements per block.  The root table is built
    here, not shared with the butterflies this reference checks.
    """
    N = signal.size
    roots = np.exp(2j * np.pi * np.arange(N) / N)
    j = np.arange(N)
    x = signal.values.astype(complex)
    out = np.empty(N, dtype=complex)
    rows = max(1, _DIRECT_BLOCK_ELEMENTS // N)
    for start in range(0, N, rows):
        k = np.arange(start, min(start + rows, N))
        # N is a power of two, so the mask reduces k*j modulo N.
        out[start:start + k.size] = roots[np.outer(k, j) & (N - 1)] @ x
    return SpectrumVector(out)


def _leaf_rows(signal: RealSignal, n_q: int) -> np.ndarray:
    """The leaves of :func:`decimate_leaves` as the rows of one matrix,
    picked by one bit-reversal permutation."""
    if not 0 <= n_q <= signal.n:
        raise ValueError(f"n_q={n_q} out of range for n={signal.n}")
    reversal = np.zeros(1, dtype=np.intp)
    for _ in range(signal.n - n_q):
        reversal = np.concatenate([2 * reversal, 2 * reversal + 1])
    return signal.values.reshape(2**n_q, reversal.size).T[reversal]


def decimate_leaves(signal: RealSignal, n_q: int) -> list[BlockVector]:
    """Split a signal into ``2**(n-n_q)`` decimation-in-time leaves.

    Leaf ``r`` holds the samples whose index is congruent to the
    bit-reversed value of ``r`` modulo ``2**(n-n_q)``, in increasing order,
    so adjacent leaves are even/odd partners at every combine level.
    """
    return [BlockVector.from_values(row) for row in _leaf_rows(signal, n_q)]


def _combine_level(spec, stderr, roots, ledger):
    """One radix-2 level over the row pairs ``(spec[2i], spec[2i+1])``:
    ``y_k = even[k % h] + roots[k] * odd[k % h]``; one classical op per
    output coefficient."""
    pairs, h = spec.shape[0] // 2, spec.shape[1]
    twiddles = roots.reshape(2, h)
    spec = (spec[0::2, None, :] + twiddles * spec[1::2, None, :]).reshape(pairs, 2 * h)
    if stderr is not None:
        half = np.sqrt(stderr[0::2] ** 2 + stderr[1::2] ** 2)
        stderr = np.concatenate([half, half], axis=1)
    if ledger is not None:
        ledger.classical_ops += pairs * 2 * h
    return spec, stderr


def _combine_levels(spec, stderr, ledger):
    """Combine the rows of ``spec`` level by level into one spectrum.

    Each level's roots are a strided view of one table of the final size:
    the strides are powers of two, so they equal
    ``TwiddleTable.for_size(2 * h).roots`` bit for bit.
    """
    roots = TwiddleTable.for_size(spec.size).roots
    while spec.shape[0] > 1:
        spec, stderr = _combine_level(spec, stderr, roots[::spec.shape[0] // 2], ledger)
    return SpectrumVector(spec[0], None if stderr is None else stderr[0])


def butterfly_combine(
    even: SpectrumVector,
    odd: SpectrumVector,
    twiddles: TwiddleTable,
    ledger: CostLedger | None = None,
) -> SpectrumVector:
    """One radix-2 combine: ``y_k = even[k % h] + w**k * odd[k % h]``.

    Charges one classical op per output coefficient.
    """
    h = even.size
    if odd.size != h:
        raise ValueError(f"half sizes differ: {h} vs {odd.size}")
    N = 2 * h
    if twiddles.size != N:
        raise ValueError(f"twiddle table of size {twiddles.size}, expected {N}")
    stderr = None
    if even.stderr is not None and odd.stderr is not None:
        stderr = np.stack([even.stderr, odd.stderr])
    values, stderr = _combine_level(np.stack([even.values, odd.values]), stderr, twiddles.roots, ledger)
    return SpectrumVector(values[0], None if stderr is None else stderr[0])


def classical_fft(signal: RealSignal, ledger: CostLedger | None = None) -> SpectrumVector:
    """Radix-2 decimation-in-time FFT; charges ``n * 2**n`` classical ops."""
    return _combine_levels(_leaf_rows(signal, 0).astype(complex), None, ledger)


def _leaf_seed(master_seed: int, leaf_index: int) -> int:
    return int(np.random.SeedSequence([master_seed, leaf_index]).generate_state(1)[0])


def hybrid_dft(signal: RealSignal, plan: FftPlan) -> tuple[SpectrumVector, CostLedger]:
    """Run the transform with ``2**n_q``-point quantum leaves.

    Zero leaves short-circuit to zero spectra without touching the node.
    With ``n_q = 0`` the quantum stage is skipped entirely and the plain FFT
    levels run on the single-sample leaves.  Leaf seeds derive from (master
    seed, leaf index), so results do not depend on how the leaves are
    batched.
    """
    if plan.n != signal.n:
        raise ValueError(f"plan built for n={plan.n}, signal has n={signal.n}")
    ledger = CostLedger()
    leaves = _leaf_rows(signal, plan.n_q)
    sampled = plan.mode == "sampled"
    if plan.n_q == 0:
        spec = leaves.astype(complex)
        stderr = np.zeros(leaves.shape) if sampled else None
    else:
        if plan.charge_decimation:
            ledger.decimation_ops += (plan.n - plan.n_q) * 2**plan.n
        seeds = [_leaf_seed(plan.master_seed, i) for i in range(len(leaves))] if sampled else None
        spec, stderr = evaluate_nodes(leaves, plan.mode, plan.shots, seeds, ledger)
    spectrum = _combine_levels(spec, stderr, ledger)
    ledger.classical_bits = 2**plan.n * plan.n_precision
    ledger.qubit_count = plan.n_q + 1
    return spectrum, ledger
