"""Hybrid transform: quantum-node leaves plus classical butterfly levels.

A length-``2**n`` real signal is decimated in time down to ``2**(n-n_q)``
leaves of size ``2**n_q``.  Each nonzero leaf is evaluated on a simulated
quantum node (encode, controlled transform, readout, sign rebuild) and the
results are recombined through ``n - n_q`` classical butterfly levels.  With
``n_q = 0`` the whole computation is the plain radix-2 FFT; with
``n_q = n`` it is a single node evaluation.  The sign convention is
``y_k = sum_j x_j exp(+2*pi*i*k*j/N)`` throughout.  The signal and its
leaves are one type, :class:`~hqsim.readout.RealSignal`, and a plan's
``shots`` alone picks exact (0) or sampled node readout.

Every stage works on arrays.  The signal reshaped to ``(2**n_q, R)`` holds
the leaves as its columns in natural order: column ``c`` is the subsequence
of samples congruent to ``c`` modulo ``R = 2**(n-n_q)``, so no permutation
is needed.  The batched node stage (:func:`~hqsim.readout.evaluate_nodes`)
transforms every column at once, and each butterfly level combines the
contiguous halves of the columns, ``c`` with ``c + R/2``, into ``R/2``
columns twice as long, in one array operation.  This is the Stockham
(autosort) arrangement of the Cooley-Tukey levels (Van Loan, *Computational
Frameworks for the FFT*, SIAM 1992), and once rows are shorter than their
count the levels run on one transposed copy, as in the four-step
arrangement (Bailey, J. Supercomputing 4, 1990).  They ping-pong between two
of the node stage's work arrays (:mod:`hqsim.readout`), which also hold the
root table they read, and only the last level writes a new array, the
returned spectrum, in natural order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import derive_seed
from .costs import CostLedger, _check_node_size
from .readout import RealSignal, _evaluate_nodes, _shaped, _work_arrays

__all__ = [
    "SpectrumVector",
    "FftPlan",
    "direct_dft",
    "decimate_leaves",
    "butterfly_combine",
    "hybrid_dft",
]


@dataclass(eq=False)
class SpectrumVector:
    """Complex spectrum; ``stderr`` carries per-coefficient statistical
    error estimates in sampled mode, None otherwise."""

    values: np.ndarray
    stderr: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class FftPlan:
    """How to run the transform: node size, shots, seeding.  ``shots = 0``
    reads the nodes exactly; ``shots > 0`` estimates every readout entry
    from that many draws (sampled mode)."""

    n: int
    n_q: int
    shots: int = 0
    master_seed: int = 0
    n_precision: int = 64

    def __post_init__(self) -> None:
        _check_node_size(self.n, self.n_q)
        if self.shots < 0:
            raise ValueError(f"shots must be >= 0, got {self.shots}")


# Elements of the phase matrix that direct_dft holds at once.
_DIRECT_BLOCK_ELEMENTS = 2**16


def direct_dft(signal: RealSignal) -> SpectrumVector:
    """O(N**2) reference transform straight from the definition.

    The phase index ``k*j mod N`` is reduced in integers and looks up one
    table of the N roots of unity, so no phase is a large float product.
    The signal is real, so only ``k <= N/2`` is summed and ``out[N-k]`` is
    the conjugate of ``out[k]``.  Rows are taken in blocks, so temporaries
    stay within ``_DIRECT_BLOCK_ELEMENTS`` elements per block.  The root
    table is built here, not shared with the butterflies this reference
    checks.
    """
    N = signal.size
    roots = np.exp(2j * np.pi * np.arange(N) / N)
    j = np.arange(N)
    x = signal.values.astype(complex)
    out = np.empty(N, dtype=complex)
    half = N // 2 + 1
    rows = max(1, _DIRECT_BLOCK_ELEMENTS // N)
    for start in range(0, half, rows):
        k = np.arange(start, min(start + rows, half))
        # N is a power of two, so the mask reduces k*j modulo N.
        out[start:start + k.size] = roots[np.outer(k, j) & (N - 1)] @ x
    out[half:] = np.conj(out[1:N - half + 1][::-1])
    return SpectrumVector(out)


def _bit_reversal(count: int) -> np.ndarray:
    """The bit-reversal permutation of ``range(count)``, a power of two."""
    reversal = np.zeros(1, dtype=np.intp)
    while reversal.size < count:
        reversal = np.concatenate([2 * reversal, 2 * reversal + 1])
    return reversal


def _leaf_columns(signal: RealSignal, n_q: int) -> np.ndarray:
    """The ``2**(n-n_q)`` leaves as the columns of one ``(2**n_q, R)`` view,
    in natural order: column ``c`` is leaf ``bitrev(c)`` of
    :func:`decimate_leaves`."""
    _check_node_size(signal.n, n_q)
    return signal.values.reshape(2**n_q, 2 ** (signal.n - n_q))


def decimate_leaves(signal: RealSignal, n_q: int) -> list[RealSignal]:
    """Split a signal into ``2**(n-n_q)`` decimation-in-time leaves.

    Leaf ``r`` holds the samples whose index is congruent to the
    bit-reversed value of ``r`` modulo ``2**(n-n_q)``, in increasing order,
    so adjacent leaves are even/odd partners at every combine level.
    """
    columns = _leaf_columns(signal, n_q)
    return [RealSignal.from_values(columns[:, c]) for c in _bit_reversal(columns.shape[1])]


def _combine_level(spec, stderr, roots, ledger, out):
    """One radix-2 level over the column pairs ``(c, c + R/2)`` of an ``(h, R)``
    spectrum held as ``(S, R, J)``, coefficient ``s*J + j`` of column ``c``
    at ``[s, c, j]``: ``y_k = even[k % h] + roots[k] * odd[k % h]``; one
    classical op per output coefficient.  ``roots[k + h] = -roots[k]``, so
    each pair takes one product ``roots[k] * odd[k]`` and yields ``even[k]``
    plus and minus it, the two halves of the ``(2S, R/2, J)`` output written
    into the leading elements of the flat complex ``out``."""
    (S, R, J), half = spec.shape, spec.shape[1] // 2
    even, odd = spec[:, :half], spec[:, half:]
    out = out[: spec.size].reshape(2, S, half, J)
    product = np.multiply(odd, roots[: S * J].reshape(S, 1, J), out=out[1])
    np.add(even, product, out=out[0])
    np.subtract(even, product, out=out[1])
    spec = out.reshape(2 * S, half, J)
    if stderr is not None:
        paired = np.sqrt(stderr[:, :half] ** 2 + stderr[:, half:] ** 2)
        stderr = np.concatenate([paired, paired], axis=0)
    if ledger is not None:
        ledger.classical_ops += spec.size
    return spec, stderr


def _roots(size: int) -> np.ndarray:
    """The ``size`` roots of unity ``exp(+2*pi*i*k/size)``."""
    return np.exp(2j * np.pi * np.arange(size) / size)


def _combine_levels(spec, stderr, ledger, work):
    """Combine the natural-order columns of the ``(h, R)`` array ``spec``
    level by level into one spectrum.

    Each level's roots are a strided view of ``work.roots``, the table of
    ``spec.size``, the size of ``work``, built by the first level: the
    strides are powers of two, so they equal ``_roots(2 * h)`` bit for bit.
    The levels hold ``spec`` as ``(h, R, 1)`` while ``R >= h``, then
    transpose it once, to ``(1, R, h)``; ``stderr`` stays ``(h, R)``.  The
    transpose and the levels ping-pong between ``work.r1`` and
    ``work.product``, which must not hold ``spec``; only the last level
    writes a new array, the returned spectrum.
    """
    spec = (spec if spec.shape[1] > 1 else spec.copy())[:, :, None]  # no level: spec may be a work array
    ping, pong = work.r1, work.product
    while spec.shape[1] > 1:
        S, R, J = spec.shape
        if R < S and J == 1:  # rows shorter than their count: turn them, once
            turned = _shaped(ping, (1, R, S))
            turned[0] = spec[:, :, 0].T
            spec, ping, pong = turned, pong, ping
        out = ping if R > 2 else np.empty(spec.size, complex)
        if work.roots is None:
            work.roots = _roots(spec.size)
        spec, stderr = _combine_level(spec, stderr, work.roots[:: R // 2], ledger, out)
        ping, pong = pong, ping
    return SpectrumVector(spec.reshape(-1), None if stderr is None else stderr[:, 0])


def butterfly_combine(
    even: SpectrumVector,
    odd: SpectrumVector,
    ledger: CostLedger | None = None,
) -> SpectrumVector:
    """One radix-2 combine: ``y_k = even[k % h] + w**k * odd[k % h]``, with
    ``w = exp(+2*pi*i/(2h))``.

    Charges one classical op per output coefficient.
    """
    h = even.size
    if odd.size != h:
        raise ValueError(f"half sizes differ: {h} vs {odd.size}")
    stderr = None
    if even.stderr is not None and odd.stderr is not None:
        stderr = np.stack([even.stderr, odd.stderr], axis=1)
    values, stderr = _combine_level(
        np.stack([even.values, odd.values], axis=1)[:, :, None], stderr, _roots(2 * h), ledger,
        np.empty(2 * h, complex),
    )
    return SpectrumVector(values.reshape(-1), None if stderr is None else stderr[:, 0])


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
    work = _work_arrays(signal.size)
    leaves = _leaf_columns(signal, plan.n_q)
    if plan.n_q == 0:
        spec = _shaped(work.spectrum, leaves.shape)
        spec[...] = leaves
        stderr = np.zeros(leaves.shape) if plan.shots else None
    else:
        seeds = None
        if plan.shots:
            # Column c is leaf bitrev(c), and a leaf's seed follows its index.
            leaf_of_column = _bit_reversal(leaves.shape[1]).tolist()
            seeds = [derive_seed(plan.master_seed, r) for r in leaf_of_column]
        spec, stderr = _evaluate_nodes(work, leaves, plan.shots, seeds, ledger)
    spectrum = _combine_levels(spec, stderr, ledger, work)
    ledger.classical_bits = 2**plan.n * plan.n_precision
    ledger.qubit_count = plan.n_q + 1
    return spectrum, ledger
