"""Hybrid transform: quantum-node leaves plus classical butterfly levels.

A length-``2**n`` real signal is decimated in time down to ``2**(n-n_q)``
leaves of size ``2**n_q``.  Each nonzero leaf is evaluated on a simulated
quantum node (encode, controlled transform, readout, sign rebuild) and the
results are recombined through ``n - n_q`` classical butterfly levels.  With
``n_q = 0`` the whole computation is a plain FFT; with
``n_q = n`` it is a single node evaluation.  The sign convention is
``y_k = sum_j x_j exp(+2*pi*i*k*j/N)`` throughout.  The signal and its
leaves are one type, :class:`~hqsim.readout.RealSignal`, and a plan's
``shots`` alone picks exact (0) or sampled node readout.

Every stage works on arrays.  The signal reshaped to ``(2**n_q, R)`` holds
the leaves as its columns in natural order: column ``c`` is the subsequence
of samples congruent to ``c`` modulo ``R = 2**(n-n_q)``, so no permutation
is needed.  The batched node stage (:func:`~hqsim.readout.evaluate_nodes`)
transforms every column at once.  The ``n - n_q`` butterfly levels that
combine the columns compute one linear map, which runs in the four-step
arrangement (Bailey, "FFTs in external or hierarchical memory",
J. Supercomputing 4, 1990): one pass multiplies the transposed leaf spectra
by their twiddles, into one of the node stage's work arrays
(:mod:`hqsim.readout`), which also keep each node size's twiddle table, and
one ``R``-point transform, numpy's inverse FFT without scaling, writes the
returned spectrum in natural order.  The ledger charges one classical op
per coefficient per level; sampled standard errors add in quadrature, to
``sqrt(sum_c stderr[k1, c]**2)`` at every coefficient ``k1 + h*k2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_seed, run_key
from .costs import CostLedger, _check_node_size
from .readout import RealSignal, _WorkArrays, _evaluate_nodes, _shaped, _work_arrays

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
        check_seed(self.master_seed, "master_seed")
        if self.shots < 0:
            raise ValueError(f"shots must be >= 0, got {self.shots}")


# Elements of one temporary block: direct_dft's phases, or per-call twiddles.
_BLOCK_ELEMENTS = 2**16


def direct_dft(signal: RealSignal) -> SpectrumVector:
    """O(N**2) reference transform straight from the definition.

    The phase index ``k*j mod N`` is reduced in integers and looks up one
    table of the N roots of unity, so no phase is a large float product.
    The signal is real, so only ``k <= N/2`` is summed and ``out[N-k]`` is
    the conjugate of ``out[k]``.  Rows are taken in blocks, so temporaries
    stay within ``_BLOCK_ELEMENTS`` elements per block.  The root
    table is built here, not shared with the butterflies this reference
    checks.
    """
    N = signal.size
    roots = np.exp(2j * np.pi * np.arange(N) / N)
    j = np.arange(N)
    x = signal.values.astype(complex)
    out = np.empty(N, dtype=complex)
    half = N // 2 + 1
    rows = max(1, _BLOCK_ELEMENTS // N)
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


def _twiddles(h: int, N: int, entries: np.ndarray) -> np.ndarray:
    """The twiddles of the flat ``entries`` of an ``(N/h, h)`` array: entry
    ``c*h + k1`` is ``exp(+2*pi*i*c*k1/N)``, whose phase index ``c*k1`` is
    below N."""
    c, k1 = np.divmod(entries, h)
    return np.exp(2j * np.pi * (c * k1) / N)


def _twiddled(spec, work):
    """The ``(h, R)`` leaf spectra transposed to ``(R, h)`` and multiplied by
    their twiddles into ``work.r1``, which must not hold ``spec``.  The kept
    workspace keeps each ``h``'s table in ``work.twiddles``; one built per
    call has none, and builds its twiddles in blocks of ``_BLOCK_ELEMENTS``."""
    (h, R), N = spec.shape, spec.size
    t = _shaped(work.r1, (R, h))
    if work.twiddles is not None:
        if h not in work.twiddles:
            work.twiddles[h] = _twiddles(h, N, np.arange(N)).reshape(R, h)
        return np.multiply(spec.T, work.twiddles[h], out=t)
    t[...] = spec.T
    flat = t.reshape(-1)
    for start in range(0, N, _BLOCK_ELEMENTS):
        flat[start : start + _BLOCK_ELEMENTS] *= _twiddles(h, N, np.arange(start, min(start + _BLOCK_ELEMENTS, N)))
    return t


def _combine_levels(spec, ledger, work):
    """Combine the natural-order leaf spectra, the columns of the ``(h, R)``
    array ``spec``, into one spectrum of ``N = h*R`` coefficients.

    The ``log2(R)`` radix-2 levels compute one linear map, which the
    four-step arrangement runs as one twiddle pass and one ``R``-point
    transform: ``y[k1 + h*k2] = sum_c w_R**(c*k2) * w_N**(c*k1) *
    spec[k1, c]``, ``w_M = exp(+2*pi*i/M)``.  numpy's inverse FFT without
    scaling is that transform along axis 0 of the ``(R, h)`` twiddled array
    (:func:`_twiddled`), and its ``(R, h)`` result is the spectrum in
    natural order, the only new array held at once.  The ledger charges one
    classical op per coefficient per level.
    """
    h, R = spec.shape
    if R == 1:
        return spec[:, 0].astype(complex)  # a copy: spec may be a work array
    values = np.fft.ifft(t := _twiddled(spec, work), axis=0, norm="forward")
    if not values.flags.c_contiguous:
        # numpy 1.x returns a transposed view: reorder it in t, dead by now.
        t[...] = values
        del values
        values = t.copy()
    if ledger is not None:
        ledger.classical_ops += (R.bit_length() - 1) * spec.size
    return values.reshape(-1)


def _combined_stderr(stderr):
    """The errors of :func:`_combine_levels`' outputs from the ``(h, R)`` leaf
    errors; twiddles have modulus one, and one leaf's errors pass through."""
    R = stderr.shape[1]
    return stderr[:, 0] if R == 1 else np.tile(np.sqrt(np.sum(stderr * stderr, axis=1)), R)


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
        stderr = _combined_stderr(np.stack([even.stderr, odd.stderr], axis=1))
    spec = np.stack([even.values, odd.values], axis=1)
    return SpectrumVector(_combine_levels(spec, ledger, _WorkArrays(2 * h)), stderr)


def hybrid_dft(signal: RealSignal, plan: FftPlan) -> tuple[SpectrumVector, CostLedger]:
    """Run the transform with ``2**n_q``-point quantum leaves.

    Zero leaves short-circuit to zero spectra without touching the node.
    With ``n_q = 0`` the quantum stage is skipped entirely and the plain FFT
    levels run on the single-sample leaves.  Leaf ``r`` draws from the
    Philox key ``run_key(master_seed) + r`` (:mod:`hqsim.core`), so results
    do not depend on how the leaves are batched.
    """
    if plan.n != signal.n:
        raise ValueError(f"plan built for n={plan.n}, signal has n={signal.n}")
    ledger = CostLedger()
    work = _work_arrays(signal.size)
    leaves = _leaf_columns(signal, plan.n_q)
    if plan.n_q == 0:
        spec, stderr = leaves, (np.zeros(leaves.shape) if plan.shots else None)
    else:
        seeds = None
        if plan.shots:
            # Column c is leaf bitrev(c), and a leaf's key follows its index.
            key = run_key(plan.master_seed)
            seeds = [key + r for r in _bit_reversal(leaves.shape[1]).tolist()]
        spec, stderr = _evaluate_nodes(work, leaves, plan.shots, seeds, ledger)
    values = _combine_levels(spec, ledger, work)
    spectrum = SpectrumVector(values, None if stderr is None else _combined_stderr(stderr))
    ledger.classical_bits = 2**plan.n * plan.n_precision
    ledger.qubit_count = plan.n_q + 1
    return spectrum, ledger
