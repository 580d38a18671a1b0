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
takes every block of a run as one ``(L, 2**n_q)`` array, runs the circuit on
an ``(L, 2, ..., 2)`` tensor and reads every projector of every block
through the schedule's arrays, so no effect objects are built per entry.
:func:`execute_schedule` and :func:`rebuild_phases` are batch-of-one
wrappers round the same code that keep the ``(projector, role)``-keyed
record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Hadamard, StateVector, apply_circuit_batch, build_qft_circuit
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
    "EPS_REF_EXACT",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

EPS_REF_EXACT = 1e-9

ROLE_MAGNITUDE = "magnitude"
ROLE_REFERENCE = "reference"


@dataclass(eq=False)
class BlockVector:
    """Real vector of length ``2**n_q`` with its Euclidean norm recorded."""

    values: np.ndarray
    norm: float

    @classmethod
    def from_values(cls, values) -> "BlockVector":
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size < 1 or vals.size & (vals.size - 1):
            raise ValueError(f"block length must be a power of two, got {vals.shape}")
        return cls(vals, float(_row_norms(vals[None, :])[0]))

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
    """Measured joint probabilities keyed by (projector index, role)."""

    schedule: ReadoutSchedule
    measurements: dict
    mode: str
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
    normalized = _encode(block.values[None, :], np.array([block.norm]), ledger)
    return StateVector(block.n_q, normalized[0])


def build_schedule(n_q: int) -> ReadoutSchedule:
    """Projection/measurement schedule for a ``2**n_q``-point readout.

    Exactly ``N`` pairwise orthogonal data projectors with two entries each:
    the self-conjugate indices 0 and N/2 plus a conjugate pair (+, -) per
    index below N/2.
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
    return ReadoutSchedule(
        n_q=n_q,
        indices=np.stack([first, np.where(self_conjugate, first, N - first)], axis=1),
        signs=signs,
        scales=np.where(self_conjugate, 1.0, _INV_SQRT2),
        imaginary=imaginary,
        # The minus projectors' residual carries i*sqrt(2) times the
        # imaginary part, so their reference ancilla is rotated by pi/2.
        ancilla_phase=np.where(imaginary, math.pi / 2, 0.0),
    )


def _check_mode(mode: str, shots: int) -> int:
    """Validate a mode; returns the shot count, 0 in exact mode."""
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and shots < 1:
        raise ValueError("sampled mode needs shots >= 1")
    return shots if mode == "sampled" else 0


def _default_eps(shots: int) -> float:
    """Sign-test threshold: EPS_REF_EXACT, or three shot-noise deviations."""
    return 3.0 / math.sqrt(shots) if shots else EPS_REF_EXACT


def _row_norms(blocks: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, one dot product per row."""
    blocks = np.ascontiguousarray(blocks)
    return np.sqrt(np.matmul(blocks[:, None, :], blocks[:, :, None])[:, 0, 0])


def _encode(blocks: np.ndarray, norms: np.ndarray, ledger: CostLedger | None) -> np.ndarray:
    """Normalized rows; charges ``n_q**2 * 2**n_q`` state-prep units per row."""
    if np.any(norms == 0.0):
        raise ValueError("zero block cannot be amplitude-encoded")
    N = blocks.shape[1]
    n_q = N.bit_length() - 1
    if n_q < 1:
        raise ValueError("block must span at least one qubit")
    if ledger is not None:
        ledger.state_prep_units += len(blocks) * n_q**2 * N
    return blocks / norms[:, None]


def _project(schedule: ReadoutSchedule, rows: np.ndarray) -> np.ndarray:
    """Overlap of every row with every data projector, ``(..., N)`` in
    projector order.  The weights multiply before the sum, as in
    :func:`hqsim.core.project_data_register`."""
    # take keeps the result C-contiguous; fancy indexing would put the
    # projector axis outermost and slow every later step.
    first, second = schedule.indices.T
    weight = schedule.scales * schedule.signs
    return schedule.scales * rows.take(first, axis=-1) + weight * rows.take(second, axis=-1)


def _by_coefficient(schedule: ReadoutSchedule, values: np.ndarray) -> np.ndarray:
    """``(L, N/2+1)`` complex rows over coefficients ``0 .. N/2`` from
    ``(L, N)`` per-projector values: each projector's value goes to the real
    or imaginary part of the coefficient it yields."""
    out = np.zeros((len(values), 2 ** (schedule.n_q - 1) + 1), dtype=complex)
    # Viewed as floats, coefficient k's real part is column 2k, its
    # imaginary part column 2k + 1.
    out.view(float)[:, 2 * schedule.coefficient + schedule.imaginary] = values
    return out


def _hermitian(half: np.ndarray) -> np.ndarray:
    """Full rows from coefficients ``0 .. N/2`` of real signals: coefficient
    ``N-k`` is the conjugate of ``k``."""
    return np.concatenate([half, np.conj(half[:, -2:0:-1])], axis=1)


def _square(values: np.ndarray) -> np.ndarray:
    # Python's float ``x ** 2`` calls libm pow, which can round differently
    # from ``x * x``.  float_power calls pow too, so these squares equal the
    # scalar ``abs(amp) ** 2`` of core.effect_probability.
    return np.float_power(values, 2.0)


def _measure(
    schedule: ReadoutSchedule, x: np.ndarray, shots: int, seeds, ledger: CostLedger | None
) -> tuple[np.ndarray, np.ndarray]:
    """Joint probabilities of every normalized row: the magnitude and the
    reference entry of each projector, two ``(L, N)`` arrays in projector
    order.

    Every row gets the ancilla Hadamard and the controlled transform in one
    batch.  ``shots = 0`` gives exact values.  Otherwise each entry is a
    seeded binomial estimate: row ``i`` draws its 2N entry seeds in schedule
    order from ``seeds[i]``, and each entry draws once from its own
    generator.
    """
    L, N = x.shape
    n_q = schedule.n_q
    rows = np.zeros((L, 2 * N), dtype=complex)
    rows[:, :N] = x  # ancilla |0> branch; the ancilla is qubit 0
    apply_circuit_batch(rows, [Hadamard(0)])
    apply_circuit_batch(rows, [gate.shifted(1) for gate in build_qft_circuit(n_q)], control=0)
    if ledger is not None:
        ledger.quantum_gate_units += L * (n_q * (n_q + 1) // 2 + n_q // 2)
        ledger.measurement_units += L * 2 * N

    # Ancilla residual (r0, r1) of each data projector.
    residual = _project(schedule, rows.reshape(L, 2, N))
    r0, r1 = residual[:, 0], residual[:, 1]
    # conj of the reference ancilla's |1> coefficient e^{i*phi}/sqrt(2).
    w_re = np.cos(schedule.ancilla_phase) * _INV_SQRT2
    w_im = -np.sin(schedule.ancilla_phase) * _INV_SQRT2
    # <ref| r> = r0/sqrt(2) + w*r1, in real arithmetic in the order of the
    # scalar complex product that core.effect_probability computes (numpy's
    # vectorized one may fuse multiply-adds).
    ref_re = _INV_SQRT2 * r0.real + (w_re * r1.real - w_im * r1.imag)
    ref_im = _INV_SQRT2 * r0.imag + (w_re * r1.imag + w_im * r1.real)
    magnitude = _square(np.hypot(r1.real, r1.imag))
    reference = _square(np.hypot(ref_re, ref_im))
    if not shots:
        return magnitude, reference

    # Schedule order interleaves each projector's magnitude and reference.
    probabilities = np.clip(np.stack([magnitude, reference], axis=-1).reshape(L, 2 * N), 0.0, 1.0)
    counts = np.empty((L, 2 * N))
    for i, seed in enumerate(seeds):
        entry_seeds = np.random.default_rng(seed).integers(0, 2**63, size=2 * N)
        for j, (entry_seed, p) in enumerate(zip(entry_seeds.tolist(), probabilities[i].tolist())):
            counts[i, j] = np.random.default_rng(entry_seed).binomial(shots, p)
    estimates = counts / shots
    return estimates[:, 0::2], estimates[:, 1::2]


def _classical_coefficient(normalized: np.ndarray, k: int) -> complex:
    """One amplitude-level coefficient computed classically, 2**n_q ops."""
    N = normalized.size
    phases = np.exp(2j * np.pi * k * np.arange(N) / N)
    return complex(np.sum(normalized * phases) / math.sqrt(N))


def _rebuild(
    schedule: ReadoutSchedule,
    x: np.ndarray,
    magnitude: np.ndarray,
    reference: np.ndarray,
    shots: int,
    eps_ref: float,
    ledger: CostLedger | None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Signed amplitude-level coefficients of every row.

    Returns the ``(L, N)`` coefficients, their standard errors when
    ``shots`` is nonzero (sampled mode) or None, and the ``(L, N)`` mask of
    projectors resolved by the classical fallback.  ``|a| < eps_ref`` is a
    fallback unless ``|b|`` is below ``eps_ref`` too.
    """
    N = x.shape[1]
    # The classical reference a = (x_i + sign * x_j) * scale: the sum comes
    # before the weight, as in the scalar rebuild this replaced.
    first, second = schedule.indices.T
    a = (x.take(first, axis=1) + schedule.signs * x.take(second, axis=1)) * schedule.scales
    mag = np.maximum(magnitude, 0.0)
    b_abs = np.sqrt(2.0 * mag)
    pair = schedule.signs != 0
    # Nearest hypothesis (a + s|b|)**2 / 4 to the reference picks the sign.
    plus = _square(a + b_abs) / 4.0
    minus = _square(a - b_abs) / 4.0
    sign = np.where(np.abs(reference - plus) <= np.abs(reference - minus), 1.0, -1.0)
    values = sign * np.where(pair, b_abs * _INV_SQRT2, b_abs)

    fallback = (np.abs(a) < eps_ref) & (b_abs >= eps_ref)
    for row, p in zip(*np.nonzero(fallback)):
        c = _classical_coefficient(x[row], int(schedule.coefficient[p]))
        values[row, p] = c.imag if schedule.imaginary[p] else c.real
    fallbacks = int(np.count_nonzero(fallback))
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
    variance[fallback] = 0.0
    parts = _by_coefficient(schedule, variance)
    return coefficients, np.sqrt(_hermitian(parts.real + parts.imag)), fallback


def evaluate_nodes(
    blocks: np.ndarray,
    mode: str = "exact",
    shots: int = 0,
    seeds=None,
    ledger: CostLedger | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The node stage for every row of an ``(L, 2**n_q)`` real block array.

    Encodes the nonzero rows, runs the readout circuit and schedule on all
    of them as one batch, rebuilds their signs and undoes both
    normalizations.  Returns the ``(L, 2**n_q)`` unnormalized transforms and,
    in sampled mode, their standard errors (None in exact mode).  All-zero
    rows never touch the node: their transform is zero.  ``seeds`` holds one
    seed per row and is only read in sampled mode.  Charges every node
    counter as rows times unit, plus each fallback.
    """
    shots = _check_mode(mode, shots)
    L, N = blocks.shape
    norms = _row_norms(blocks)
    live = norms != 0.0
    x = _encode(blocks[live], norms[live], ledger)
    schedule = build_schedule(N.bit_length() - 1)
    live_seeds = [seed for seed, keep in zip(seeds, live) if keep] if shots else None
    magnitude, reference = _measure(schedule, x, shots, live_seeds, ledger)
    coefficients, stderr, _ = _rebuild(
        schedule, x, magnitude, reference, shots, _default_eps(shots), ledger
    )
    if ledger is not None:
        ledger.node_accesses += len(x)
    scale = norms[live, None] * math.sqrt(N)
    values = np.zeros((L, N), dtype=complex)
    values[live] = coefficients * scale
    if stderr is None:
        return values, None
    errors = np.zeros((L, N))
    errors[live] = stderr * scale
    return values, errors


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
    controlled transform, then evaluates each (projector, role) joint
    probability, exactly or as a seeded binomial estimate in sampled mode.
    Projector ``p`` of ``schedule`` fills the keys ``(p, "magnitude")`` and
    ``(p, "reference")``.
    """
    if block.n_q != schedule.n_q:
        raise ValueError(
            f"schedule built for n_q={schedule.n_q}, block has n_q={block.n_q}"
        )
    shots = _check_mode(mode, shots)
    x = _encode(block.values[None, :], np.array([block.norm]), ledger)
    magnitude, reference = _measure(schedule, x, shots, [seed], ledger)
    measurements = {}
    for pi, (m, r) in enumerate(zip(magnitude[0].tolist(), reference[0].tolist())):
        measurements[(pi, ROLE_MAGNITUDE)] = m
        measurements[(pi, ROLE_REFERENCE)] = r
    return ReadoutRecord(schedule, measurements, mode, shots, seed)


def rebuild_phases(
    record: ReadoutRecord,
    block: BlockVector,
    ledger: CostLedger | None = None,
    eps_ref: float | None = None,
) -> SpectrumEstimate:
    """Turn a readout record into signed complex coefficients.

    A batch of one through the sign rebuild of :func:`evaluate_nodes`.  For
    each projector the magnitude entry fixes ``|b| = sqrt(2*m)`` and the
    sign comes from whichever hypothesis ``(a + s|b|)**2 / 4`` lies nearest
    the reference entry.  When ``|a| < eps_ref`` the hypotheses coincide;
    the coefficient is flagged ambiguous and evaluated classically instead,
    charging ``2**n_q`` classical ops to the fallback counter.
    """
    schedule = record.schedule
    N = 2**schedule.n_q
    if block.n_q != schedule.n_q:
        raise ValueError("record and block sizes differ")
    shots = record.shots if record.mode == "sampled" else 0
    if eps_ref is None:
        eps_ref = _default_eps(shots)

    m = record.measurements
    try:
        magnitude = np.array([[m[(pi, ROLE_MAGNITUDE)] for pi in range(N)]], dtype=float)
        reference = np.array([[m[(pi, ROLE_REFERENCE)] for pi in range(N)]], dtype=float)
    except KeyError as exc:
        raise ValueError(f"record is missing entry {exc.args[0]}") from None
    x = block.values[None, :] / block.norm
    coefficients, stderr, fallback = _rebuild(
        schedule, x, magnitude, reference, shots, eps_ref, ledger
    )
    return SpectrumEstimate(
        coefficients=coefficients[0],
        scale=block.norm * math.sqrt(N),
        ambiguous=frozenset(schedule.coefficient[fallback[0]].tolist()),
        classical_fallbacks=int(np.count_nonzero(fallback)),
        stderr=None if stderr is None else stderr[0],
    )


def rescale_to_dft(estimate: SpectrumEstimate) -> np.ndarray:
    """Undo the two normalizations: returns the unnormalized transform of
    the original block values."""
    return estimate.scale * estimate.coefficients
