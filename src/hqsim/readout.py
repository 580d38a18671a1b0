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

The node stage is batched: :func:`evaluate_nodes` takes every block of a run
as one ``(L, 2**n_q)`` array, runs the circuit on an ``(L, 2, ..., 2)``
tensor and evaluates the schedule with index arithmetic over its fixed
layout, so no effect objects are built per entry.  :func:`execute_schedule`
and :func:`rebuild_phases` are batch-of-one wrappers round the same code
that keep the ``(projector, role)``-keyed record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Hadamard,
    MeasurementEffect,
    StateVector,
    apply_circuit_batch,
    build_qft_circuit,
    shift_gates,
)
from .costs import CostLedger

__all__ = [
    "BlockVector",
    "ScheduleEntry",
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
class ScheduleEntry:
    projector_index: int
    data_projector: MeasurementEffect
    ancilla_phase: float
    role: str
    target: str


@dataclass(frozen=True, eq=False)
class ReadoutSchedule:
    """Ordered projection/measurement plan: two entries per data projector."""

    n_q: int
    projectors: tuple[MeasurementEffect, ...]
    entries: tuple[ScheduleEntry, ...]


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
    specs: list[tuple[MeasurementEffect, float, str]] = [
        (MeasurementEffect.basis(n_q, 0), 0.0, "k0"),
        (MeasurementEffect.basis(n_q, N // 2), 0.0, f"k{N // 2}"),
    ]
    for k in range(1, N // 2):
        plus = MeasurementEffect.superposition(n_q, [(k, _INV_SQRT2), (N - k, _INV_SQRT2)])
        minus = MeasurementEffect.superposition(n_q, [(k, _INV_SQRT2), (N - k, -_INV_SQRT2)])
        specs.append((plus, 0.0, f"k{k}_re"))
        specs.append((minus, math.pi / 2, f"k{k}_im"))
    entries = []
    for pi, (projector, phase, target) in enumerate(specs):
        entries.append(ScheduleEntry(pi, projector, phase, ROLE_MAGNITUDE, target))
        entries.append(ScheduleEntry(pi, projector, phase, ROLE_REFERENCE, target))
    return ReadoutSchedule(n_q, tuple(s[0] for s in specs), tuple(entries))


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


def _projector_order(first, half, plus, minus) -> np.ndarray:
    """Lay per-projector values out in build_schedule's order: index 0,
    index N/2, then the plus and minus projector of each pair (k, N-k)."""
    out = np.empty(first.shape + (2 * plus.shape[-1] + 2,), dtype=np.result_type(first, plus))
    out[..., 0] = first
    out[..., 1] = half
    out[..., 2::2] = plus
    out[..., 3::2] = minus
    return out


def _pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns ``k`` and ``N-k`` of every row for ``k = 1 .. N/2-1``."""
    N = rows.shape[-1]
    return rows[..., 1:N // 2], rows[..., N - 1:N // 2:-1]


def _hermitian(first, half, pairs) -> np.ndarray:
    """Rows with index 0 and N/2 set to ``first`` and ``half``, indices
    ``k = 1 .. N/2-1`` to ``pairs`` and ``N-k`` to their conjugates."""
    h = pairs.shape[1] + 1
    out = np.empty((len(pairs), 2 * h), dtype=pairs.dtype)
    out[:, 0] = first
    out[:, h] = half
    out[:, 1:h] = pairs
    out[:, :h:-1] = np.conj(pairs)
    return out


def _coefficient_index(N: int) -> np.ndarray:
    """The transform coefficient each projector reads."""
    k = np.arange(1, N // 2)
    return _projector_order(np.array(0), np.array(N // 2), k, k)


def _square(values: np.ndarray) -> np.ndarray:
    # Python's float ``x ** 2`` calls libm pow, which can round differently
    # from ``x * x``.  float_power calls pow too, so these squares equal the
    # scalar ``abs(amp) ** 2`` of core.effect_probability.
    return np.float_power(values, 2.0)


def _measure(
    x: np.ndarray, shots: int, seeds, ledger: CostLedger | None
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
    n_q = N.bit_length() - 1
    rows = np.zeros((L, 2 * N), dtype=complex)
    rows[:, :N] = x  # ancilla |0> branch; the ancilla is qubit 0
    apply_circuit_batch(rows, [Hadamard(0)])
    apply_circuit_batch(rows, shift_gates(build_qft_circuit(n_q), 1), control=0)
    if ledger is not None:
        ledger.quantum_gate_units += L * (n_q * (n_q + 1) // 2 + n_q // 2)
        ledger.measurement_units += L * 2 * N

    # Ancilla residual (r0, r1) of each data projector.
    psi = rows.reshape(L, 2, N)
    up, down = (_INV_SQRT2 * v for v in _pairs(psi))
    residual = _projector_order(psi[..., 0], psi[..., N // 2], up + down, up - down)
    r0, r1 = residual[:, 0], residual[:, 1]
    # conj of the reference ancilla's |1> coefficient e^{i*phi}/sqrt(2), with
    # phi = pi/2 on the minus projectors.
    weight = np.full(N, np.conj(complex(1.0, 0.0) * _INV_SQRT2))
    weight[3::2] = np.conj(complex(math.cos(math.pi / 2), math.sin(math.pi / 2)) * _INV_SQRT2)
    # <ref| r> = r0/sqrt(2) + weight*r1, in real arithmetic in the order of
    # the scalar complex product (numpy's vectorized one may fuse
    # multiply-adds), so exact values equal core.effect_probability's.
    ref_re = _INV_SQRT2 * r0.real + (weight.real * r1.real - weight.imag * r1.imag)
    ref_im = _INV_SQRT2 * r0.imag + (weight.real * r1.imag + weight.imag * r1.real)
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
    L, N = x.shape
    x_k, x_nk = _pairs(x)
    a = _projector_order(x[:, 0], x[:, N // 2], (x_k + x_nk) * _INV_SQRT2, (x_k - x_nk) * _INV_SQRT2)
    mag = np.maximum(magnitude, 0.0)
    b_abs = np.sqrt(2.0 * mag)
    pair = np.arange(N) >= 2
    # Nearest hypothesis (a + s|b|)**2 / 4 to the reference picks the sign.
    plus = _square(a + b_abs) / 4.0
    minus = _square(a - b_abs) / 4.0
    sign = np.where(np.abs(reference - plus) <= np.abs(reference - minus), 1.0, -1.0)
    values = sign * np.where(pair, b_abs * _INV_SQRT2, b_abs)

    fallback = (np.abs(a) < eps_ref) & (b_abs >= eps_ref)
    index = _coefficient_index(N)
    for row, p in zip(*np.nonzero(fallback)):
        c = _classical_coefficient(x[row], int(index[p]))
        values[row, p] = c.imag if p >= 3 and p % 2 else c.real
    fallbacks = int(np.count_nonzero(fallback))
    if ledger is not None:
        ledger.fallback_ops += fallbacks * N
        ledger.classical_fallbacks += fallbacks

    pairs = np.empty((L, N // 2 - 1), dtype=complex)
    pairs.real, pairs.imag = values[:, 2::2], values[:, 3::2]
    coefficients = _hermitian(values[:, 0], values[:, 1], pairs)
    if not shots:
        return coefficients, None, fallback

    # The part value is |b| on self-conjugate projectors and |b|/sqrt(2) on
    # pair projectors; a fallback value carries no shot noise.
    spread = np.maximum(1.0 - mag, 0.0) / shots
    variance = np.where(pair, spread / 4.0, spread / 2.0)
    variance[fallback] = 0.0
    variances = _hermitian(variance[:, 0], variance[:, 1], variance[:, 2::2] + variance[:, 3::2])
    return coefficients, np.sqrt(variances), fallback


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
    live_seeds = [seed for seed, keep in zip(seeds, live) if keep] if shots else None
    magnitude, reference = _measure(x, shots, live_seeds, ledger)
    coefficients, stderr, _ = _rebuild(x, magnitude, reference, shots, _default_eps(shots), ledger)
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
    The entries follow the fixed layout of :func:`build_schedule`.
    """
    if block.n_q != schedule.n_q:
        raise ValueError(
            f"schedule built for n_q={schedule.n_q}, block has n_q={block.n_q}"
        )
    shots = _check_mode(mode, shots)
    x = _encode(block.values[None, :], np.array([block.norm]), ledger)
    magnitude, reference = _measure(x, shots, [seed], ledger)
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
    n_q = schedule.n_q
    N = 2**n_q
    if block.n_q != n_q:
        raise ValueError("record and block sizes differ")
    for entry in schedule.entries:
        if (entry.projector_index, entry.role) not in record.measurements:
            raise ValueError(
                f"record is missing entry {(entry.projector_index, entry.role)}"
            )
    shots = record.shots if record.mode == "sampled" else 0
    if eps_ref is None:
        eps_ref = _default_eps(shots)

    m = record.measurements
    magnitude = np.array([[m[(pi, ROLE_MAGNITUDE)] for pi in range(N)]], dtype=float)
    reference = np.array([[m[(pi, ROLE_REFERENCE)] for pi in range(N)]], dtype=float)
    x = block.values[None, :] / block.norm
    coefficients, stderr, fallback = _rebuild(x, magnitude, reference, shots, eps_ref, ledger)
    return SpectrumEstimate(
        coefficients=coefficients[0],
        scale=block.norm * math.sqrt(N),
        ambiguous=frozenset(_coefficient_index(N)[fallback[0]].tolist()),
        classical_fallbacks=int(np.count_nonzero(fallback)),
        stderr=None if stderr is None else stderr[0],
    )


def rescale_to_dft(estimate: SpectrumEstimate) -> np.ndarray:
    """Undo the two normalizations: returns the unnormalized transform of
    the original block values."""
    return estimate.scale * estimate.coefficients
