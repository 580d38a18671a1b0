"""Operation-count ledgers, closed-form cost forecasts, and scaling fits.

Every charge in the simulator uses a fixed integer convention (constant 1
unless stated otherwise) so that measured counters can be asserted equal to
the forecast terms, not merely proportional:

* one classical op per butterfly output coefficient per combine level,
* ``n_q**2 * 2**n_q`` state-prep units per quantum-node load,
* the standard circuit gate count ``n_q(n_q+1)/2 + floor(n_q/2)`` per QFT,
* one quantum oracle query per Grover-operator application.

Retry, repeat-access, residual-sweep and classical-fallback costs live in
their own counters so the headline counters stay directly comparable to the
forecasts.  A node with ``k`` classical fallbacks is charged the cheaper of
the two classical conventions, ``min(k, n_q) * 2**n_q`` fallback ops: ``k``
direct sums of ``2**n_q`` ops, or one ``2**n_q``-point transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "CostLedger",
    "CostForecast",
    "merge_ledgers",
    "predict_search_cost",
    "predict_dft_cost",
    "fit_scaling_exponent",
]


@dataclass
class CostLedger:
    """Integer counters for one run or one unit of work.

    A run charges one ledger; ledgers kept apart for separate units are
    summed with :func:`merge_ledgers`.  A ledger is never shared between
    concurrent units.
    """

    quantum_gate_units: int = 0
    state_prep_units: int = 0
    classical_ops: int = 0
    quantum_oracle_queries: int = 0
    classical_oracle_queries: int = 0
    measurement_units: int = 0
    node_accesses: int = 0
    # Adjustment counters, kept apart from the headline ones above.
    retry_queries: int = 0
    repeat_node_accesses: int = 0
    sweep_queries: int = 0
    fallback_ops: int = 0
    classical_fallbacks: int = 0
    # Resource footprint (set once per run, not accumulated per work unit).
    classical_bits: int = 0
    qubit_count: int = 0

    def __post_init__(self) -> None:
        for name in _COUNTERS:
            if getattr(self, name) < 0:
                raise ValueError(f"counter {name} must be non-negative")

    @property
    def headline_quantum_queries(self) -> int:
        """Quantum oracle queries excluding retry overhead."""
        return self.quantum_oracle_queries - self.retry_queries

    def memory_ratio(self) -> float:
        """Classical bits per qubit, the space comparison of the two sides."""
        if self.qubit_count == 0:
            return float("inf") if self.classical_bits else 0.0
        return self.classical_bits / self.qubit_count

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _COUNTERS}

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return _COUNTERS


# The counter names in field order, read once instead of per ledger.
_COUNTERS = tuple(f.name for f in fields(CostLedger))


def merge_ledgers(ledgers) -> CostLedger:
    """Componentwise sum of ledgers; ``qubit_count`` takes the maximum.

    The empty merge is the all-zero ledger, and the operation is commutative
    and associative, so concurrent work units may be merged in any order.
    """
    out = CostLedger()
    for led in ledgers:
        for name in _COUNTERS:
            if name == "qubit_count":
                out.qubit_count = max(out.qubit_count, led.qubit_count)
            else:
                setattr(out, name, getattr(out, name) + getattr(led, name))
    return out


@dataclass(frozen=True)
class CostForecast:
    """Named integer cost terms evaluated at ``(n, n_q)``."""

    algorithm: str
    n: int
    n_q: int
    terms: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in self.terms.items():
            if value < 0:
                raise ValueError(f"forecast term {name} is negative")


# Shared by the forecasts, the transform and the search.
def _check_node_size(n: int, n_q: int) -> None:
    """Raise ``ValueError`` unless ``0 <= n_q <= n``."""
    if not 0 <= n_q <= n:
        raise ValueError(f"n_q={n_q} out of range for n={n}")


def predict_search_cost(n: int, n_q: int) -> CostForecast:
    """Forecast the partitioned search cost at ``(n, n_q)``.

    ``headline_quantum_queries`` is node accesses times the per-node Grover
    iteration count for a single assumed solution.  ``total_queries`` adds
    the one classical verification each node access performs, which is what
    makes the degenerate ``n_q = 0`` end of the range carry the classical
    ``2**n`` cost and keeps the total non-increasing in ``n_q``.
    """
    from .search import plan_iterations  # local import avoids a cycle

    _check_node_size(n, n_q)
    accesses = 2 ** (n - n_q)
    per_node = plan_iterations(2**n_q, 1)
    return CostForecast(
        algorithm="search",
        n=n,
        n_q=n_q,
        terms={
            "node_accesses": accesses,
            "per_node_quantum_queries": per_node,
            "headline_quantum_queries": accesses * per_node,
            "per_node_total_queries": per_node + 1,
            "total_queries": accesses * (per_node + 1),
        },
    )


def predict_dft_cost(n: int, n_q: int) -> CostForecast:
    """Forecast the hybrid transform cost at ``(n, n_q)``.

    Terms: state preparation ``n_q**2 * 2**n``, QFT gates
    ``2**(n-n_q) * (n_q(n_q+1)/2 + floor(n_q/2))`` and classical butterfly
    ops ``(n-n_q) * 2**n``.  At ``n_q = 0`` the quantum terms vanish and the
    classical term is the plain FFT cost ``n * 2**n``; at ``n_q = n`` the
    classical term is zero.
    """
    _check_node_size(n, n_q)
    leaves = 2 ** (n - n_q)
    prep = n_q**2 * 2**n
    qft = leaves * (n_q * (n_q + 1) // 2 + n_q // 2)
    classical = (n - n_q) * 2**n
    return CostForecast(
        algorithm="dft",
        n=n,
        n_q=n_q,
        terms={
            "state_prep_units": prep,
            "quantum_gate_units": qft,
            "classical_ops": classical,
            "node_accesses": leaves if n_q > 0 else 0,
            "measurement_units": 2 ** (n + 1) if n_q > 0 else 0,
            "total": prep + qft + classical,
        },
    )


def fit_scaling_exponent(points) -> float:
    """Least-squares slope of ``log2(counter)`` against ``n_q``.

    ``points`` is a sequence of ``(n_q, counter)`` pairs; at least three are
    required and every counter must be positive.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a slope")
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    if np.any(ys <= 0):
        raise ValueError("all counter values must be positive")
    slope, _ = np.polyfit(xs, np.log2(ys), 1)
    return float(slope)
