import dataclasses

import numpy as np
import pytest

from hqsim.costs import (
    CostForecast,
    CostLedger,
    fit_scaling_exponent,
    merge_ledgers,
    predict_dft_cost,
    predict_search_cost,
)


def test_ledger_rejects_negative_counters():
    with pytest.raises(ValueError):
        CostLedger(classical_ops=-1)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CostLedger)])
def test_every_counter_refuses_minus_one(name):
    with pytest.raises(ValueError, match=f"^counter {name} must be non-negative$"):
        CostLedger(**{name: -1})
    assert getattr(CostLedger(**{name: 0}), name) == 0


def test_merge_empty_is_zero():
    merged = merge_ledgers([])
    assert all(v == 0 for v in merged.as_dict().values())


def test_merge_single_is_identity():
    led = CostLedger(classical_ops=3, quantum_oracle_queries=5, qubit_count=4)
    assert merge_ledgers([led]).as_dict() == led.as_dict()


def test_merge_is_order_independent():
    rng = np.random.default_rng(2)
    ledgers = [
        CostLedger(
            classical_ops=int(rng.integers(0, 100)),
            quantum_gate_units=int(rng.integers(0, 100)),
            qubit_count=int(rng.integers(1, 8)),
        )
        for _ in range(3)
    ]
    a = merge_ledgers(ledgers).as_dict()
    b = merge_ledgers(ledgers[::-1]).as_dict()
    c = merge_ledgers([ledgers[1], ledgers[0], ledgers[2]]).as_dict()
    assert a == b == c


def test_merge_sums_counters_and_maxes_qubits():
    a = CostLedger(classical_ops=3, qubit_count=2)
    b = CostLedger(classical_ops=4, qubit_count=5)
    merged = merge_ledgers([a, b])
    assert merged.classical_ops == 7
    assert merged.qubit_count == 5


def test_field_names_are_the_dict_keys_in_order():
    # The benchmark parses the CLI's CSV columns by these names.
    led = CostLedger(classical_ops=3, qubit_count=4)
    assert CostLedger.field_names() == tuple(led.as_dict())


def test_headline_property():
    led = CostLedger(quantum_oracle_queries=10, retry_queries=4)
    assert led.headline_quantum_queries == 6


def test_memory_ratio():
    led = CostLedger(classical_bits=2**10 * 64, qubit_count=5)
    assert led.memory_ratio() == 2**10 * 64 / 5


# --- search forecasts --------------------------------------------------------

def test_search_forecast_full_register():
    terms = predict_search_cost(4, 4).terms
    assert terms["node_accesses"] == 1
    assert terms["per_node_quantum_queries"] == 3
    assert terms["headline_quantum_queries"] == 3


def test_search_forecast_degenerate_classical():
    terms = predict_search_cost(4, 0).terms
    assert terms["node_accesses"] == 16
    assert terms["per_node_quantum_queries"] == 0
    assert terms["headline_quantum_queries"] == 0
    # The one classical test per access carries the classical 2**n cost.
    assert terms["total_queries"] == 16


def test_search_forecast_n10_nq4():
    terms = predict_search_cost(10, 4).terms
    assert terms["headline_quantum_queries"] == 64 * 3 == 192


def test_search_forecast_total_monotone():
    for n in (4, 8, 10, 12):
        totals = [predict_search_cost(n, nq).terms["total_queries"] for nq in range(n + 1)]
        assert all(a >= b for a, b in zip(totals, totals[1:])), totals


def test_search_forecast_range_check():
    with pytest.raises(ValueError):
        predict_search_cost(4, 5)


# --- transform forecasts -----------------------------------------------------

def test_dft_forecast_classical_endpoint():
    terms = predict_dft_cost(6, 0).terms
    assert terms["state_prep_units"] == 0
    assert terms["quantum_gate_units"] == 0
    assert terms["classical_ops"] == 6 * 64


def test_dft_forecast_quantum_endpoint():
    terms = predict_dft_cost(6, 6).terms
    assert terms["classical_ops"] == 0
    assert terms["quantum_gate_units"] == 6 * 7 // 2 + 3
    assert terms["state_prep_units"] == 36 * 64


def test_dft_forecast_n4_nq2():
    terms = predict_dft_cost(4, 2).terms
    assert terms["state_prep_units"] == 64
    assert terms["quantum_gate_units"] == 16
    assert terms["classical_ops"] == 32
    assert terms["total"] == 112


def test_dft_forecast_classical_strictly_decreasing():
    for n in (4, 8, 12):
        vals = [predict_dft_cost(n, nq).terms["classical_ops"] for nq in range(n + 1)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_dft_forecast_range_check():
    with pytest.raises(ValueError):
        predict_dft_cost(4, -1)


def test_forecast_terms_nonnegative_everywhere():
    for n in range(0, 13):
        for nq in range(0, n + 1):
            assert all(v >= 0 for v in predict_dft_cost(n, nq).terms.values())
            assert all(v >= 0 for v in predict_search_cost(n, nq).terms.values())


def test_forecast_rejects_negative_terms():
    with pytest.raises(ValueError):
        CostForecast("dft", 2, 1, {"bad": -3})


# --- scaling fits ------------------------------------------------------------

def test_fit_exact_negative_half():
    slope = fit_scaling_exponent([(2, 256), (4, 128), (6, 64)])
    assert abs(slope - (-0.5)) < 1e-12


def test_fit_exact_plus_one():
    slope = fit_scaling_exponent([(1, 2), (2, 4), (3, 8)])
    assert abs(slope - 1.0) < 1e-12


def test_fit_needs_three_positive_points():
    with pytest.raises(ValueError):
        fit_scaling_exponent([(1, 2), (2, 4)])
    with pytest.raises(ValueError):
        fit_scaling_exponent([(1, 2), (2, 0), (3, 8)])


def test_fit_on_measured_search_counters():
    # Measured headline queries at n=12, M=1 follow the half-power law.
    from hqsim.search import SearchOracle, partition_search

    oracle = SearchOracle.from_solutions(12, [2049])
    points = []
    for n_q in range(2, 11):
        _, ledger = partition_search(oracle, n_q)
        points.append((n_q, ledger.headline_quantum_queries))
    slope = fit_scaling_exponent(points)
    assert -0.6 <= slope <= -0.4, (slope, points)
