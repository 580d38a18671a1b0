import json

import numpy as np
import pytest

import hqsim.checks
import hqsim.cli
import hqsim.hybrid_fft
from hqsim.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    InputFileError,
    UsageError,
    main,
    parse_args,
    read_signal_csv,
    report_csv,
    report_json,
    report_svg,
    run_experiment,
)
from hqsim.core import MAX_QUBITS


def test_parse_dft_run():
    cfg = parse_args(["dft-run", "--n", "4", "--nq", "2", "--mode", "exact"])
    assert cfg.command == "dft-run"
    assert cfg.n == 4
    assert cfg.nq_values == (2,)
    assert cfg.mode == "exact"


def test_parse_rejects_oversized_node():
    with pytest.raises(UsageError, match="--nq"):
        parse_args(["dft-run", "--n", "4", "--nq", "5"])


def test_parse_search_sweep_range():
    cfg = parse_args(
        ["search-sweep", "--n", "10", "--nq", "0..10", "--solutions", "1", "--seed", "7"]
    )
    assert cfg.command == "search-sweep"
    assert cfg.nq_values == tuple(range(11))
    assert cfg.solutions == (1,)
    assert cfg.master_seed == 7


def test_parse_rejects_range_on_single_run():
    with pytest.raises(UsageError):
        parse_args(["dft-run", "--n", "4", "--nq", "0..4"])


def test_parse_rejects_sampled_without_shots():
    with pytest.raises(UsageError, match="--shots"):
        parse_args(["dft-run", "--n", "4", "--nq", "2", "--mode", "sampled"])


@pytest.mark.parametrize("argv", [
    ["search-run", "--n", "4", "--nq", "2"],
    ["search-sweep", "--n", "4", "--nq", "0..2"],
], ids=lambda argv: argv[0])
def test_search_commands_take_no_shots(argv):
    with pytest.raises(SystemExit) as exc:
        parse_args(argv + ["--solutions", "1", "--mode", "sampled", "--shots", "1"])
    assert exc.value.code == EXIT_USAGE


def test_parse_search_needs_solution_spec():
    with pytest.raises(UsageError, match="--solutions"):
        parse_args(["search-run", "--n", "4", "--nq", "2"])


def test_parse_rejects_solution_out_of_range():
    with pytest.raises(UsageError, match="--solutions"):
        parse_args(["search-run", "--n", "3", "--nq", "1", "--solutions", "9"])


def test_unknown_flag_exits_with_usage_code():
    with pytest.raises(SystemExit) as exc:
        parse_args(["dft-run", "--n", "4", "--nq", "2", "--bogus"])
    assert exc.value.code == EXIT_USAGE


# --- signal input ------------------------------------------------------------

def test_read_signal_csv(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("1.0\n2.5\n-3\n4e0\n")
    values = read_signal_csv(str(path), pad=False)
    assert np.array_equal(values, [1.0, 2.5, -3.0, 4.0])


def test_read_signal_reports_bad_line(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("1.0\nnot-a-number\n")
    with pytest.raises(InputFileError, match=":2:"):
        read_signal_csv(str(path), pad=False)


@pytest.mark.parametrize("sample", ["nan", "inf", "-inf", "1e308"])
def test_main_refuses_non_finite_input(tmp_path, capsys, sample):
    # 1e308 is finite, but its square is not: the transform would overflow.
    path = tmp_path / "sig.csv"
    path.write_text(f"1.0\n{sample}\n0\n0\n")
    code = main(["dft-run", "--n", "2", "--nq", "1", "--input", str(path)])
    assert code == EXIT_IO
    assert "finite" in capsys.readouterr().err


def test_read_signal_accepts_a_large_finite_energy(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("1e150\n-1e150\n0\n0\n")
    assert np.array_equal(read_signal_csv(str(path), pad=False), [1e150, -1e150, 0.0, 0.0])


def test_read_signal_length_must_be_power_of_two(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("1\n2\n3\n")
    with pytest.raises(InputFileError, match="power of two"):
        read_signal_csv(str(path), pad=False)
    padded = read_signal_csv(str(path), pad=True)
    assert np.array_equal(padded, [1.0, 2.0, 3.0, 0.0])


def test_dft_run_from_file(tmp_path):
    path = tmp_path / "ramp.csv"
    path.write_text("".join(f"{v}\n" for v in range(1, 17)))
    cfg = parse_args(["dft-run", "--n", "4", "--nq", "2", "--input", str(path)])
    report = run_experiment(cfg)
    point = report.points[0]
    assert point["deviation"] < 1e-9
    assert point["classical_ops"] == 32
    assert point["deviation_oracle"] == "direct"


def test_dft_input_length_mismatch(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("1\n2\n3\n4\n")
    cfg = parse_args(["dft-run", "--n", "3", "--nq", "1", "--input", str(path)])
    with pytest.raises(UsageError):
        run_experiment(cfg)


# --- experiments -------------------------------------------------------------

def test_search_run_point():
    cfg = parse_args(["search-run", "--n", "4", "--nq", "2", "--solutions", "5"])
    report = run_experiment(cfg)
    point = report.points[0]
    assert point["solutions_found"] == "5"
    assert point["node_accesses"] == 4
    assert point["solutions_correct"] is True
    assert point["forecast_node_accesses"] == 4


def test_sweep_row_count():
    cfg = parse_args(["dft-sweep", "--n", "6", "--nq", "0..6", "--seed", "2"])
    report = run_experiment(cfg)
    assert len(report.points) == 7
    csv_text = report_csv(report)
    assert len(csv_text.strip().splitlines()) == 8  # header + 7 rows


def test_counters_match_forecasts_in_exact_sweep():
    cfg = parse_args(["dft-sweep", "--n", "6", "--nq", "0..6", "--seed", "5"])
    for point in run_experiment(cfg).points:
        assert point["classical_ops"] == point["forecast_classical_ops"]
        assert point["state_prep_units"] == point["forecast_state_prep_units"]
        assert point["quantum_gate_units"] == point["forecast_quantum_gate_units"]
        assert point["classical_fallbacks"] == 0
        assert point["deviation"] < 1e-9


def test_identical_configs_identical_bytes(tmp_path):
    args = ["dft-sweep", "--n", "5", "--nq", "0..5", "--seed", "9"]
    outputs = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"{tag}.csv"
        json_path = tmp_path / f"{tag}.json"
        svg_path = tmp_path / f"{tag}.svg"
        code = main(args + ["--out-csv", str(csv_path), "--out-json", str(json_path),
                            "--out-svg", str(svg_path)])
        assert code == EXIT_OK
        outputs.append((csv_path.read_bytes(), json_path.read_bytes(), svg_path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_sampled_runs_are_seed_deterministic():
    args = ["dft-run", "--n", "4", "--nq", "2", "--mode", "sampled",
            "--shots", "500", "--seed", "3"]
    a = report_json(run_experiment(parse_args(args)))
    b = report_json(run_experiment(parse_args(args)))
    assert a == b


def test_json_round_trips():
    cfg = parse_args(["search-sweep", "--n", "6", "--nq", "2..4", "--random-solutions",
                      "3", "--seed", "8"])
    payload = json.loads(report_json(run_experiment(cfg)))
    assert payload["config"]["command"] == "search-sweep"
    assert len(payload["points"]) == 3
    assert all(p["solutions_correct"] for p in payload["points"])
    assert payload["config"]["solutions"] is None


def test_json_keeps_an_empty_solution_list(tmp_path):
    # An empty --solutions is a search for no solutions, which the config
    # must tell apart from a run given no solution list at all.
    out = tmp_path / "run.json"
    argv = ["search-run", "--n", "4", "--nq", "2", "--solutions", "", "--out-json", str(out)]
    assert main(argv) == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["config"]["solutions"] == []
    assert payload["points"][0]["solutions_found"] == ""
    assert payload["points"][0]["solutions_correct"] is True


def test_large_runs_fall_back_to_fft_oracle(monkeypatch):
    monkeypatch.setattr(hqsim.cli, "DIRECT_ORACLE_MAX_N", 3)
    cfg = parse_args(["dft-sweep", "--n", "4", "--nq", "0..4", "--seed", "1"])
    for point in run_experiment(cfg).points:
        assert point["deviation_oracle"] == "fft"
        assert point["deviation"] < 1e-9


def test_fft_oracle_does_not_run_the_butterfly_levels(monkeypatch, tmp_path):
    # A fault in the levels must show in the deviation: a reference that ran
    # the same levels would carry the same fault and read 0.
    monkeypatch.setattr(hqsim.cli, "DIRECT_ORACLE_MAX_N", 3)
    level = hqsim.hybrid_fft._combine_level

    def faulty_level(*args):
        spec, stderr = level(*args)
        spec[0] += 1.0
        return spec, stderr

    monkeypatch.setattr(hqsim.hybrid_fft, "_combine_level", faulty_level)
    out = tmp_path / "run.json"
    assert main(["dft-run", "--n", "4", "--nq", "0", "--out-json", str(out)]) == EXIT_OK
    point = json.loads(out.read_text())["points"][0]
    assert point["deviation_oracle"] == "fft"
    assert point["deviation"] >= 0.5


def test_n_precision_flag_reaches_the_ledger():
    cfg = parse_args(["dft-run", "--n", "4", "--nq", "2", "--n-precision", "32"])
    point = run_experiment(cfg).points[0]
    assert point["classical_bits"] == 16 * 32
    assert point["qubit_count"] == 3
    assert point["bits_per_qubit"] == 16 * 32 / 3


def test_svg_contains_three_forecast_curves():
    cfg = parse_args(["dft-sweep", "--n", "6", "--nq", "0..6", "--seed", "4"])
    svg = report_svg(run_experiment(cfg))
    assert svg.startswith("<svg")
    for curve in ("forecast-prep", "forecast-qft", "forecast-classical"):
        assert f'id="{curve}"' in svg
    assert 'class="measured"' in svg


def test_search_sweep_svg_has_headline_curve():
    cfg = parse_args(["search-sweep", "--n", "6", "--nq", "0..6", "--solutions", "9",
                      "--seed", "4"])
    svg = report_svg(run_experiment(cfg))
    assert 'id="forecast-headline"' in svg
    assert 'id="forecast-total"' in svg


# --- exit codes ---------------------------------------------------------------

def test_main_usage_error_code():
    assert main(["dft-run", "--n", "4", "--nq", "9"]) == EXIT_USAGE


def test_main_io_error_code(tmp_path):
    missing = tmp_path / "missing.csv"
    code = main(["dft-run", "--n", "4", "--nq", "2", "--input", str(missing)])
    assert code == EXIT_IO


def test_main_write_failure_code(tmp_path):
    bad = tmp_path / "no-such-dir" / "out.csv"
    code = main(["dft-run", "--n", "3", "--nq", "1", "--out-csv", str(bad)])
    assert code == EXIT_IO


def refused_before_running(argv, monkeypatch, capsys):
    """Exit code and stderr of ``main(argv)``, failing if the run starts."""
    def run_experiment(config):
        raise AssertionError("a refused run must not start")

    monkeypatch.setattr(hqsim.cli, "run_experiment", run_experiment)
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dft-run", "--n", "40", "--nq", "4"],
    ["dft-sweep", "--n", str(MAX_QUBITS + 1), "--nq", "0..2"],
    ["search-run", "--n", "30", "--nq", "2", "--random-solutions", "1"],
    ["search-sweep", "--n", str(MAX_QUBITS + 1), "--nq", "0..2", "--solutions", "1"],
], ids=lambda argv: argv[0])
def test_main_refuses_sizes_above_the_qubit_limit(argv, monkeypatch, capsys):
    code, err = refused_before_running(argv, monkeypatch, capsys)
    assert code == EXIT_USAGE
    assert f"--n {argv[2]} exceeds the simulator's limit of {MAX_QUBITS}" in err


@pytest.mark.parametrize("argv", [
    ["dft-run", "--n", "4", "--nq", "2", "--seed", "-1"],
    ["search-run", "--n", "4", "--nq", "2", "--random-solutions", "3", "--mode", "sampled",
     "--seed", "-2"],
], ids=lambda argv: argv[0])
def test_main_refuses_a_negative_seed(argv, monkeypatch, capsys):
    code, err = refused_before_running(argv, monkeypatch, capsys)
    assert code == EXIT_USAGE
    assert f"--seed must be >= 0, got {argv[-1]}" in err


@pytest.mark.parametrize("argv, flag", [
    (["dft-run", "--n", "3", "--nq", "1", "--mode", "sampled", "--shots", str(2**63)], "--shots"),
    (["dft-sweep", "--n", "3", "--nq", "0..1", "--mode", "sampled",
      "--shots", "10000000000000000000000"], "--shots"),
    (["dft-sweep", "--n", "3", "--nq", "0..1", "--n-precision", str(2**63)], "--n-precision"),
    (["search-run", "--n", "3", "--nq", "1", "--solutions", "1", "--n-precision",
      str(10**400)], "--n-precision"),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_main_refuses_counts_above_the_int64_limit(argv, flag, monkeypatch, capsys):
    code, err = refused_before_running(argv, monkeypatch, capsys)
    assert code == EXIT_USAGE
    assert flag in err and "2**63-1" in err


@pytest.mark.parametrize("command", ["dft-run", "search-run"])
def test_main_runs_at_the_int64_limit(command, tmp_path):
    # Sampled search measures once per round: it takes no --shots and
    # reports one shot.
    out = tmp_path / "out.json"
    argv = [command, "--n", "3", "--nq", "1", "--mode", "sampled",
            "--n-precision", str(2**63 - 1), "--seed", "1", "--out-json", str(out)]
    if command == "search-run":
        argv += ["--solutions", "1,6"]
    else:
        argv += ["--shots", str(2**63 - 1)]
    assert main(argv) == EXIT_OK
    payload = json.loads(out.read_text())
    point = payload["points"][0]
    assert point["shots"] == payload["config"]["shots"] == (1 if command == "search-run" else 2**63 - 1)
    assert point["classical_bits"] == 8 * (2**63 - 1)
    assert point["bits_per_qubit"] == 8 * (2**63 - 1) / 2


def test_parse_accepts_the_qubit_limit():
    cfg = parse_args(["search-run", "--n", str(MAX_QUBITS), "--nq", "4", "--solutions", "1"])
    assert cfg.n == MAX_QUBITS


def test_main_verify_passes():
    assert main(["verify"]) == EXIT_OK


def test_main_verify_reports_a_failing_check(monkeypatch, capsys):
    monkeypatch.setattr(hqsim.checks, "transform_deviation", lambda signals: 0.5)
    assert main(["verify"]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL  hybrid transform matches direct reference (n=6)  max dev 5.00e-01\n" in out
    assert "10/11 checks passed\n" in out


def test_main_verify_shortens_a_failing_case_list(monkeypatch, capsys):
    cases = [(8, k % 9, list(range(k, k + 40))) for k in range(50)]
    monkeypatch.setattr(hqsim.checks, "search_misses", lambda oracles: cases)
    assert main(["verify"]) == EXIT_VERIFY
    out = capsys.readouterr().out
    (line,) = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert line.startswith(
        "FAIL  partition search returns the exact solution set  50 failing cases, first 3: "
        "[(8, 0, [0, 1, 2, 3, 4, 5, ...]), "
    )
    assert len(line) < 250
    assert "10/11 checks passed\n" in out


def test_main_run_ok(capsys):
    assert main(["search-run", "--n", "4", "--nq", "2", "--solutions", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "found=[5]" in out


def test_main_dft_summary_reports_gate_and_prep_units(capsys):
    assert main(["dft-run", "--n", "4", "--nq", "2", "--seed", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    # Four 4-point leaves, each 4 gates and n_q**2 * 2**n_q = 16 prep units.
    assert "gates=16 prep=64" in out
    assert "quantum=" not in out
