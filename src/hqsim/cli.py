"""Batch experiment runner.

Subcommands: ``dft-run``, ``dft-sweep``, ``search-run``, ``search-sweep``
and ``verify``.  Runs are deterministic for a fixed configuration (the
master seed covers signal generation, oracle generation and every sampled
draw), and identical configurations produce byte-identical CSV/JSON files.

Exit codes: 0 success, 2 usage error, 3 verification failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .charts import ChartSeries, render_sweep_chart
from .costs import predict_dft_cost, predict_search_cost
from .hybrid_fft import FftPlan, RealSignal, classical_fft, direct_dft, hybrid_dft
from .search import SearchOracle, partition_search

__all__ = [
    "RunConfig",
    "ExperimentReport",
    "UsageError",
    "InputFileError",
    "parse_args",
    "run_experiment",
    "emit_outputs",
    "run_verification",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_IO = 4

# Beyond this the O(N**2) reference is skipped and deviation is measured
# against the fast classical transform instead.
DIRECT_ORACLE_MAX_N = 14


class UsageError(Exception):
    pass


class InputFileError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    n: int = 0
    nq_values: tuple[int, ...] = ()
    mode: str = "exact"
    shots: int = 0
    master_seed: int = 0
    input_path: str | None = None
    pad: bool = False
    solutions: tuple[int, ...] | None = None
    random_solutions: int | None = None
    n_precision: int = 64
    out_csv: str | None = None
    out_json: str | None = None
    out_svg: str | None = None


@dataclass
class ExperimentReport:
    config: RunConfig
    points: list[dict] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)


def _parse_nq(text: str, allow_range: bool) -> tuple[int, ...]:
    try:
        if ".." in text:
            if not allow_range:
                raise UsageError(f"--nq: range not allowed for this command: {text!r}")
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise UsageError(f"--nq: empty range {text!r}")
            return tuple(range(lo, hi + 1))
        return (int(text),)
    except ValueError as exc:
        raise UsageError(f"--nq: {text!r} is not an integer or a..b range") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqsim",
        description="Hybrid quantum/classical transform and search experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, sweep: bool) -> None:
        p.add_argument("--n", type=int, required=True, help="log2 of the problem size")
        p.add_argument("--nq", type=str, required=True,
                       help="node register size" + (" or range a..b" if sweep else ""))
        p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
        p.add_argument("--shots", type=int, default=0)
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--n-precision", type=int, default=64,
                       help="bits per classical real")
        p.add_argument("--out-csv", type=str, default=None)
        p.add_argument("--out-json", type=str, default=None)
        if sweep:
            p.add_argument("--out-svg", type=str, default=None)

    for name, sweep in (("dft-run", False), ("dft-sweep", True)):
        p = sub.add_parser(name, help="hybrid transform " + ("sweep" if sweep else "run"))
        add_common(p, sweep)
        p.add_argument("--input", type=str, default=None,
                       help="signal CSV, one real per line (default: seeded random)")
        p.add_argument("--pad", action="store_true",
                       help="zero-pad the input up to the next power of two")

    for name, sweep in (("search-run", False), ("search-sweep", True)):
        p = sub.add_parser(name, help="partitioned search " + ("sweep" if sweep else "run"))
        add_common(p, sweep)
        p.add_argument("--solutions", type=str, default=None,
                       help="comma-separated solution indices")
        p.add_argument("--random-solutions", type=int, default=None,
                       help="draw this many random solutions from the master seed")

    sub.add_parser("verify", help="run the invariant suite")
    return parser


def parse_args(argv) -> RunConfig:
    """Parse and validate; no side effects on failure."""
    ns = _build_parser().parse_args(list(argv))
    if ns.command == "verify":
        return RunConfig(command="verify")

    sweep = ns.command.endswith("-sweep")
    if ns.n < 0:
        raise UsageError(f"--n must be >= 0, got {ns.n}")
    nq_values = _parse_nq(ns.nq, allow_range=sweep)
    for nq in nq_values:
        if not 0 <= nq <= ns.n:
            raise UsageError(f"--nq: n_q={nq} exceeds n={ns.n}" if nq > ns.n
                             else f"--nq: n_q={nq} is negative")
    if ns.mode == "sampled" and ns.shots < 1:
        raise UsageError("--shots must be >= 1 in sampled mode")
    if ns.n_precision < 1:
        raise UsageError(f"--n-precision must be >= 1, got {ns.n_precision}")

    cfg = RunConfig(
        command=ns.command,
        n=ns.n,
        nq_values=nq_values,
        mode=ns.mode,
        shots=ns.shots if ns.mode == "sampled" else 0,
        master_seed=ns.seed,
        n_precision=ns.n_precision,
        out_csv=ns.out_csv,
        out_json=ns.out_json,
        out_svg=getattr(ns, "out_svg", None),
    )
    if ns.command.startswith("dft"):
        cfg.input_path = ns.input
        cfg.pad = ns.pad
    else:
        if ns.solutions is not None and ns.random_solutions is not None:
            raise UsageError("--solutions and --random-solutions are mutually exclusive")
        if ns.solutions is None and ns.random_solutions is None:
            raise UsageError("search needs --solutions or --random-solutions")
        if ns.solutions is not None:
            try:
                sols = tuple(int(tok) for tok in ns.solutions.split(",") if tok.strip())
            except ValueError as exc:
                raise UsageError(f"--solutions: {exc}") from exc
            for s in sols:
                if not 0 <= s < 2**ns.n:
                    raise UsageError(f"--solutions: index {s} out of range for n={ns.n}")
            cfg.solutions = sols
        else:
            if not 0 <= ns.random_solutions <= 2**ns.n:
                raise UsageError(
                    f"--random-solutions: {ns.random_solutions} out of range for n={ns.n}"
                )
            cfg.random_solutions = ns.random_solutions
    return cfg


def read_signal_csv(path: str, pad: bool) -> np.ndarray:
    """One decimal real per line; length must be a power of two unless
    ``pad`` asks for explicit zero-padding."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    values = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError as exc:
            raise InputFileError(f"{path}:{lineno}: not a real number: {text!r}") from exc
    if not values:
        raise InputFileError(f"{path}: no samples")
    size = len(values)
    if size & (size - 1):
        if not pad:
            raise InputFileError(
                f"{path}: length {size} is not a power of two (use --pad to zero-pad)"
            )
        target = 1 << size.bit_length()
        values.extend([0.0] * (target - size))
    return np.asarray(values, dtype=float)


def _dft_signal(config: RunConfig) -> RealSignal:
    if config.input_path is not None:
        values = read_signal_csv(config.input_path, config.pad)
        signal = RealSignal.from_values(values)
        if signal.n != config.n:
            raise UsageError(
                f"--n {config.n} does not match input length 2**{signal.n}"
            )
        return signal
    rng = np.random.default_rng(np.random.SeedSequence([config.master_seed, 0x51]))
    return RealSignal.from_values(rng.uniform(-1.0, 1.0, 2**config.n))


def _search_oracle(config: RunConfig) -> SearchOracle:
    if config.solutions is not None:
        return SearchOracle.from_solutions(config.n, config.solutions)
    return SearchOracle.random(config.n, config.random_solutions, config.master_seed)


def _point(config: RunConfig, n_q: int, ledger, forecast, **columns) -> dict:
    """One report row: the run settings, every ledger counter, the forecast
    terms, then the pipeline's own ``columns`` in the order given."""
    point = {
        "n": config.n,
        "n_q": n_q,
        "mode": config.mode,
        "shots": config.shots,
        "seed": config.master_seed,
    }
    point.update(ledger.as_dict())
    point["headline_quantum_queries"] = ledger.headline_quantum_queries
    point["bits_per_qubit"] = ledger.memory_ratio()
    for name, value in forecast.terms.items():
        point[f"forecast_{name}"] = value
    point.update(columns)
    return point


def _dft_point(
    config: RunConfig, signal: RealSignal, n_q: int, reference, oracle_name: str
) -> dict:
    plan = FftPlan(
        n=config.n,
        n_q=n_q,
        mode=config.mode,
        shots=config.shots,
        master_seed=config.master_seed,
        n_precision=config.n_precision,
    )
    spectrum, ledger = hybrid_dft(signal, plan)
    return _point(
        config, n_q, ledger, predict_dft_cost(config.n, n_q),
        deviation=float(np.max(np.abs(spectrum.values - reference.values))),
        deviation_oracle=oracle_name,
    )


def _search_point(config: RunConfig, oracle: SearchOracle, n_q: int) -> dict:
    found, ledger = partition_search(
        oracle,
        n_q,
        mode=config.mode,
        master_seed=config.master_seed,
        n_precision=config.n_precision,
    )
    return _point(
        config, n_q, ledger, predict_search_cost(config.n, n_q),
        solutions_found=";".join(str(s) for s in sorted(found)),
        solutions_expected=oracle.solution_count,
        solutions_correct=oracle.solutions is None or found == set(oracle.solutions),
    )


def run_experiment(config: RunConfig) -> ExperimentReport:
    """Execute every sweep point; deterministic for a fixed config."""
    report = ExperimentReport(config=config)
    if config.command == "verify":
        report.checks = run_verification()
        return report
    if config.command.startswith("dft"):
        signal = _dft_signal(config)
        # Every point of a sweep transforms the same signal: one reference.
        if config.n <= DIRECT_ORACLE_MAX_N:
            reference, oracle_name = direct_dft(signal), "direct"
        else:
            reference, oracle_name = classical_fft(signal), "fft"
        for n_q in config.nq_values:
            report.points.append(_dft_point(config, signal, n_q, reference, oracle_name))
    else:
        oracle = _search_oracle(config)
        for n_q in config.nq_values:
            report.points.append(_search_point(config, oracle, n_q))
    return report


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_csv(report: ExperimentReport) -> str:
    columns = list(report.points[0].keys())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for point in report.points:
        writer.writerow([_format_cell(point[c]) for c in columns])
    return buf.getvalue()


def report_json(report: ExperimentReport) -> str:
    payload = {
        "config": {
            "command": report.config.command,
            "n": report.config.n,
            "nq_values": list(report.config.nq_values),
            "mode": report.config.mode,
            "shots": report.config.shots,
            "seed": report.config.master_seed,
            "n_precision": report.config.n_precision,
            "input": report.config.input_path,
            "solutions": list(report.config.solutions) if report.config.solutions else None,
            "random_solutions": report.config.random_solutions,
        },
        "points": report.points,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_DFT_CURVES = (
    ("state_prep_units", "#4a90d9", "prep"),
    ("quantum_gate_units", "#d98a2b", "qft"),
    ("classical_ops", "#3aa655", "classical"),
)


def report_svg(report: ExperimentReport) -> str:
    series = []
    if report.config.command.startswith("dft"):
        for key, color, label in _DFT_CURVES:
            series.append(ChartSeries(
                f"forecast {label}",
                [(p["n_q"], p[f"forecast_{key}"]) for p in report.points],
                color, kind="forecast", series_id=f"forecast-{label}",
            ))
            series.append(ChartSeries(
                f"measured {label}",
                [(p["n_q"], p[key]) for p in report.points],
                color, kind="measured", series_id=f"measured-{label}",
            ))
        title = f"hybrid transform cost, n={report.config.n}"
    else:
        series.append(ChartSeries(
            "forecast headline",
            [(p["n_q"], p["forecast_headline_quantum_queries"]) for p in report.points],
            "#4a90d9", kind="forecast", series_id="forecast-headline",
        ))
        series.append(ChartSeries(
            "measured headline",
            [(p["n_q"], p["headline_quantum_queries"]) for p in report.points],
            "#4a90d9", kind="measured", series_id="measured-headline",
        ))
        series.append(ChartSeries(
            "forecast total",
            [(p["n_q"], p["forecast_total_queries"]) for p in report.points],
            "#d98a2b", kind="forecast", series_id="forecast-total",
        ))
        title = f"partitioned search cost, n={report.config.n}"
    return render_sweep_chart(series, title)


def emit_outputs(report: ExperimentReport, config: RunConfig) -> list[str]:
    """Write the configured CSV/JSON/SVG files; returns the paths written."""
    written = []
    try:
        if config.out_csv:
            with open(config.out_csv, "w", encoding="utf-8", newline="") as fh:
                fh.write(report_csv(report))
            written.append(config.out_csv)
        if config.out_json:
            with open(config.out_json, "w", encoding="utf-8") as fh:
                fh.write(report_json(report))
            written.append(config.out_json)
        if config.out_svg:
            with open(config.out_svg, "w", encoding="utf-8") as fh:
                fh.write(report_svg(report))
            written.append(config.out_svg)
    except OSError as exc:
        raise InputFileError(f"cannot write output: {exc}") from exc
    return written


# --- invariant suite -------------------------------------------------------

def run_verification() -> list[tuple[str, bool, str]]:
    """Fast end-to-end invariant checks; each entry is (name, ok, detail)."""
    from .core import build_qft_circuit, circuit_matrix
    from .readout import BlockVector, build_schedule, execute_schedule, rebuild_phases, rescale_to_dft

    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))

    # Transform circuit equals the direct root matrix.
    worst = 0.0
    for n_q in (1, 2, 3, 4):
        N = 2**n_q
        k = np.arange(N)
        direct = np.exp(2j * np.pi * np.outer(k, k) / N) / math.sqrt(N)
        got = circuit_matrix(build_qft_circuit(n_q), n_q)
        worst = max(worst, float(np.max(np.abs(got - direct))))
    check("transform circuit matches root matrix (n_q<=4)", worst < 1e-10, f"max dev {worst:.2e}")

    # Gate unitarity.
    from .core import ControlledPhase, Hadamard, PhaseShift, Swap
    udev = 0.0
    for gate in (Hadamard(0), PhaseShift(0, 0.7), ControlledPhase(0, 1, 1.1), Swap(0, 1)):
        m = gate.matrix()
        udev = max(udev, float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))))
    check("gate set is unitary", udev < 1e-12, f"max dev {udev:.2e}")

    # Round-trip exactness on random blocks.
    rng = np.random.default_rng(11)
    worst = 0.0
    for n_q in (1, 2, 3):
        schedule = build_schedule(n_q)
        for _ in range(5):
            block = BlockVector.from_values(rng.choice([-2.0, -1.0, 1.0, 2.0], 2**n_q))
            record = execute_schedule(block, schedule)
            est = rebuild_phases(record, block)
            got = rescale_to_dft(est)
            want = direct_dft(RealSignal.from_values(block.values)).values
            worst = max(worst, float(np.max(np.abs(got - want))))
    check("node readout round-trip is exact", worst < 1e-9, f"max dev {worst:.2e}")

    # Hybrid output is node-size independent.
    worst = 0.0
    rng = np.random.default_rng(12)
    signal = RealSignal.from_values(rng.uniform(-1, 1, 2**6))
    want = direct_dft(signal).values
    for n_q in range(0, 7):
        got, _ = hybrid_dft(signal, FftPlan(n=6, n_q=n_q))
        worst = max(worst, float(np.max(np.abs(got.values - want))))
    check("hybrid transform matches direct reference (n=6)", worst < 1e-9, f"max dev {worst:.2e}")

    # Amplification law.
    from .search import SearchGeometry, _grover_step  # type: ignore[attr-defined]
    worst = 0.0
    for m in range(0, 17):
        mask = np.zeros(16, dtype=bool)
        mask[:m] = True
        amps = np.full(16, 0.25, dtype=complex)
        theta = SearchGeometry.from_counts(16, m).theta
        for t in range(1, 6):
            amps = _grover_step(amps, mask)
            got = float(np.sum(np.abs(amps[mask]) ** 2)) if m else 0.0
            want = math.sin((2 * t + 1) * theta) ** 2
            worst = max(worst, abs(got - want))
    check("amplification law (N=16)", worst < 1e-10, f"max dev {worst:.2e}")

    # Partition search completeness on random oracles.
    ok = True
    rng = np.random.default_rng(13)
    for trial in range(10):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 2**n + 1))
        oracle = SearchOracle.random(n, m, int(rng.integers(0, 2**31)))
        for n_q in range(0, n + 1):
            found, _ = partition_search(oracle, n_q)
            if found != set(oracle.solutions):
                ok = False
    check("partition search returns the exact solution set", ok)

    # Counter equality against forecasts.
    signal = RealSignal.from_values(np.arange(1.0, 17.0))
    _, ledger = hybrid_dft(signal, FftPlan(n=4, n_q=2))
    f = predict_dft_cost(4, 2).terms
    ok = (
        ledger.state_prep_units == f["state_prep_units"] == 64
        and ledger.quantum_gate_units == f["quantum_gate_units"] == 16
        and ledger.classical_ops == f["classical_ops"] == 32
    )
    check("transform counters equal forecast (n=4, n_q=2)", ok, ledger.to_json())
    oracle = SearchOracle.from_solutions(6, [5])
    _, sled = partition_search(oracle, 2, master_seed=3)
    sf = predict_search_cost(6, 2).terms
    ok = (
        sled.node_accesses == sf["node_accesses"]
        and sled.headline_quantum_queries == sf["headline_quantum_queries"]
    )
    check("search counters equal forecast (n=6, n_q=2)", ok, sled.to_json())

    # Determinism.
    cfg = RunConfig(command="dft-run", n=5, nq_values=(2,), master_seed=9)
    rep1 = run_experiment(cfg)
    rep2 = run_experiment(cfg)
    check("identical configs give identical reports",
          report_csv(rep1) == report_csv(rep2) and report_json(rep1) == report_json(rep2))

    return checks


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        report = run_experiment(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO

    if config.command == "verify":
        failures = 0
        for name, ok, detail in report.checks:
            tag = "PASS" if ok else "FAIL"
            suffix = f"  {detail}" if detail and not ok else ""
            print(f"{tag}  {name}{suffix}")
            failures += 0 if ok else 1
        print(f"{len(report.checks) - failures}/{len(report.checks)} checks passed")
        return EXIT_OK if failures == 0 else EXIT_VERIFY

    try:
        written = emit_outputs(report, config)
    except InputFileError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO

    for point in report.points:
        bits = [f"n={point['n']}", f"n_q={point['n_q']}"]
        if "deviation" in point:
            bits.append(f"deviation={point['deviation']:.3e} ({point['deviation_oracle']})")
            bits.append(f"gates={point['quantum_gate_units']} prep={point['state_prep_units']}")
        else:
            sols = point["solutions_found"]
            bits.append(f"found=[{sols}]" if sols else "found=[]")
            bits.append(f"quantum={point['quantum_oracle_queries']}")
        bits.append(f"classical_ops={point['classical_ops']}")
        print("  ".join(bits))
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
