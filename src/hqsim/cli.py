"""Batch experiment runner.

Subcommands: ``dft-run``, ``dft-sweep``, ``search-run``, ``search-sweep``
and ``verify``.  Runs are deterministic for a fixed configuration (the
master seed covers signal generation, oracle generation and every sampled
draw), and identical configurations produce byte-identical CSV/JSON files.

Exit codes: 0 success, 2 usage error (including ``--n`` above
``core.MAX_QUBITS``, a negative ``--seed``, and ``--shots`` or
``--n-precision`` above ``MAX_COUNT``), 3 verification failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import reprlib
import sys
from dataclasses import dataclass, field

import numpy as np

from .charts import ChartSeries, render_sweep_chart
from .core import MAX_QUBITS, ControlledPhase, Hadamard, PhaseShift, Swap
from .costs import predict_dft_cost, predict_search_cost
from .hybrid_fft import FftPlan, RealSignal, direct_dft, hybrid_dft
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

# Largest --shots and --n-precision: a shot count must fit the int64 draws,
# and the bits per qubit must stay a finite float.
MAX_COUNT = 2**63 - 1

# Beyond this the O(N**2) reference is skipped and deviation is measured
# against numpy's real-input FFT instead.  The butterfly levels run numpy's
# complex inverse FFT, so a reference built on that would share their
# faults; the real-input transform runs other kernels.
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
        p.add_argument("--n", type=int, required=True,
                       help=f"log2 of the problem size, at most {MAX_QUBITS}")
        p.add_argument("--nq", type=str, required=True,
                       help="node register size" + (" or range a..b" if sweep else ""))
        p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
        p.add_argument("--seed", type=int, default=0, help="master seed, at least 0")
        p.add_argument("--n-precision", type=int, default=64,
                       help="bits per classical real, at most 2**63-1")
        p.add_argument("--out-csv", type=str, default=None)
        p.add_argument("--out-json", type=str, default=None)
        if sweep:
            p.add_argument("--out-svg", type=str, default=None)

    for name, sweep in (("dft-run", False), ("dft-sweep", True)):
        p = sub.add_parser(name, help="hybrid transform " + ("sweep" if sweep else "run"))
        add_common(p, sweep)
        p.add_argument("--shots", type=int, default=0,
                       help="shots per entry in sampled mode, at most 2**63-1")
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
    if ns.n > MAX_QUBITS:
        raise UsageError(f"--n {ns.n} exceeds the simulator's limit of {MAX_QUBITS}")
    nq_values = _parse_nq(ns.nq, allow_range=sweep)
    for nq in nq_values:
        if not 0 <= nq <= ns.n:
            raise UsageError(f"--nq: n_q={nq} exceeds n={ns.n}" if nq > ns.n
                             else f"--nq: n_q={nq} is negative")
    if ns.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {ns.seed}")
    # Sampled search measures once per round, so its shots are 1.
    shots = ns.shots if ns.command.startswith("dft") else 1
    if ns.mode == "sampled" and shots < 1:
        raise UsageError("--shots must be >= 1 in sampled mode")
    if shots > MAX_COUNT:
        raise UsageError(f"--shots {shots} exceeds the limit of 2**63-1")
    if not 1 <= ns.n_precision <= MAX_COUNT:
        raise UsageError(f"--n-precision must be 1 .. 2**63-1, got {ns.n_precision}")

    cfg = RunConfig(
        command=ns.command,
        n=ns.n,
        nq_values=nq_values,
        mode=ns.mode,
        shots=shots if ns.mode == "sampled" else 0,
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
                # The first occurrence of each index, as the oracle counts them.
                sols = tuple(dict.fromkeys(
                    int(tok) for tok in ns.solutions.split(",") if tok.strip()
                ))
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
    ``pad`` asks for explicit zero-padding.  Every sample must be finite,
    and so must the length times the squared norm, which bounds every
    squared transform value."""
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
            value = float(text)
        except ValueError as exc:
            raise InputFileError(f"{path}:{lineno}: not a real number: {text!r}") from exc
        if not math.isfinite(value):
            raise InputFileError(f"{path}:{lineno}: not a finite number: {text!r}")
        values.append(value)
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
    signal = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        energy = float(np.dot(signal, signal))
    if not math.isfinite(signal.size * energy):
        raise InputFileError(f"{path}: length times squared norm is not finite")
    return signal


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
        shots=config.shots,
        master_seed=config.master_seed,
        n_precision=config.n_precision,
    )
    spectrum, ledger = hybrid_dft(signal, plan)
    return _point(
        config, n_q, ledger, predict_dft_cost(config.n, n_q),
        deviation=float(np.max(np.abs(spectrum.values - reference))),
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
    if config.command.startswith("dft"):
        signal = _dft_signal(config)
        # Every point of a sweep transforms the same signal: one reference.
        if config.n <= DIRECT_ORACLE_MAX_N:
            reference, oracle_name = direct_dft(signal).values, "direct"
        else:
            # For real x and the +i sign convention, y_k = conj(rfft(x)[k]) for
            # k <= N/2, and y_{N-k} = conj(y_k).
            half = np.fft.rfft(signal.values)
            reference, oracle_name = np.concatenate([np.conj(half), half[-2:0:-1]]), "fft"
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
            "solutions": (None if report.config.solutions is None
                          else list(report.config.solutions)),
            "random_solutions": report.config.random_solutions,
        },
        "points": report.points,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# Chart curves per pipeline: (column, color, label, kinds drawn).
_CURVES = {
    "dft": (
        ("state_prep_units", "#4a90d9", "prep", ("forecast", "measured")),
        ("quantum_gate_units", "#d98a2b", "qft", ("forecast", "measured")),
        ("classical_ops", "#3aa655", "classical", ("forecast", "measured")),
    ),
    "search": (
        ("headline_quantum_queries", "#4a90d9", "headline", ("forecast", "measured")),
        ("total_queries", "#d98a2b", "total", ("forecast",)),
    ),
}


def report_svg(report: ExperimentReport) -> str:
    dft = report.config.command.startswith("dft")
    series = [
        ChartSeries(
            f"{kind} {label}",
            [(p["n_q"], p[f"forecast_{column}" if kind == "forecast" else column])
             for p in report.points],
            color, kind=kind,
        )
        for column, color, label, kinds in _CURVES["dft" if dft else "search"]
        for kind in kinds
    ]
    title = "hybrid transform cost" if dft else "partitioned search cost"
    return render_sweep_chart(series, f"{title}, n={report.config.n}")


def emit_outputs(report: ExperimentReport) -> list[str]:
    """Write the CSV/JSON/SVG files that ``report.config`` names; returns the
    paths written."""
    config = report.config
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
    """Fast end-to-end invariant checks; each entry is (name, ok, detail).

    Each check but the last runs a :mod:`hqsim.checks` function on a small
    grid; the acceptance suite runs the same functions on larger ones.
    """
    from . import checks  # kept off the start-up path of the other commands

    rng = np.random.default_rng(11)
    blocks = [rng.choice([-2.0, -1.0, 1.0, 2.0], 2**n_q) for n_q in (1, 2, 3) for _ in range(5)]
    signal = RealSignal.from_values(np.random.default_rng(12).uniform(-1, 1, 2**6))
    rng = np.random.default_rng(13)
    oracles = []
    for _ in range(10):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 2**n + 1))
        oracles.append(SearchOracle.random(n, m, int(rng.integers(0, 2**31))))
    gates = (Hadamard(0), PhaseShift(0, 0.7), ControlledPhase(0, 1, 1.1), Swap(0, 1))
    rng = np.random.default_rng(14)
    sampled_cases = [
        (RealSignal.from_values(rng.uniform(-1, 1, 2**n)), n_q, shots)
        for n, n_q, shots in ((4, 4, 256), (5, 3, 1024))
    ]

    # A deviation with its tolerance, or a list of failing cases with None.
    table = [
        ("transform circuit matches root matrix (n_q<=4)",
         checks.circuit_deviation((1, 2, 3, 4)), checks.CIRCUIT_TOLERANCE),
        ("gate set is unitary", checks.unitarity_deviation(gates), checks.UNITARITY_TOLERANCE),
        ("node readout round-trip is exact",
         checks.round_trip_deviation(blocks), checks.TRANSFORM_TOLERANCE),
        ("hybrid transform matches direct reference (n=6)",
         checks.transform_deviation([signal]), checks.TRANSFORM_TOLERANCE),
        ("amplification law (N=16)",
         checks.amplification_deviation((16,), 5), checks.AMPLIFICATION_TOLERANCE),
        ("exact search's class order matches the amplification law (N<=32)",
         checks.class_order_mismatches((2, 4, 8, 16, 32)), None),
        ("partition search returns the exact solution set", checks.search_misses(oracles), None),
        ("sampled stderr matches the empirical error (n<=5)",
         checks.stderr_miscalibrations(sampled_cases, range(400)), None),
        ("transform counters equal forecast (n=4, n_q=2)",
         checks.counter_mismatches([(RealSignal.from_values(np.arange(1.0, 17.0)), 2)]), None),
        ("search counters equal forecast (n=6, n_q=2)",
         checks.counter_mismatches([(SearchOracle.from_solutions(6, [5]), 2)]), None),
    ]
    results = [
        # reprlib shortens each case's own index list, so the line stays short.
        (name, not value, f"{len(value)} failing cases, first 3: {reprlib.repr(value[:3])}")
        if tolerance is None
        else (name, value <= tolerance, f"max dev {value:.2e}")
        for name, value, tolerance in table
    ]
    cfg = RunConfig(command="dft-run", n=5, nq_values=(2,), master_seed=9)
    rep1, rep2 = run_experiment(cfg), run_experiment(cfg)
    same = report_csv(rep1) == report_csv(rep2) and report_json(rep1) == report_json(rep2)
    return results + [("identical configs give identical reports", same, "")]


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if config.command == "verify":
        results = run_verification()
        for name, ok, detail in results:
            print(f"PASS  {name}" if ok else f"FAIL  {name}  {detail}".rstrip())
        passed = sum(ok for _, ok, _ in results)
        print(f"{passed}/{len(results)} checks passed")
        return EXIT_OK if passed == len(results) else EXIT_VERIFY

    try:
        report = run_experiment(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        written = emit_outputs(report)
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
