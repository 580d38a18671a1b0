"""hqsim benchmark: four workloads, host-time and simulated-cost metrics.

    python3 perfbench/run.py --workload dft-nodes --seed 1 --seconds 25 --trace 0

Runs one workload's fixed op sequence, one op at a time in one process,
again and again until ``--seconds`` have passed, checking every op.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a report
for people, each starting with ``#``.  With ``--trace 0`` the metrics are
the end-to-end ones, with every host time normalised to one CPU speed by
the calibration probe in ``speed.py``.  With ``--trace 1`` every op runs
twice in a row, untraced and then with hqsim's public functions wrapped in
spans, and the metrics are the per-layer ones.  Full results, and the
traced run's spans, go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Set before numpy loads, here and in every child: direct_dft's matmul would
# otherwise spread over the machine's cores and add their contention to the
# op time.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The benchmark's own modules, imported in main() once hqsim's sources are
# on the path.
speed = None
tracing = None
workloads = None

SETUP_REPEATS = 7
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many ops above it

END_TO_END = {
    "setup_s": "s",
    "elements_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mib": "MiB",
    "sim_quantum_ops": "count",
    "sim_classical_ops": "count",
}

# Per-op means over the traced ops: "<layer>.calls" and "<layer>.self_s" come
# from the wrappers, the rest are computed below in per_layer_metrics.
PER_LAYER = {
    "hybrid_fft.hybrid_dft.self_s": "s",
    "hybrid_fft.decimate_leaves.self_s": "s",
    "hybrid_fft.butterfly_combine.calls": "count",
    "hybrid_fft.butterfly_combine.self_s": "s",
    "hybrid_fft.direct_dft.self_s": "s",
    "readout.build_schedule.self_s": "s",
    "readout.execute_schedule.calls": "count",
    "readout.execute_schedule.self_s": "s",
    "readout.prepare_block_state.self_s": "s",
    "readout.rebuild_phases.self_s": "s",
    "readout.rescale_to_dft.self_s": "s",
    "readout.sign_test_yield": "fraction",
    "core.effect_probability.calls": "count",
    "core.effect_probability.self_s": "s",
    "core.apply_controlled_circuit.self_s": "s",
    "core.apply_gate.self_s": "s",
    "core.sample_effect.calls": "count",
    "core.sample_effect.self_s": "s",
    "costs.merge_ledgers.self_s": "s",
    "costs.ledgers_merged": "count",
    "search.partition_search.self_s": "s",
    "search.search_node.calls": "count",
    "search.search_node.self_s": "s",
    "search.plan_iterations.calls": "count",
    "search.plan_iterations.self_s": "s",
    "search.oracle.calls": "count",
    "search.oracle.self_s": "s",
    "search.sweep_share": "fraction",
    "search.retry_share": "fraction",
    "search.verify_yield": "fraction",
    "cli.startup_s": "s",
    "cli.parse_args.self_s": "s",
    "cli.run_experiment.self_s": "s",
    "cli.emit_outputs.self_s": "s",
    "python.gc_collections": "count",
    "trace.overhead_frac": "fraction",
}


@dataclasses.dataclass
class OpRecord:
    op: int
    index: int  # position in the workload's fixed op sequence
    n_q: int
    seconds: float  # wall time
    probes: tuple[float, float]  # calibration probe just before and just after the op
    result: object
    traced: bool

    @property
    def norm_seconds(self) -> float:
        return speed.normalised(self.seconds, *self.probes)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(line: str) -> None:
    print(f"# {line}", flush=True)


def machine_info(np) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "probe_reference_s": speed.REFERENCE_S,
    }


def measure_setup(workload_name: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall times, raw and normalised, of fresh interpreters that import
    hqsim and build the inputs."""
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", workload_name,
           "--seed", str(seed)]
    raw, norm = [], []
    before = speed.probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        returncode, _ = workloads.run_child(cmd, subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        if returncode != 0:
            raise RuntimeError(f"set-up probe exited with code {returncode}: {cmd}")
        after = speed.probe()
        raw.append(seconds)
        norm.append(speed.normalised(seconds, before, after))
        before = after
    return raw, norm


def run_one(workload, inp, index, op, run, tracer, gc_counter, probe_before) -> OpRecord:
    """Time one op, probe the CPU's speed, then check the op; an op that
    raises counts as failed."""
    gc_before = gc_counter.count
    if tracer is not None:
        tracer.begin_op(op)
        root = len(tracer.span_name)
    error = None
    start = time.perf_counter()
    try:
        raw = run(inp, tracer)
    except Exception:  # the run goes on; the op is reported as failed
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    probe_after = speed.probe()
    if error is None:
        try:
            result = workload.check(inp, raw)
        except Exception:  # malformed output fails the op, not the run
            error = traceback.format_exc(limit=3)
    if error is not None:
        result = workloads.OpResult(False, error, {}, "")
    if tracer is not None:
        tracer.count_for(op, "python.gc_collections", gc_counter.count - gc_before)
        if result.child_trace is not None:
            tracer.absorb(op, root, result.child_trace)
    return OpRecord(op, index, inp.n_q, seconds, (probe_before, probe_after), result, tracer is not None)


def run_ops(workload, inputs, seconds, tracer, gc_counter) -> list[OpRecord]:
    """Run the op sequence over and over for ``seconds``.

    Stops only at the end of an ``n_q`` cycle, so every node size is run
    equally often, and never before one whole pass of the sequence.  With a
    tracer, every op runs twice in a row, untraced and then traced, so that
    the drift of the machine's speed cancels out of trace.overhead_frac.
    """
    records: list[OpRecord] = []
    cycle = len(workload.cycle)
    run_traced = None if tracer is None else tracer.wrap(tracing.OP_SPAN, workload.run)
    deadline = time.perf_counter() + seconds
    done = 0
    probe = speed.probe()
    while True:
        index = done % len(inputs)
        inp = inputs[index]
        records.append(run_one(workload, inp, index, len(records), workload.run, None, gc_counter, probe))
        probe = records[-1].probes[1]
        if tracer is not None:
            tracer.install()
            try:
                records.append(run_one(workload, inp, index, len(records), run_traced, tracer, gc_counter,
                                       probe))
            finally:
                tracer.uninstall()
            probe = records[-1].probes[1]
        done += 1
        if done >= len(inputs) and done % cycle == 0 and time.perf_counter() >= deadline:
            return records


def guard_determinism(records, reference) -> int:
    """Fail every op whose ledger or output differs from the first run of
    the same input; returns how many differed."""
    differing = 0
    for rec in records:
        ref = reference[rec.index]
        res = rec.result
        if res.ok and res.fingerprint != ref.fingerprint:
            res.ok = False
            res.detail = "ledger or output differs from the first run of this input"
            differing += 1
    return differing


def source_hash() -> str:
    """Digest of hqsim's sources and the benchmark's own, which makes the
    inputs."""
    h = hashlib.sha256()
    for path in sorted((SRC / "hqsim").glob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def guard_across_runs(workload_name: str, seed: int, reference) -> bool:
    """Two runs of one seed on one source tree must give the same ledgers and
    outputs; the first run's digest is kept in perfbench/out/."""
    digest = hashlib.sha256("".join(r.fingerprint for r in reference).encode()).hexdigest()
    path = OUT_DIR / "fingerprints.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload_name}/{seed}/{source_hash()}"
    if key in store:
        return store[key] == digest
    store[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def tail_index(count: int) -> int:
    """Sorted position of the highest percentile with TAIL_BEYOND ops above
    it; in a run too short for that, the median's position."""
    return max(count - TAIL_BEYOND - 1, (count - 1) // 2)


def end_to_end_metrics(workload, records, setup_times) -> tuple[dict, dict]:
    """Host times are normalised; see speed.py."""
    times = [r.norm_seconds for r in records]
    first_pass = records[: workload.ops_per_pass]
    idx = tail_index(len(times))
    if workload.spawns_children:
        peak_kib = max(r.result.rss_kib for r in records)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup_times),
        "elements_per_s": workload.elements_per_op * len(records) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": sorted(times)[idx],
        "peak_rss_mib": peak_kib / 1024.0,
        "sim_quantum_ops": sum(r.result.quantum_ops for r in first_pass),
        "sim_classical_ops": sum(r.result.classical_ops for r in first_pass),
    }
    raw = [r.seconds for r in records]
    notes = {"op_tail_percentile": 100.0 * (idx + 1) / len(times), "ops": len(times),
             "ops_beyond_tail": len(times) - 1 - idx,
             "raw_op_p50_s": statistics.median(raw), "raw_op_tail_s": sorted(raw)[idx],
             "raw_elements_per_s": workload.elements_per_op * len(raw) / sum(raw),
             "speed_factor_p50": statistics.median(r.seconds / r.norm_seconds for r in records)}
    return values, notes


def traced_totals(traced, tracer) -> tuple[dict, dict]:
    """Per-layer [calls, self seconds] and counters summed over traced ops."""
    layers: dict[str, list] = {}
    counts: dict[str, float] = {}
    for rec in traced:
        for name, (calls, self_s) in tracer.op_layers.get(rec.op, {}).items():
            acc = layers.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, value in tracer.op_counts.get(rec.op, {}).items():
            counts[name] = counts.get(name, 0) + value
    return layers, counts


def per_layer_metrics(workload, traced, untraced, layers, counts) -> dict:
    ops = len(traced)

    def ledger_sum(counter: str) -> int:
        return sum(int(r.result.ledger.get(counter, 0)) for r in traced)

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind in ("calls", "self_s"):
            calls, self_s = layers.get(layer, (0, 0.0))
            values[metric] = (calls if kind == "calls" else self_s) / ops
    sign_tests = counts.get("readout.sign_tests", 0)
    values["readout.sign_test_yield"] = (
        1.0 - counts.get("readout.fallbacks", 0) / sign_tests if sign_tests else 0.0
    )
    values["costs.ledgers_merged"] = counts.get("costs.ledgers_merged", 0) / ops
    values["search.sweep_share"] = share(ledger_sum("sweep_queries"), workload.elements_per_op * ops)
    values["search.retry_share"] = share(ledger_sum("retry_queries"), ledger_sum("quantum_oracle_queries"))
    values["search.verify_yield"] = share(
        counts.get("search.node_successes", 0), ledger_sum("classical_oracle_queries")
    )
    values["cli.startup_s"] = counts.get("cli.startup_s", 0.0) / ops
    values["python.gc_collections"] = counts.get("python.gc_collections", 0) / ops
    values["trace.overhead_frac"] = (
        statistics.median(r.seconds for r in traced) / statistics.median(r.seconds for r in untraced) - 1.0
    )
    return {name: values[name] for name in PER_LAYER}


def module_shares(traced, layers) -> dict:
    """Share of traced op time spent in each module's own code (self time);
    "unwrapped" is the rest: the benchmark's loop and, for child processes,
    interpreter start-up and exit."""
    total = sum(r.seconds for r in traced)
    by_module: dict[str, float] = {}
    for name, (_, self_s) in layers.items():
        if name != tracing.OP_SPAN:
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + self_s
    shares = {m: s / total for m, s in sorted(by_module.items())}
    shares["unwrapped"] = 1.0 - sum(shares.values())
    return shares


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "hqsim" / "__init__.py").is_file():
        print(f"error: no hqsim sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np

        import hqsim
    except ImportError as exc:
        print(f"error: cannot import hqsim: {exc}", file=sys.stderr)
        return 2
    if Path(hqsim.__file__).resolve().parent != (SRC / "hqsim").resolve():
        print(f"error: hqsim imported from {hqsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    global speed, tracing, workloads
    import speed
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    machine = machine_info(np)
    machine["pinned_cpu"] = speed.pin()
    report("machine: " + json.dumps(machine, sort_keys=True))

    setup_raw, setup_times = measure_setup(workload.name, args.seed) if args.trace == 0 else ([], [])
    inputs = workload.build(args.seed)

    tracer = tracing.Tracer() if args.trace == 1 else None
    with tracing.GcCounter() as gc_counter:
        records = run_ops(workload, inputs, args.seconds, tracer, gc_counter)
    untraced = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]

    reference = [r.result for r in untraced[: len(inputs)]]
    differing = guard_determinism(records, reference)
    same_as_before = guard_across_runs(workload.name, args.seed, reference)
    failed = sum(1 for r in records if not r.result.ok)
    correct = failed == 0 and same_as_before

    for rec in records:
        if not rec.result.ok:
            report(f"op {rec.op} (input {rec.index}, n_q={rec.n_q}) FAILED: {rec.result.detail}")
    if not same_as_before:
        report("FAILED: ledgers or outputs differ from an earlier run of this seed and source")
    report(f"workload {workload.name}, seed {args.seed}: {len(records)} ops, {failed} failed, "
           f"{differing} not reproduced")

    result_file = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": machine,
                   "ops": [{"op": r.op, "input": r.index, "n_q": r.n_q, "seconds": r.seconds,
                            "probes": r.probes, "ok": r.result.ok, "traced": r.traced, "ledger": r.result.ledger}
                           for r in records]}
    if args.trace == 0:
        metrics, notes = end_to_end_metrics(workload, untraced, setup_times)
        units = END_TO_END
        notes["setup_runs_s"] = setup_times
        notes["raw_setup_runs_s"] = setup_raw
        report(f"failed_frac = {failed / len(records):.6g} (fraction; {failed}/{len(records)} ops)")
        report(f"op_tail_s is the p{notes['op_tail_percentile']:.1f} of {notes['ops']} ops "
               f"({notes['ops_beyond_tail']} beyond it)")
        report(f"host times at the reference speed (probe {speed.REFERENCE_S} s); median speed factor "
               f"{notes['speed_factor_p50']:.3f}; raw op_p50_s = {notes['raw_op_p50_s']:.6g} s, "
               f"raw op_tail_s = {notes['raw_op_tail_s']:.6g} s, "
               f"raw elements_per_s = {notes['raw_elements_per_s']:.6g} 1/s, "
               f"raw setup_s = {statistics.median(setup_raw):.6g} s")
    else:
        layers, counts = traced_totals(traced, tracer)
        metrics = per_layer_metrics(workload, traced, untraced, layers, counts)
        units = PER_LAYER
        notes = {"module_self_share": module_shares(traced, layers),
                 "untraced_ops": len(untraced), "traced_ops": len(traced)}
        report("share of traced op time by module (self time): " + ", ".join(
            f"{m} {s:.1%}" for m, s in notes["module_self_share"].items()))
        tracer.save_spans(OUT_DIR / f"{workload.name}-seed{args.seed}-spans.npz")
    for name, value in metrics.items():
        report(f"{name} = {value:.6g} {units[name]}")
    result_file.update(metrics=metrics, notes=notes)
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result_file, indent=1, sort_keys=True)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
