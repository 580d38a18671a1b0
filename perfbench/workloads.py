"""The benchmark's four workloads: inputs, one operation, and its checks.

Every input is generated here from the workload seed; hqsim only receives
the generated values.  Operation ``i`` of a workload draws its input from
``SeedSequence([seed, workload tag, i])`` and its node size from the
workload's ``n_q`` cycle, so a run's op sequence is fixed by the seed.

Run as a script, this module is the set-up probe that ``setup_s`` times: a
fresh interpreter imports hqsim and builds one workload's inputs.

    python3 perfbench/workloads.py --workload dft-nodes --seed 1
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import hqsim

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# A child that runs longer than this is killed and its op counts as failed.
CHILD_TIMEOUT_S = 120.0

# Ledger counters summed into the two simulated-cost metrics.
QUANTUM_COUNTERS = ("quantum_gate_units", "state_prep_units", "quantum_oracle_queries")
CLASSICAL_COUNTERS = ("classical_ops", "fallback_ops", "classical_oracle_queries", "sweep_queries")


@dataclasses.dataclass
class OpResult:
    """What the benchmark keeps of one operation after checking it."""

    ok: bool
    detail: str
    ledger: dict
    fingerprint: str  # digest of the op's output and ledger
    rss_kib: int = 0  # peak RSS of the op's child process
    child_trace: dict | None = None

    @property
    def quantum_ops(self) -> int:
        return sum(int(self.ledger.get(c, 0)) for c in QUANTUM_COUNTERS)

    @property
    def classical_ops(self) -> int:
        return sum(int(self.ledger.get(c, 0)) for c in CLASSICAL_COUNTERS)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _ledger_bytes(ledger: dict) -> bytes:
    return json.dumps(ledger, sort_keys=True).encode()


def _op_seed(seed: int, tag: int, i: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, tag, i])


class Workload:
    name = ""
    tag = 0
    n = 0
    cycle: tuple[int, ...] = ()
    ops_per_pass = 0
    spawns_children = False  # ops run in child processes, not in the benchmark's

    @property
    def elements_per_op(self) -> int:
        return 2**self.n

    def build(self, seed: int) -> list:
        return [self.build_op(seed, i) for i in range(self.ops_per_pass)]

    def build_op(self, seed: int, i: int):
        raise NotImplementedError

    def run(self, inp, tracer=None):
        raise NotImplementedError

    def check(self, inp, raw) -> OpResult:
        raise NotImplementedError


@dataclasses.dataclass
class DftInput:
    n_q: int
    values: np.ndarray
    signal: object


class DftNodes(Workload):
    """``hybrid_dft`` in exact mode; the node stage dominates."""

    name = "dft-nodes"
    tag = 1
    n = 13
    cycle = (2, 4, 8)
    ops_per_pass = 6
    tolerance = 1e-9

    def build_op(self, seed, i):
        values = np.random.default_rng(_op_seed(seed, self.tag, i)).uniform(-1.0, 1.0, 2**self.n)
        return DftInput(self.cycle[i % len(self.cycle)], values, hqsim.RealSignal.from_values(values))

    def run(self, inp, tracer=None):
        return hqsim.hybrid_dft(inp.signal, hqsim.FftPlan(n=self.n, n_q=inp.n_q))

    def check(self, inp, raw):
        spectrum, ledger = raw
        counters = ledger.as_dict()
        # y_k = sum_j x_j exp(+2 pi i k j / N) is N times numpy's inverse FFT.
        reference = inp.values.size * np.fft.ifft(inp.values)
        deviation = float(np.max(np.abs(spectrum.values - reference)))
        problems = []
        if not deviation <= self.tolerance:
            problems.append(f"deviation {deviation:.3e} > {self.tolerance:g}")
        for term, value in hqsim.predict_dft_cost(self.n, inp.n_q).terms.items():
            if term in counters and counters[term] != value:
                problems.append(f"{term}={counters[term]} != forecast {value}")
        fingerprint = _digest(np.ascontiguousarray(spectrum.values).tobytes(), _ledger_bytes(counters))
        return OpResult(not problems, "; ".join(problems), counters, fingerprint)


@dataclasses.dataclass
class SearchInput:
    n_q: int
    oracle: object
    truth: frozenset


class _Search(Workload):
    n = 14

    def run(self, inp, tracer=None):
        oracle = inp.oracle
        if tracer is not None:
            oracle = dataclasses.replace(oracle, membership=tracer.wrap("search.oracle", oracle.membership))
        return hqsim.partition_search(oracle, inp.n_q)

    def check(self, inp, raw):
        found, ledger = raw
        counters = ledger.as_dict()
        problems = []
        if found != inp.truth:
            missing, extra = len(inp.truth - found), len(found - inp.truth)
            problems.append(f"found set differs: {missing} missing, {extra} extra")
        want = hqsim.predict_search_cost(self.n, inp.n_q).terms["node_accesses"]
        if counters["node_accesses"] != want:
            problems.append(f"node_accesses={counters['node_accesses']} != forecast {want}")
        fingerprint = _digest(json.dumps(sorted(found)).encode(), _ledger_bytes(counters))
        return OpResult(not problems, "; ".join(problems), counters, fingerprint)


class SearchSparse(_Search):
    """Set-backed oracle with 4 solutions: rounds fail, the sweep dominates."""

    name = "search-sparse"
    tag = 2
    cycle = (2, 4, 6)
    ops_per_pass = 48
    solutions = 4

    def build_op(self, seed, i):
        rng = np.random.default_rng(_op_seed(seed, self.tag, i))
        picks = rng.choice(2**self.n, size=self.solutions, replace=False).tolist()
        oracle = hqsim.SearchOracle.from_solutions(self.n, picks)
        return SearchInput(self.cycle[i % len(self.cycle)], oracle, frozenset(picks))


class SearchDense(_Search):
    """Predicate-only oracle with 1,024 solutions: enumeration, retries and
    repeat node accesses."""

    name = "search-dense"
    tag = 3
    cycle = (4, 6, 8)
    ops_per_pass = 48

    def build_op(self, seed, i):
        rng = np.random.default_rng(_op_seed(seed, self.tag, i))
        size = 2**self.n
        shift = self.n - 4
        a = 2 * int(rng.integers(0, size // 2)) + 1  # odd, so i -> a*i+b is a bijection
        b = int(rng.integers(0, size))

        def member(i: int) -> bool:
            return ((a * i + b) % size) >> shift == 0

        index = np.arange(size, dtype=np.int64)
        truth = frozenset(np.flatnonzero(((a * index + b) % size) >> shift == 0).tolist())
        if len(truth) != size >> 4:
            raise RuntimeError(f"predicate has {len(truth)} solutions, expected {size >> 4}")
        oracle = hqsim.SearchOracle(self.n, member, len(truth), None)
        return SearchInput(self.cycle[i % len(self.cycle)], oracle, truth)


@dataclasses.dataclass
class CliInput:
    n_q: int
    argv: list


def run_child(cmd, stdout, env=None) -> tuple[int, object]:
    """Run one child process to its end; returns its exit code and its own
    resource usage.

    The wait is a blocking ``os.wait4``: ``Popen.wait`` with a timeout polls
    with sleeps of up to 50 ms, which would show in the timings.  A timer
    kills a child that runs longer than CHILD_TIMEOUT_S.  ``RUSAGE_CHILDREN``
    is no substitute for the usage ``wait4`` returns: it keeps the maximum
    over every child so far, not this child's own peak.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=stdout, stderr=subprocess.STDOUT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.daemon = True
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


class CliSampled(Workload):
    """One ``python -m hqsim dft-run --mode sampled`` child per op."""

    name = "cli-sampled"
    tag = 4
    n = 11
    cycle = (0, 2, 4, 6, 11)
    ops_per_pass = 20
    spawns_children = True
    shots = 1024

    def build_op(self, seed, i):
        n_q = self.cycle[i % len(self.cycle)]
        run_seed = int(_op_seed(seed, self.tag, i).generate_state(1)[0])
        argv = [
            "dft-run", "--n", str(self.n), "--nq", str(n_q), "--mode", "sampled",
            "--shots", str(self.shots), "--seed", str(run_seed),
        ]
        return CliInput(n_q, argv)

    def run(self, inp, tracer=None):
        work = OUT_DIR / "cli"
        work.mkdir(parents=True, exist_ok=True)
        paths = {k: work / f"op.{k}" for k in ("csv", "json", "log", "trace.json")}
        for path in paths.values():
            path.unlink(missing_ok=True)
        outputs = ["--out-csv", str(paths["csv"]), "--out-json", str(paths["json"])]
        if tracer is None:
            cmd = [sys.executable, "-m", "hqsim", *inp.argv, *outputs]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(paths["trace.json"]),
                   *inp.argv, *outputs]
        env = dict(os.environ, PERFBENCH_SPAWN_CLOCK=repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        with open(paths["log"], "wb") as log:
            returncode, usage = run_child(cmd, log, env)
        return returncode, usage.ru_maxrss, paths

    def check(self, inp, raw):
        returncode, rss_kib, paths = raw
        if returncode != 0:
            log = paths["log"].read_text(errors="replace")[-400:]
            return OpResult(False, f"exit code {returncode}: {log}", {}, "", rss_kib)
        csv_bytes = paths["csv"].read_bytes()
        json_bytes = paths["json"].read_bytes()
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
        problems = []
        if len(rows) != 1:
            problems.append(f"{len(rows)} CSV rows, expected 1")
        row = rows[0] if rows else {}
        ledger = {k: int(row[k]) for k in hqsim.CostLedger.field_names() if k in row}
        for column, value in row.items():
            counter = column.removeprefix("forecast_")
            if counter != column and counter in row and int(row[counter]) != int(value):
                problems.append(f"{counter}={row[counter]} != {column} {value}")
        if not math.isfinite(float(row.get("deviation", "nan"))):
            problems.append(f"deviation {row.get('deviation')!r} is not finite")
        if row.get("deviation_oracle") != "direct":
            problems.append(f"reference is {row.get('deviation_oracle')!r}, expected 'direct'")
        if json.loads(json_bytes)["points"][0]["n_q"] != inp.n_q:
            problems.append("JSON point has the wrong n_q")
        child_trace = None
        if paths["trace.json"].exists():
            child_trace = json.loads(paths["trace.json"].read_text())
        fingerprint = _digest(csv_bytes, json_bytes)
        return OpResult(not problems, "; ".join(problems), ledger, fingerprint, rss_kib, child_trace)


WORKLOADS = {w.name: w for w in (DftNodes(), SearchSparse(), SearchDense(), CliSampled())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Build one workload's inputs and exit.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    WORKLOADS[args.workload].build(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
