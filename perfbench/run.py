"""The stanleypf benchmark: closed-loop CLI workloads with output-checked
end-to-end metrics, and a traced run with per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One client runs ``python -m stanleypf ...``
invocations back to back, each in a fresh interpreter started only after
the previous one exited, in whole cycles until S seconds have passed
(see ops.py for the cycles). Every output is checked by the gate in ops.py.

Set-up compiles the package into a benchmark-owned bytecode prefix
(``PYTHONPYCACHEPREFIX``; nothing is written under ``src/``) and warms the
interpreter's own imports there; cli-cached-mix then fills a fresh cache
directory at order 2000. Set-up runs several times and ``setup_s`` is the
median, so work moved into set-up shows.

A calibration child, a fixed pure-Python computation that does not use the
package, runs before every set-up and every cycle and after the last of
each. A shared host's speed can drift by a fifth over tens of seconds and
by half over minutes, which no run of under a minute averages out, so each
set-up and each cycle is timed relative to the mean of the calibration
times just before and just after it; the drift cancels and the program's
own cost remains.

--trace 0 reports the end-to-end metrics (times are wall clock, spawn to
exit; memory is the child's own, from wait4 in launcher.py):
    setup_s        median over set-ups of set-up wall time / calibration
                   time, times CALIBRATION_NOMINAL_S: set-up seconds on a
                   host where the calibration takes that long
    cycle_rel.p50  median over cycles of cycle wall time / calibration time
    peak_rss_mb    largest child max RSS
Printed on the lines above the result, in absolute units and not steady
enough to gate on: op_s.p50 (median invocation wall time), ops_per_s
(correct ops per second of loop time less calibration time), cpu_s_per_op
(child user + system time per op, median over cycles), setup_wall_s.p50,
calibration_s.p50, fail_ratio (= failed / attempted, also in the result
line) and, when a run holds at least 100 ops, op_s.p90.

--trace 1 alternates traced and untraced cycles and reports per-layer
metrics per traced cycle (see tracer.py): for each wrapped function
``<module>.<function>.calls`` and ``.self_s`` (span minus the time its
child spans cover), computed op counts, ``<module>.self_s`` per module,
``cli.import_s`` (a fresh ``import stanleypf.cli`` minus a bare
interpreter) and ``trace.overhead_s`` (traced minus untraced cycle time).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import ops
from tracer import TRACED

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "stanleypf")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
TRACER = os.path.join(ops.HERE, "tracer.py")
LAUNCHER = os.path.join(ops.HERE, "launcher.py")

SETUP_REPEATS = 5
# about 0.25 s of integer and tuple work in a fresh interpreter, like an op;
# isolated (-I -S), so neither the environment nor a bytecode prefix moves it
CALIBRATION = [
    sys.executable, "-I", "-S", "-c",
    "acc = 0\n"
    "for i in range(800000):\n"
    "    pair = (i, i & 1023)\n"
    "    acc = (acc * 31 + pair[0] * pair[1]) % 1000003\n"
    "print(acc)\n",
]
CALIBRATION_OUT = b"622945\n"
# about the calibration's median wall time on the 2-vCPU Xeon VM the seed
# baseline was recorded on; it only scales setup_s into seconds
CALIBRATION_NOMINAL_S = 0.25
OP_TIMEOUT_S = {"verify-oracle50": 30.0, "series-order2000": 40.0, "cli-cached-mix": 20.0}
# a run that cannot finish within this many seconds gives up without a result
RUN_LIMIT_S = 170.0
IMPORT_SAMPLES = 7
GOLDEN = ops.load_golden()

COUNTS = {
    "partitions.partitions_of": ("items",),
    "partitions._parts_stream": ("items",),
    "stanley.table_from_enumeration": ("partitions_visited",),
    "series_core.series_mul": ("coeff_mults",),
    "series_core.series_reciprocal": ("coeff_mults",),
    "series_core.expand_product": ("binomial_passes",),
}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# child processes

def child_env(pycache: str, write_bytecode: bool = False) -> dict:
    env = dict(os.environ)
    for var in ("STANLEYPF_CACHE", "PYTHONOPTIMIZE", "PYTHONSTARTUP", "PYTHONHOME"):
        env.pop(var, None)
    env.update(PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=pycache, PYTHONHASHSEED="0")
    if write_bytecode:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


@dataclass
class Result:
    rc: int
    wall_s: float
    cpu_s: float
    rss_kb: int
    out: bytes


class Launcher:
    """Runs children through launcher.py, which times each one spawn to exit
    and takes its own rusage from wait4 (see launcher.py for why children
    are not forked from this process)."""

    def __init__(self, deadline: float | None = None):
        self.deadline = deadline  # perf_counter time after which no child may run
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", LAUNCHER],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            start_new_session=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        if exc_type is None:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        else:
            # the launcher and any child it is waiting on share one process group
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()

    def spawn(self, argv: list[str], env: dict, workdir: str, timeout: float) -> Result:
        if self.deadline is not None:
            timeout = min(timeout, self.deadline - time.perf_counter())
            if timeout <= 0:
                raise BenchError("the run is out of time")
        out_path = os.path.join(workdir, "stdout")
        err_path = os.path.join(workdir, "stderr")
        request = {"argv": argv, "env": env, "stdout": out_path, "stderr": err_path, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the launcher exited")
        r = json.loads(reply)
        with open(out_path, "rb") as fh:
            data = fh.read()
        if r["rc"] != 0:
            with open(err_path, "rb") as fh:
                tail = fh.read()[-400:].decode(errors="replace").strip()
            print(f"child {' '.join(argv[-12:])} exited {r['rc']}: {tail}", file=sys.stderr)
        return Result(r["rc"], r["wall_s"], r["cpu_s"], r["rss_kb"], data)


def cli_argv(op: ops.Op, cache_dir: str | None) -> list[str]:
    return [sys.executable, "-m", "stanleypf"] + op.argv(cache_dir)


def calibrate(launcher: Launcher, workdir: str) -> float:
    """Wall time of one calibration child."""
    res = launcher.spawn(CALIBRATION, dict(os.environ), workdir, 30.0)
    if res.rc != 0 or res.out != CALIBRATION_OUT:
        raise BenchError("the calibration child gave a wrong result")
    return res.wall_s


def relative(walls: list[float], calibrations: list[float]) -> list[float]:
    """Each wall time over the mean of the calibrations either side of it."""
    return [2 * w / (before + after) for w, before, after in zip(walls, calibrations, calibrations[1:])]


# ---------------------------------------------------------------------------
# set-up

class Setup:
    def __init__(self, launcher: Launcher, workload: str, workdir: str, timeout: float, traced: bool = False):
        os.makedirs(workdir)
        self.launcher = launcher
        self.workdir = workdir
        self.timeout = timeout
        self.pycache = os.path.join(workdir, "pycache")
        self.cache_dir = os.path.join(workdir, "cache")
        self.env = child_env(self.pycache)
        self.ref = None
        start = time.perf_counter()
        # compile the package, then let one real invocation write the bytecode
        # of every stdlib module the CLI start-up path imports
        compile_env = child_env(self.pycache, write_bytecode=True)
        steps = [
            [sys.executable, "-m", "compileall", "-q", PACKAGE, ops.HERE],
            [sys.executable, "-m", "stanleypf", "--version"],
        ]
        if traced:
            steps.append([sys.executable, TRACER, os.path.join(workdir, "warm.json"), "0", "--", "--version"])
        for argv in steps:
            if self.run(argv, compile_env).rc != 0:
                raise BenchError(f"set-up step failed: {' '.join(argv)}")
        if workload == "cli-cached-mix":
            res = self.run(cli_argv(ops.CACHE_FILL, self.cache_dir), self.env)
            problem = ops.op_problem(ops.CACHE_FILL, res.rc, res.out, GOLDEN)
            if problem:
                raise BenchError(f"cache fill is wrong: {problem}")
            self.ref = ops.parse_table("csv", res.out.decode())
        self.seconds = time.perf_counter() - start

    def run(self, argv, env) -> Result:
        return self.launcher.spawn(argv, env, self.workdir, self.timeout)


# ---------------------------------------------------------------------------
# the closed loop

class Loop:
    """Runs whole cycles of ops, one at a time. Outputs are judged after the
    timed loop, so the gate's own work does not slow the client."""

    def __init__(self, workload: str, seed: int, setup: Setup):
        self.workload = workload
        self.setup = setup
        self.source = ops.CycleSource(workload, seed)
        self.records: list[tuple[int, ops.Op, Result]] = []
        self.cycles = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.records)

    def run_cycle(self, traced: bool = False, trace_dir: str | None = None) -> tuple[list[Result], list[str]]:
        results, span_files = [], []
        for op in self.source.next_cycle():
            cache = self.setup.cache_dir
            if op.fresh_cache:
                cache = tempfile.mkdtemp(prefix="write-", dir=self.setup.workdir)
            argv = cli_argv(op, cache)
            if traced:
                spans = os.path.join(trace_dir, f"spans-{len(self.records)}.json")
                argv = [sys.executable, TRACER, spans, str(len(self.records)), "--"] + op.argv(cache)
                span_files.append(spans)
            res = self.setup.run(argv, self.setup.env)
            self.records.append((self.cycles, op, res))
            results.append(res)
            if op.fresh_cache:
                shutil.rmtree(cache)
        self.cycles += 1
        return results, span_files

    def judge(self) -> None:
        """Count every op whose output the gate rejects."""
        columns: dict[int, dict[str, list[int]]] = {}
        for cycle, op, res in self.records:
            problem = ops.op_problem(op, res.rc, res.out, GOLDEN, self.setup.ref)
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{op.key}: {problem}")
            elif self.workload == "series-order2000" and op.kind == "export":
                columns.setdefault(cycle, {})[op.arg("--stat")] = ops.parse_column("bfile", res.out.decode())
        # the four columns exported in one cycle must satisfy p = t + u, f = t - u
        for cols in columns.values():
            problem = ops.relation_problem(cols) if len(cols) == len(ops.STATS) else None
            if problem:
                self.failed += len(cols)
                self.problems.append(f"cycle columns: {problem}")


# ---------------------------------------------------------------------------
# metrics

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_setups(launcher: Launcher, workload: str, workdir: str, timeout: float) -> tuple[Setup, list[float], list[float]]:
    """Set up SETUP_REPEATS times; the last set-up is the one the loop uses."""
    walls, calibrations = [], [calibrate(launcher, workdir)]
    for k in range(SETUP_REPEATS):
        setup = Setup(launcher, workload, os.path.join(workdir, f"setup-{k}"), timeout)
        walls.append(setup.seconds)
        calibrations.append(calibrate(launcher, workdir))
    return setup, walls, relative(walls, calibrations)


def run_untraced(loop: Loop, seconds: float, setup_walls: list[float], setup_rel: list[float]) -> tuple[dict, list[str]]:
    cycles: list[list[Result]] = []
    calibrations: list[float] = []
    launcher, workdir = loop.setup.launcher, loop.setup.workdir
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        calibrations.append(calibrate(launcher, workdir))
        cycles.append(loop.run_cycle()[0])
    calibrations.append(calibrate(launcher, workdir))
    elapsed = time.perf_counter() - start - sum(calibrations)
    loop.judge()
    results = [r for cycle in cycles for r in cycle]
    walls = [r.wall_s for r in results]
    ok = loop.attempted - loop.failed
    cycle_rel = relative([sum(r.wall_s for r in c) for c in cycles], calibrations)
    metrics = {
        "setup_s": metric(statistics.median(setup_rel) * CALIBRATION_NOMINAL_S, "s"),
        "cycle_rel.p50": metric(statistics.median(cycle_rel), "ratio"),
        "peak_rss_mb": metric(max(r.rss_kb for r in results) / 1024, "MB"),
    }
    cpu_per_op = statistics.median([sum(r.cpu_s for r in c) / len(c) for c in cycles])
    notes = [
        f"ops {len(results)} in {elapsed:.3f} s",
        f"fail_ratio {loop.failed / loop.attempted:.6f} ratio",
        f"op_s.p50 {statistics.median(walls):.6f} s",
        f"ops_per_s {ok / elapsed:.6f} 1/s",
        f"cpu_s_per_op {cpu_per_op:.6f} s",
        f"setup_wall_s.p50 {statistics.median(setup_walls):.6f} s",
        f"calibration_s.p50 {statistics.median(calibrations):.6f} s",
    ]
    if len(walls) >= 100:
        notes.append(f"op_s.p90 {percentile(walls, 0.9):.6f} s")
    return metrics, notes


def layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for layer, functions in TRACED.items():
        names.append((f"{layer}.self_s", "s"))
        for fn in functions:
            full = f"{layer}.{fn}"
            names += [(f"{full}.calls", "count"), (f"{full}.self_s", "s")]
            names += [(f"{full}.{c}", "count") for c in COUNTS.get(full, ())]
    names += [
        ("partitions.partitions_of.items_per_s", "1/s"),
        ("partitions._parts_stream.items_per_s", "1/s"),
        ("verify.checks_run", "count"),
        ("verify.checks_passed", "count"),
        ("cli.import_s", "s"),
        ("cli.cache.hits", "count"),
        ("cli.cache.misses", "count"),
        ("cli.cache.hit_ratio", "ratio"),
        ("cli.bytes_out", "B"),
        ("trace.cycle_s", "s"),
        ("trace.untraced_cycle_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return names


def aggregate_spans(span_files: list[str]) -> dict[str, float]:
    """Sum calls, self time and counts per span name over all traced ops.

    A span's self time is its busy time minus the busy time of the spans
    whose parent it is. A leaf record (see tracer.py) stands for
    ``counts["calls"]`` calls."""
    totals: dict[str, float] = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for path in span_files:
        with open(path) as fh:
            spans = json.load(fh)
        covered = [0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += span[5]
        for pos, span in enumerate(spans):
            if span is None:
                continue
            name, _start, _end, _parent, _op, busy, counts = span
            counts = dict(counts or {})
            add(f"{name}.calls", counts.pop("calls", 1))
            add(f"{name}.self_s", (busy - covered[pos]) / 1e9)
            for key, value in counts.items():
                add(f"{name}.{key}", value)
    return totals


def import_seconds(setup: Setup) -> float:
    """Fresh ``import stanleypf.cli`` minus a bare interpreter, medians of
    alternating samples."""
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(setup.run([sys.executable, "-c", "pass"], setup.env).wall_s)
        full.append(setup.run([sys.executable, "-c", "import stanleypf.cli"], setup.env).wall_s)
    return statistics.median(full) - statistics.median(bare)


def rate(totals: dict[str, float], name: str) -> float:
    """Items a stream yields per second of its own busy time."""
    busy = totals.get(f"{name}.self_s", 0)
    return totals.get(f"{name}.items", 0) / busy if busy else 0


def run_traced(loop: Loop, seconds: float) -> dict:
    """Alternate traced and untraced cycles; per-layer metrics per traced cycle."""
    trace_dir = os.path.join(loop.setup.workdir, "trace")
    os.makedirs(trace_dir)
    import_s = import_seconds(loop.setup)
    traced, untraced, span_files = [], [], []
    bytes_out = 0
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        results, files = loop.run_cycle(traced=True, trace_dir=trace_dir)
        traced.append(sum(r.wall_s for r in results))
        bytes_out += sum(len(r.out) for r in results)
        span_files += files
        untraced.append(sum(r.wall_s for r in loop.run_cycle()[0]))
    loop.judge()
    totals = aggregate_spans(span_files)
    cycles = len(traced)
    for layer, functions in TRACED.items():
        totals[f"{layer}.self_s"] = sum(totals.get(f"{layer}.{fn}.self_s", 0) for fn in functions)
    per_cycle = {key: value / cycles for key, value in totals.items()}
    hits = totals.get("cli.cache_load.hits", 0)
    misses = totals.get("cli.cache_load.misses", 0)
    derived = {
        f"partitions.{stream}.items_per_s": rate(totals, f"partitions.{stream}")
        for stream in ("partitions_of", "_parts_stream")
    }
    derived.update({
        "verify.checks_run": per_cycle.get("verify.run_suite.checks_run", 0),
        "verify.checks_passed": per_cycle.get("verify.run_suite.checks_passed", 0),
        "cli.import_s": import_s,
        "cli.cache.hits": hits / cycles,
        "cli.cache.misses": misses / cycles,
        "cli.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0,
        "cli.bytes_out": bytes_out / cycles,
        "trace.cycle_s": statistics.median(traced),
        "trace.untraced_cycle_s": statistics.median(untraced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    })
    return {
        name: metric(derived[name] if name in derived else per_cycle.get(name, 0), unit)
        for name, unit in layer_names()
    }


# ---------------------------------------------------------------------------

def environment(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
    }


def commit() -> str:
    """HEAD of a git checkout, read from .git directly; 'unknown' elsewhere."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def source_digest() -> str:
    parts = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                parts.append(name.encode() + b"\0" + fh.read())
    return ops.digest(b"\0".join(parts))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"error: no stanleypf sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    timeout = OP_TIMEOUT_S[args.workload]
    try:
        with Launcher(deadline=time.perf_counter() + RUN_LIMIT_S) as launcher:
            if args.trace:
                setup = Setup(launcher, args.workload, os.path.join(workdir, "setup"), timeout, traced=True)
                loop = Loop(args.workload, args.seed, setup)
                metrics, notes = run_traced(loop, args.seconds), []
            else:
                setup, setup_walls, setup_rel = run_setups(launcher, args.workload, workdir, timeout)
                loop = Loop(args.workload, args.seed, setup)
                metrics, notes = run_untraced(loop, args.seconds, setup_walls, setup_rel)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only when no other run is using it
        except OSError:
            pass
    print("env " + json.dumps(environment(args.workload, args.seed)))
    for problem in loop.problems[:10]:
        print(f"FAILED {problem}")
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
