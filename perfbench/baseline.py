"""Record a baseline: two sets of ten benchmark runs per workload, one
traced run per workload, and the layer timings of the ROADMAP baseline table.

    python3 perfbench/baseline.py --out perfbench/baselines/NAME.json

Run from the repository root; it takes about 70 minutes on 2 cores. For
every end-to-end metric it stores, per set, the ten values, their median
and the spread (distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, over the median), and the
change of the median from the first set to the second. Run-to-run
steadiness is judged by both against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import ops
import run

RUNS = 10
# first seeds of the two sets; a set runs RUNS consecutive seeds
FIRST_SEEDS = (101, 201)

# each snippet runs in a fresh interpreter, so the enumeration memo is cold
LAYER_SNIPPETS = {
    "partitions._parts_stream.n_le_60": (
        "from stanleypf.partitions import _parts_stream\n"
        "start = clock()\n"
        "count = sum(1 for n in range(61) for _ in _parts_stream(n))\n"
        "assert count == 6639349, count\n"
    ),
    "stanley.table_from_enumeration.60": (
        "from stanleypf import stanley\nstart = clock()\nstanley.table_from_enumeration(60)\n"
    ),
    **{
        f"stanley.t_series_andrews.{order}": (
            f"from stanleypf import stanley\nstart = clock()\nstanley.t_series_andrews({order})\n"
        )
        for order in (200, 1000, 2000)
    },
    **{
        f"verify.run_suite.{suite}": (
            "from stanleypf import verify\nstart = clock()\n"
            f"assert all(r.passed for r in verify.run_suite({suite!r}, order=200, enum_bound=25, oracle_bound=60))\n"
        )
        for suite in ("series", "combinatorial", "proof-steps", "congruences")
    },
}


def layer_timings(reps: int) -> dict:
    """Median seconds of each ROADMAP-table layer over fresh interpreters."""
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="layers-", dir=run.WORK_ROOT)
    try:
        with run.Launcher() as launcher:
            setup = run.Setup(launcher, "verify-oracle50", os.path.join(workdir, "setup"), timeout=120.0)
            out = {}
            for name, body in LAYER_SNIPPETS.items():
                code = "from time import perf_counter as clock\n" + body + "print(clock() - start)\n"
                samples = []
                for _ in range(reps):
                    res = setup.run([sys.executable, "-c", code], setup.env)
                    if res.rc != 0:
                        samples = None
                        break
                    samples.append(float(res.out.decode().strip()))
                out[name] = {"median_s": statistics.median(samples), "samples_s": samples} if samples else None
                print(f"layer {name}: {out[name]}", flush=True)
            return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, os.path.join(ops.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=200)
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - start


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def run_set(workload: str, first_seed: int, seconds: int, bounds: dict) -> dict:
    seeds = list(range(first_seed, first_seed + RUNS))
    results, walls = [], []
    for seed in seeds:
        res, wall = bench(workload, seed, seconds, 0)
        print(f"{workload} seed {seed} ({wall:.1f} s): " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
        results.append(res)
        walls.append(wall)
    out = {
        "seeds": seeds,
        "run_wall_s": walls,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "end_to_end": {},
    }
    for name, bound in bounds.items():
        s = summarize([r["metrics"][name]["value"] for r in results])
        out["end_to_end"][name] = s
        print(f"{workload} {name}: median {s['median']:.5g} spread {s['spread']:.4f} (bound {bound})")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(ops.HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"environment": run.environment(None, None), "run_seconds": seconds, "bounds": bounds, "workloads": {}}
    del doc["environment"]["workload"], doc["environment"]["seed"]
    for workload in ops.WORKLOADS:
        sets = [run_set(workload, first, seconds, bounds) for first in FIRST_SEEDS]
        entry = {"sets": sets, "median_change": {}}
        for name in bounds:
            first, second = (s["end_to_end"][name]["median"] for s in sets)
            entry["median_change"][name] = (second - first) / first
            print(f"{workload} {name}: median change {entry['median_change'][name]:+.4f}")
        traced, _ = bench(workload, FIRST_SEEDS[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        doc["workloads"][workload] = entry
        write(args.out, doc)
    doc["layers"] = layer_timings(reps=3)
    write(args.out, doc)
    print(f"wrote {args.out}")
    return 0


def write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
