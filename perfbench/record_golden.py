"""Record golden.json: the sha256 digest of every benchmark op's stdout,
and the check names of every verify op, at the current commit.

    python3 perfbench/record_golden.py

Run from the repository root, at the commit whose output is the reference
(the digests in the repository were recorded at the seed commit). Every
op must exit 0 and pass the oracles in ops.py before anything is written.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import ops
import run


def main() -> int:
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="golden-", dir=run.WORK_ROOT)
    golden = {}
    try:
        with run.Launcher() as launcher:
            setup = run.Setup(launcher, "verify-oracle50", os.path.join(workdir, "setup"), timeout=120.0)
            cache = os.path.join(workdir, "cache")
            for op in ops.all_ops():
                target = tempfile.mkdtemp(dir=workdir) if op.fresh_cache else cache
                res = setup.run(run.cli_argv(op, target), setup.env)
                entry = {"sha256": ops.digest(res.out)}
                if op.kind == "verify":
                    entry["checks"] = [ln[5:].split(":", 1)[0] for ln in res.out.decode().splitlines()[:-1]]
                golden[op.key] = entry
                problem = ops.op_problem(op, res.rc, res.out, golden)
                if problem:
                    print(f"{op.key}: {problem}", file=sys.stderr)
                    return 1
                print(f"{res.wall_s:8.3f} s  {op.key}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(ops.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} digests to {ops.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
