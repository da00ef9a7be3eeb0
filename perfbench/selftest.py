"""Show that the benchmark's correctness gate can fail.

    python3 perfbench/selftest.py

Run from the repository root. It runs one real series-order2000 cycle with
one op's recorded digest replaced by a wrong one and requires exactly that
op to be counted as failed. It then feeds each oracle a real output with
one defect planted, with the digest made to match so only the oracle
stands between the defect and a pass, and requires every oracle to trip.
Exit code 0 means the gate tripped everywhere it should.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import ops
import run


def expect(label: str, ok: bool, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        failures.append(label)


def planted(op: ops.Op, out: bytes) -> str | None:
    """The gate's verdict on a tampered output whose digest is re-recorded."""
    golden = dict(run.GOLDEN)
    golden[op.key] = dict(golden[op.key], sha256=ops.digest(out))
    return ops.op_problem(op, 0, out, golden)


def main() -> int:
    failures: list[str] = []
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT)
    try:
        with run.Launcher() as launcher:
            setup = run.Setup(launcher, "series-order2000", os.path.join(workdir, "setup"), timeout=60.0)

            # 1. one wrong digest inside a real cycle fails exactly that op
            victim = ops.export_op("t", ops.SERIES_ORDER, "bfile")
            saved = run.GOLDEN[victim.key]
            run.GOLDEN[victim.key] = dict(saved, sha256="0" * 64)
            try:
                loop = run.Loop("series-order2000", 1, setup)
                loop.run_cycle()
                loop.judge()
            finally:
                run.GOLDEN[victim.key] = saved
            expect(
                f"wrong digest counted: {loop.failed} of {loop.attempted} failed",
                loop.failed == 1 and loop.attempted == 6
                and loop.problems == [f"{victim.key}: stdout differs from the recorded digest"],
                failures,
            )
            loop.failed, loop.problems = 0, []
            loop.judge()
            expect("same outputs pass with the recorded digests", loop.failed == 0, failures)

            outputs = {op.key: res.out for _cycle, op, res in loop.records}
            p_op = ops.export_op("p", ops.SERIES_ORDER, "bfile")
            p_text = outputs[p_op.key].decode()

            # 2. the pentagonal oracle catches a wrong p coefficient
            bad = p_text.replace("\n5 7\n", "\n5 8\n", 1)
            expect("p oracle trips on p(5) = 8",
                   "pentagonal" in str(planted(p_op, bad.encode())), failures)

            # 3. the relations catch a t column that is off by one
            cols = {s: ops.parse_column("bfile", outputs[ops.export_op(s, ops.SERIES_ORDER, "bfile").key].decode())
                    for s in ops.STATS}
            cols["t"][100] += 1
            expect("relation oracle trips on t(100) + 1", ops.relation_problem(cols) == "p = t + u fails", failures)

            # 4. verify output: a FAIL line, and a silently dropped check
            v_op = ops.verify_op("proof-steps", 1000)
            v_lines = outputs[v_op.key].decode().splitlines()
            failed_line = [v_lines[0].replace("PASS", "FAIL", 1)] + v_lines[1:]
            expect("verify oracle trips on a FAIL line",
                   "not PASS" in str(planted(v_op, ("\n".join(failed_line) + "\n").encode())), failures)
            n = len(v_lines) - 2
            dropped = v_lines[1:-1] + [f"{n} checks: {n} passed, 0 failed"]
            expect("verify oracle trips on a missing seed check",
                   "missing" in str(planted(v_op, ("\n".join(dropped) + "\n").encode())), failures)

            # 5. partition listing: a flipped type and a missing partition
            part = ops.partition_op(20)
            res = setup.run(run.cli_argv(part, None), setup.env)
            text = res.out.decode()
            expect("partition listing passes as produced", ops.op_problem(part, res.rc, res.out, run.GOLDEN) is None,
                   failures)
            flipped = text.replace("type=t", "type=u", 1)
            expect("partition oracle trips on a flipped type",
                   "inconsistent" in str(planted(part, flipped.encode())), failures)
            head, _, rest = text.partition("\n")  # drop the first partition, (20), and its hook row
            truncated = rest.split("\n", 1)[1]
            expect("partition oracle trips on a missing partition",
                   "expected 627" in str(planted(part, truncated.encode())), failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("gate self-test " + ("passed" if not failures else f"FAILED: {failures}"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
