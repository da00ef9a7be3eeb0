"""Small spawner that runs the benchmark's children and reports their rusage.

A child's ru_maxrss also counts the resident size of the process it was
forked from, so children forked straight from the benchmark (over 20 MB
resident, more while it holds outputs) would all report at least that.
This process is started with ``-I -S`` and imports almost nothing, so it
stays near 10 MB, below any stanleypf invocation.

Protocol: one JSON request per line on stdin,
    {"argv": [...], "env": {...}, "stdout": PATH, "stderr": PATH, "timeout": S}
and one JSON reply per line on stdout,
    {"rc": int, "wall_s": float, "cpu_s": float, "rss_kb": int}.
The child runs in this process's working directory with stdin from
/dev/null; wall time is spawn to exit, and a child past its timeout is
killed, reaped and reported with rc -9. End of input ends the launcher.
"""

import json
import os
import select
import sys
import time

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(req):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"], WRITE, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], WRITE, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        exited = select.select([pidfd], [], [], req["timeout"])[0]
        if not exited:
            os.kill(pid, 9)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(pidfd)
    return {
        "rc": os.waitstatus_to_exitcode(status) if exited else -9,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
