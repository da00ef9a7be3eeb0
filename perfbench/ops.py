"""Workload definitions and the correctness gate of the stanleypf benchmark.

An op is one ``python -m stanleypf ...`` invocation. Its key is the argv
with the cache directory replaced by ``{cache}``; the key indexes the
sha256 digest of the op's stdout recorded at the seed commit in
``golden.json``. Every flag the CLI accepts for a command is pinned, so a
later change of CLI defaults cannot change a workload.

The gate judges every op three ways, independently of the package:
exit code 0, byte-identical stdout (digest), and an oracle on the parsed
output (Euler's pentagonal recurrence for p, p = t + u and f = t - u on
exported columns, every verify line PASS with every seed check present,
partition listings that are complete and satisfy the hook-parity theorem).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from functools import lru_cache

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

CACHE = "{cache}"
STATS = ("p", "t", "u", "f")
FORMATS = ("text", "csv", "json", "bfile")
TABLE_FORMATS = ("text", "csv", "json")
PARTITION_NS = tuple(range(20, 31))

SERIES_ORDER = 2000
WRITE_ORDER = 300

# series-order2000 runs by hand but is not listed in BENCHMARK.json: on a
# shared 2-core host its run-to-run spread exceeded the 0.25 bound
WORKLOADS = ("verify-oracle50", "series-order2000", "cli-cached-mix")


@dataclass(frozen=True)
class Op:
    kind: str  # verify | export | table | partition
    args: tuple[str, ...]  # CLI arguments after ``-m stanleypf``
    fresh_cache: bool = False  # a write: gets its own empty cache directory

    @property
    def key(self) -> str:
        return " ".join(self.args)

    def argv(self, cache_dir: str | None) -> list[str]:
        return [cache_dir if a == CACHE else a for a in self.args]

    def arg(self, flag: str) -> str:
        return self.args[self.args.index(flag) + 1]


def _common(order: int, fmt: str, cache: bool = False, oracle_bound: int = 60) -> tuple[str, ...]:
    flags = ("--order", str(order), "--enum-bound", "25", "--oracle-bound", str(oracle_bound), "--format", fmt)
    return flags + (("--cache", CACHE) if cache else ())


def verify_op(suite: str, order: int, oracle_bound: int = 60) -> Op:
    return Op("verify", ("verify", "--suite", suite) + _common(order, "text", oracle_bound=oracle_bound))


def export_op(stat: str, order: int, fmt: str, cache: bool = False, fresh: bool = False) -> Op:
    args = ("export", "--stat", stat, "--max", str(order)) + _common(order, fmt, cache)
    return Op("export", args, fresh_cache=fresh)


def table_op(fmt: str, order: int = SERIES_ORDER) -> Op:
    args = ("table", "--stats", "p,t,u,f", "--max", str(order)) + _common(order, fmt, cache=True)
    return Op("table", args)


def partition_op(n: int) -> Op:
    args = ("partition", "--n", str(n), "--filter", "all", "--show-hooks") + _common(200, "text")
    return Op("partition", args)


# the north-star suite with the brute-force oracle to n = 50 rather than the
# CLI default 60: a 2.6 s op instead of a 10-16 s one, so a run holds enough
# ops for a steady median on a host whose speed drifts over seconds
VERIFY_ALL = verify_op("all", 200, oracle_bound=50)
# set-up of cli-cached-mix: computes all four columns at order 2000 into the
# shared cache; its output is also the reference the cached reads must match
CACHE_FILL = table_op("csv")


def _balanced(rng: random.Random, values):
    """Endless stream that yields every value once per block, block order seeded."""
    while True:
        block = list(values)
        rng.shuffle(block)
        yield from block


class CycleSource:
    """Seeded cycles of ops for one workload.

    The seed only permutes the order of ops within a cycle and, in
    cli-cached-mix, assigns the n/stat/format choices. Choices are drawn in
    balanced blocks so every seed runs the same mix over a run.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
        self.workload = workload
        self.rng = random.Random(seed)
        self._stats = _balanced(self.rng, STATS)
        self._write_stats = _balanced(self.rng, STATS)
        self._table_formats = _balanced(self.rng, TABLE_FORMATS)
        self._ns = _balanced(self.rng, PARTITION_NS)

    def next_cycle(self) -> list[Op]:
        if self.workload == "verify-oracle50":
            return [VERIFY_ALL]
        if self.workload == "series-order2000":
            cycle = [export_op(s, SERIES_ORDER, "bfile") for s in STATS]
            cycle += [verify_op("congruences", SERIES_ORDER), verify_op("proof-steps", 1000)]
        else:
            cycle = [table_op(next(self._table_formats))]
            cycle += [export_op(next(self._stats), SERIES_ORDER, f, cache=True) for f in FORMATS]
            cycle += [partition_op(next(self._ns)) for _ in range(2)]
            cycle.append(export_op(next(self._write_stats), WRITE_ORDER, "bfile", cache=True, fresh=True))
        self.rng.shuffle(cycle)
        return cycle


def all_ops() -> list[Op]:
    """Every distinct op any workload or set-up can run, for golden recording."""
    ops = [VERIFY_ALL, verify_op("congruences", SERIES_ORDER), verify_op("proof-steps", 1000)]
    ops += [export_op(s, SERIES_ORDER, "bfile") for s in STATS]
    ops += [table_op(f) for f in TABLE_FORMATS]
    ops += [export_op(s, SERIES_ORDER, f, cache=True) for s in STATS for f in FORMATS]
    ops += [partition_op(n) for n in PARTITION_NS]
    ops += [export_op(s, WRITE_ORDER, "bfile", cache=True, fresh=True) for s in STATS]
    return ops


# ---------------------------------------------------------------------------
# oracles, written independently of the package

@lru_cache(maxsize=None)
def pentagonal_p(order: int = SERIES_ORDER) -> tuple[int, ...]:
    """p(0..order) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * order
    for n in range(1, order + 1):
        acc, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            acc += sign * p[n - g1]
            g2 = g1 + k
            if g2 <= n:
                acc += sign * p[n - g2]
            k += 1
        p[n] = acc
    return tuple(p)


def parse_column(fmt: str, text: str) -> list[int]:
    if fmt in ("text", "bfile"):
        values = []
        for line in text.splitlines():
            n, v = line.split()
            if int(n) != len(values):
                raise ValueError(f"b-file index {n} out of sequence")
            values.append(int(v))
        return values
    if fmt == "csv":
        return [int(line.split(",")[1]) for line in text.splitlines()[1:]]
    return [int(v) for v in json.loads(text)["values"]]


def parse_table(fmt: str, text: str) -> dict[str, list[int]]:
    if fmt == "json":
        return {s: [int(v) for v in col] for s, col in json.loads(text)["columns"].items()}
    sep = "," if fmt == "csv" else None
    rows = [line.split(sep) for line in text.splitlines()]
    header = rows[0]
    return {s: [int(r[i]) for r in rows[1:]] for i, s in enumerate(header) if s in STATS}


def column_problem(stat: str, values: list[int], ref: dict[str, list[int]] | None) -> str | None:
    if stat == "p" and tuple(values) != pentagonal_p()[: len(values)]:
        return "p disagrees with the pentagonal recurrence"
    if ref is not None and values != ref[stat][: len(values)]:
        return f"{stat} disagrees with the set-up reference column"
    return None


def relation_problem(cols: dict[str, list[int]]) -> str | None:
    p, t, u, f = (cols[s] for s in STATS)
    if not len(p) == len(t) == len(u) == len(f):
        return "columns differ in length"
    if tuple(p) != pentagonal_p()[: len(p)]:
        return "p disagrees with the pentagonal recurrence"
    if any(pn != tn + un for pn, tn, un in zip(p, t, u)):
        return "p = t + u fails"
    if any(fn != tn - un for fn, tn, un in zip(f, t, u)):
        return "f = t - u fails"
    return None


def verify_problem(text: str, seed_checks: list[str]) -> str | None:
    lines = text.splitlines()
    if not lines:
        return "empty verify output"
    body, summary = lines[:-1], lines[-1]
    if any(not line.startswith("PASS ") for line in body):
        return "a verify line is not PASS"
    if summary != f"{len(body)} checks: {len(body)} passed, 0 failed":
        return f"unexpected verify summary {summary!r}"
    names = {line[5:].split(":", 1)[0] for line in body}
    missing = [c for c in seed_checks if c not in names]
    if missing:
        return f"seed checks missing: {', '.join(missing[:3])}"
    return None


def partition_problem(n: int, text: str) -> str | None:
    """Listing is complete (p(n) distinct partitions of n) and every entry
    obeys the hook-parity theorem: t-type exactly when the printed grid has
    evenly many even hooks, and He matches the grid."""
    lines = text.splitlines()
    seen = set()
    i = 0
    while i < len(lines):
        head = lines[i].split("  ")
        parts = tuple(int(x) for x in head[0].strip("()").split(", ") if x)
        fields = dict(f.split("=") for f in head[1].split())
        grid = [[int(h) for h in row.split()] for row in lines[i + 1 : i + 1 + len(parts)]]
        i += 1 + len(parts)
        if sum(parts) != n or parts in seen:
            return f"bad or repeated partition {parts}"
        seen.add(parts)
        if [len(row) for row in grid] != list(parts):
            return f"hook grid of {parts} has the wrong shape"
        even = sum(1 for row in grid for h in row if h % 2 == 0)
        if int(fields["He"]) != even or (fields["type"] == "t") != (even % 2 == 0):
            return f"hook statistics of {parts} are inconsistent"
    if len(seen) != pentagonal_p()[n]:
        return f"listed {len(seen)} partitions of {n}, expected {pentagonal_p()[n]}"
    return None


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden(path: str = GOLDEN_PATH) -> dict:
    """Recorded digests by op key; empty when none are recorded, so every op fails."""
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def op_problem(op: Op, rc: int, out: bytes, golden: dict, ref: dict | None = None) -> str | None:
    """Why this op's result is wrong, or None when it is correct."""
    if rc != 0:
        return f"exit code {rc}"
    entry = golden.get(op.key)
    if entry is None:
        return "no recorded digest for this op"
    if digest(out) != entry["sha256"]:
        return "stdout differs from the recorded digest"
    text = out.decode()
    try:
        if op.kind == "verify":
            return verify_problem(text, entry["checks"])
        if op.kind == "export":
            return column_problem(op.arg("--stat"), parse_column(op.arg("--format"), text), ref)
        if op.kind == "table":
            cols = parse_table(op.arg("--format"), text)
            if ref is not None and cols != ref:
                return "table disagrees with the set-up reference columns"
            return relation_problem(cols)
        return partition_problem(int(op.arg("--n")), text)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparseable output: {exc}"
