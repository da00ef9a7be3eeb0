"""Command-line front end: tables, verification suites, partition listings,
and sequence export with an optional on-disk coefficient cache.

Output formats, checked before any series, suite or cache work:

    table      text, csv, json
    verify     text, json, csv
    partition  text, json
    export     text, json, csv, bfile  (text is the b-file)

A verify report's JSON keys and CSV columns are VerificationReport's
fields, in their order, so a field added there needs no edit here. JSON
writes an int of 53 bits or more as a decimal string; CSV writes None as
an empty cell and a bool as true or false.

No table or listing is held whole. A text or CSV table is written in
blocks of TABLE_BLOCK_ROWS rows, each text column as wide as its header,
largest or smallest value; a JSON table is written a column at a time.
A partition listing renders the stream of entries that
partitions._partition_entries makes, each suffix's parts and hook rows
once, not once per partition, so an entry is one concatenation; in either
format it is written in blocks of LISTING_BLOCK_ENTRIES partitions while
they are enumerated. Each costs a few writes, not one per line, and its
bytes are those of the whole document: print per line, or json.dumps.

Exit codes: 0 success / all checks pass, 1 verification failure (a failed
check; an internal identity failing on computed values shows as failed
checks), 2 usage error, 3 I/O error.

Parsing: COMMON_OPTIONS and COMMANDS declare every option once. main
first reads argv with _parse_exact, which accepts only a command followed
by full-length flags with plain values and yields the namespace argparse
would. Anything else (help, --version, an abbreviation, --flag=value, a
negative number, every error) goes to the argparse parser that
_build_parser makes from the same table, so argparse alone prints help
and usage errors. argparse, and the gettext it loads, cost 10-15 ms of a
fresh interpreter, which a well-formed command no longer pays. json stays
a top-level import: most commands use it, `--version` then imports it too
(perfbench warms its bytecode cache with `--version`), and importing it
lazily saved nothing measurable on a cached export.

Program entry: `python -m stanleypf`, the `stanleypf` script and
`python -m stanleypf.cli` all call run, which calls gc.freeze() and then
main. Each run is a fresh interpreter, and at exit the cyclic collector
makes full passes over every tracked object still alive, most of them made
at start-up by site, json and the package's import. gc.freeze() moves all
of them into a permanent generation that no collection walks, so exit
skips them; what main allocates is collected as before, and the forked
child of `verify --suite all` inherits the frozen heap. main itself does
not freeze: tests, the acceptance gate and perfbench's tracer call it
in-process, and their collector stays as it was.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from itertools import chain, islice
from types import SimpleNamespace

from . import __version__, stanley, verify
from .partitions import _partition_entries
from .series_core import MAX_DILATION_ORDER

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

CACHE_ENV_VAR = "STANLEYPF_CACHE"
PARTITION_LISTING_CAP = 30  # p(30) = 5604 partitions is the useful terminal ceiling
LISTING_BLOCK_ENTRIES = 256  # partitions per write of a partition listing
TABLE_BLOCK_ROWS = 256  # rows per write of a text or CSV table
BRUTE_FORCE_CAP = 70  # table --oracle enumerates every partition of n <= --max
ENUM_BOUND_CAP = 45  # verify's combinatorial pass visits every partition of n <= --enum-bound
ORACLE_BOUND_CAP = 1000  # verify's series suites run the partition DP to --oracle-bound
ORDER_CAP = MAX_DILATION_ORDER  # every command; the proof steps dilate V(q) to V(q^4) up to the series cap
JSON_SAFE_MAGNITUDE = 2**53

STATS = ("p", "t", "u", "f")
FORMATS = ("text", "json", "csv", "bfile")

# command -> (what its usage error calls the output, the formats it renders)
COMMAND_FORMATS = {
    "table": ("table output supports", ("text", "csv", "json")),
    "verify": ("verification reports support", ("text", "json", "csv")),
    "partition": ("partition listings support", ("text", "json")),
    "export": ("exports support", FORMATS),
}


def _json_coeff(value: int | None):
    # decimal strings beyond 53-bit magnitude keep JSON interchange lossless
    return value if value is None or abs(value) < JSON_SAFE_MAGNITUDE else str(value)


def _csv_lines(header, rows):
    """Comma-separated lines, header first."""
    for row in chain([header], rows):
        yield ",".join(map(str, row)) + "\n"


# ---------------------------------------------------------------------------
# coefficient cache

def _cache_file(cache_dir: str, stat: str, order: int) -> str:
    return os.path.join(cache_dir, f"{stat}-o{order}-v{__version__}.json")


def cache_store(cache_dir: str, stat: str, order: int, values) -> str:
    """Write one coefficient column, atomically, keyed by (stat, order, version).

    Each writer renames its own temporary file into place, so runs sharing a
    cache directory need no lock: entries are deterministic and the last
    writer wins. A failed write or rename removes the temporary file and
    raises the OSError.
    """
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_file(cache_dir, stat, order)
    payload = {
        "version": __version__,
        "stat": stat,
        "order": order,
        "values": [str(v) for v in values],
    }
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except OSError:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise
    return path


def _is_decimal(value) -> bool:
    # a str as str(int) writes one: ASCII digits after an optional "-";
    # int() alone would also read "3_0", " 2", "+3" and non-ASCII digits
    return type(value) is str and value.isascii() and value.removeprefix("-").isdigit()


def cache_load(cache_dir: str, stat: str, order: int) -> list[int] | None:
    """Read one cached column; None on miss. Stale versions never match the
    key, and a corrupt file warns and recomputes rather than answer wrongly."""
    path = _cache_file(cache_dir, stat, order)
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("payload is not a JSON object")
        if payload.get("version") != __version__ or payload.get("stat") != stat:
            return None
        values = payload["values"]
        # cache_store writes decimal strings; int() would truncate a float
        if not isinstance(values, list) or not all(map(_is_decimal, values)):
            raise ValueError("coefficients are not a list of decimal strings")
        values = [int(v) for v in values]
        if len(values) != order + 1:
            raise ValueError("wrong number of coefficients")
        return values
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"warning: ignoring corrupt cache file {path}: {exc}", file=sys.stderr)
        return None


_SERIES_FOR_STAT = {
    "p": stanley.p_series,
    "t": stanley.t_series_andrews,
    "u": stanley.u_series,
    "f": stanley.f_series,
}


def _stat_values(args, stat: str) -> list[int]:
    """One generating-function column at args.order, cache-aware."""
    if args.cache is None:
        return list(_SERIES_FOR_STAT[stat](args.order).coeffs)
    values = cache_load(args.cache, stat, args.order)
    if values is None:
        values = list(_SERIES_FOR_STAT[stat](args.order).coeffs)
        try:
            cache_store(args.cache, stat, args.order, values)
        except OSError as exc:  # the values are right; only the cache is lost
            print(f"warning: cannot write to cache {args.cache}: {exc}", file=sys.stderr)
    return values


# ---------------------------------------------------------------------------
# commands: each takes the parsed arguments, already checked by main

def _write_blocks(out, pieces, size: int) -> None:
    """Write an iterator of strings, size of them joined per write."""
    for block in iter(lambda: "".join(islice(pieces, size)), ""):
        out.write(block)


def _write_json_columns(out, columns) -> None:
    # json.dumps(columns), one column per write
    out.write("{")
    for i, (stat, values) in enumerate(columns.items()):
        out.write(f'{", " if i else ""}{json.dumps(stat)}: {json.dumps([_json_coeff(v) for v in values])}')
    out.write("}")


def cmd_table(args, out) -> int:
    stats, max_n, oracle = args.stats, args.max_n, args.oracle
    columns = {s: _stat_values(args, s)[: max_n + 1] for s in stats}
    oracle_columns = {}
    if oracle:
        enum = stanley.table_from_enumeration(max_n)
        oracle_columns = {s: list(getattr(enum, s)) for s in stats}
    mismatch = any(columns[s] != oracle_columns[s] for s in oracle_columns)
    # indexed by stats, not by the dicts, so a repeated statistic keeps its columns
    cells = [columns[s] for s in stats] + ([oracle_columns[s] for s in stats] if oracle else [])

    if args.output_format == "json":  # the bytes of json.dumps(doc), the dicts keyed once per statistic
        out.write(f'{{"max_n": {max_n}, "columns": ')
        _write_json_columns(out, columns)
        if oracle:
            out.write(', "oracle": ')
            _write_json_columns(out, oracle_columns)
            out.write(f', "match": {json.dumps(not mismatch)}')
        out.write("}\n")
    elif args.output_format == "csv":
        header = ["n", *stats, *(f"{s}_enum" for s in stats if oracle)]
        _write_blocks(out, _csv_lines(header, zip(range(max_n + 1), *cells)), TABLE_BLOCK_ROWS)
    else:  # text: right-aligned columns, and a match marker per oracle row
        header = ["n", *stats]
        if oracle:
            k = len(stats)
            header += [f"{s}.enum" for s in stats] + ["match"]
            cells.append(["ok" if row[:k] == row[k:] else "MISMATCH" for row in zip(*cells)])
        # an int's printed width grows with its magnitude, so a column's widest
        # value is its largest or its smallest; the match column holds at most
        # two strings, so its min and max are both of them
        widths = [max(len(head), len(str(min(col))), len(str(max(col))))
                  for head, col in zip(header, [range(max_n + 1), *cells])]
        line = "  ".join(f"%{w}s" for w in widths) + "\n"
        out.write(line % tuple(header))
        _write_blocks(out, map(line.__mod__, zip(range(max_n + 1), *cells)), TABLE_BLOCK_ROWS)
    return EXIT_VERIFY_FAIL if mismatch else EXIT_OK


def cmd_verify(args, out) -> int:
    reports = verify.run_suite(
        args.suite,
        order=args.order,
        enum_bound=args.enum_bound,
        oracle_bound=args.oracle_bound,
    )
    passed = all(r.passed for r in reports)
    if args.output_format == "json":
        entries = [{k: _json_coeff(v) if isinstance(v, int) else v for k, v in r.to_dict().items()} for r in reports]
        print(json.dumps({"suite": args.suite, "passed": passed, "reports": entries}), file=out)
    elif args.output_format == "csv":
        rows = (["" if v is None else str(v).lower() if isinstance(v, bool) else v for v in r] for r in reports)
        out.writelines(_csv_lines(verify.VerificationReport._fields, rows))
    else:
        for r in reports:
            print(r.to_line(), file=out)
        n_fail = sum(1 for r in reports if not r.passed)
        print(f"{len(reports)} checks: {len(reports) - n_fail} passed, {n_fail} failed", file=out)
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def cmd_partition(args, out) -> int:
    n, show_hooks, as_json = args.n, args.show_hooks, args.output_format == "json"
    # parts and hook lengths of a partition of n lie in 1..n
    digits = [str(k) for k in range(n + 1)].__getitem__

    def text_rows(row, below):  # one line per row
        return f"    {' '.join(map(digits, row))}\n{below}"

    def json_rows(row, below):  # json.dumps of the grid, without its outer brackets
        row = f"[{', '.join(map(digits, row))}]"
        return f"{row}, {below}" if below else row

    entries = _partition_entries(n, args.filter, (json_rows if as_json else text_rows) if show_hooks else None)
    if as_json:  # json.dumps of the list of entries, an entry at a time
        def lines():
            sep = "["
            for parts, odd, odd_conj, even_hooks, kind, rows in entries:
                yield (f'{sep}{{"parts": [{parts}], "odd_parts": {odd}, "odd_parts_conjugate": {odd_conj}, '
                       f'"even_hooks": {even_hooks}, "type": "{kind}"'
                       + (f', "hooks": [{rows}]}}' if show_hooks else "}"))
                sep = ", "
            yield "[]\n" if sep == "[" else "]\n"

        _write_blocks(out, lines(), LISTING_BLOCK_ENTRIES)
    else:
        _write_blocks(out, (
            f"({parts})  O={odd} O'={odd_conj} He={even_hooks} type={kind}\n{rows}"
            for parts, odd, odd_conj, even_hooks, kind, rows in entries
        ), LISTING_BLOCK_ENTRIES)
    return EXIT_OK


def render_bfile(values) -> str:
    return "".join(f"{n} {v}\n" for n, v in enumerate(values))


def render_csv(stat: str, values) -> str:
    return f"n,{stat}\n" + "".join(f"{n},{v}\n" for n, v in enumerate(values))


def render_json(stat: str, values) -> str:
    return json.dumps({"stat": stat, "offset": 0, "values": [_json_coeff(v) for v in values]}) + "\n"


def _indexed_values(lines, sep: str, kind: str) -> list[int]:
    # "n<sep>value" rows whose indices run 0, 1, 2, ...
    values = []
    for line in lines:
        n, v = line.split(sep)
        if int(n) != len(values):
            raise ValueError(f"{kind} indices must start at 0 and be contiguous")
        values.append(int(v))
    return values


def parse_bfile(text: str) -> list[int]:
    return _indexed_values((ln for ln in text.splitlines() if ln.strip()), None, "b-file")


def parse_csv(text: str) -> list[int]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",") if lines else []
    if len(header) != 2 or header[0] != "n" or header[1] not in STATS:
        raise ValueError(f"CSV export must start with an n,<stat> header, <stat> one of {', '.join(STATS)}")
    return _indexed_values(lines[1:], ",", "CSV")


def _json_int(value) -> int:
    # the inverse of _json_coeff: an int, or an int's decimal string
    if type(value) is int:
        return value
    if _is_decimal(value):
        return int(value)
    raise ValueError(f"JSON export values must be integers or decimal strings, got {value!r}")


def parse_json_export(text: str) -> list[int]:
    doc = json.loads(text)
    if type(doc) is not dict or type(doc.get("values")) is not list:
        raise ValueError("a JSON export is an object with a list of values")
    if type(doc.get("offset")) is not int or doc["offset"] != 0:
        raise ValueError(f"JSON export offset must be 0, got {doc.get('offset')!r}")
    return [_json_int(v) for v in doc["values"]]


def cmd_export(args, out) -> int:
    stat, out_path = args.stat, args.out
    values = _stat_values(args, stat)[: args.max_n + 1]
    if args.output_format == "csv":
        rendered = render_csv(stat, values)
    elif args.output_format == "json":
        rendered = render_json(stat, values)
    else:  # bfile, and text, which a b-file already is
        rendered = render_bfile(values)
    if out_path is None:
        out.write(rendered)
    else:
        try:
            with open(out_path, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            raise OSError(f"cannot write {out_path!r}: {exc.strerror}") from exc
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

# Each option, declared once for both parsers: (flag, dest, type, default,
# choices, required, help). A type of None keeps the string; bool makes a
# switch, False unless given.
COMMON_OPTIONS = (
    ("--order", "order", int, verify.DEFAULT_ORDER, None, False,
     f"series truncation order (default %(default)s, at most {ORDER_CAP}); at the "
     "cap, a table of p,t,u,f takes about 0.7 s and 19 MB (21 MB as JSON), "
     "verify --suite series about 1.5 s and --suite all about 4.5 s"),
    ("--enum-bound", "enum_bound", int, verify.DEFAULT_ENUM_BOUND, None, False,
     "exhaustive combinatorial bound (default %(default)s); the pass walks "
     "every partition of n <= the bound, about 0.03 s at 25 and 0.7 s and "
     f"45 MB at the cap of {ENUM_BOUND_CAP}"),
    ("--oracle-bound", "oracle_bound", int, verify.DEFAULT_ORACLE_BOUND, None, False,
     "bound of the partition-DP cross-check in verify and of "
     "the brute force in table --oracle (default %(default)s); the DP takes "
     f"about 0.1 s at 300 and 1 s at verify's cap of {ORACLE_BOUND_CAP}"),
    ("--format", "output_format", None, "text", FORMATS, False, "output format (default %(default)s)"),
    ("--cache", "cache", None, None, None, False, f"coefficient cache directory (or ${CACHE_ENV_VAR})"),
)

# command -> (its line in the top-level help, its options after the common ones)
COMMANDS = {
    "table": ("print columns of p, t, u, f", (
        ("--stats", "stats", None, "p,t,u,f", None, False, "comma-separated subset of p,t,u,f (default all)"),
        ("--max", "max_n", int, None, None, True, "largest n to print"),
        ("--oracle", "oracle", bool, False, None, False,
         "add brute-force enumeration columns and per-row match markers"),
    )),
    "verify": ("run identity verification suites", (
        ("--suite", "suite", None, "all", verify.SUITE_NAMES, False, None),
    )),
    "partition": ("list partitions of n with statistics", (
        ("--n", "n", int, None, None, True,
         f"the number to partition, at most {PARTITION_LISTING_CAP}; at the cap the "
         "listing holds 5,604 partitions and takes about 0.1 s and 15 MB with --show-hooks"),
        ("--filter", "filter", None, "all", ("all", "t", "u"), False, None),
        ("--show-hooks", "show_hooks", bool, False, None, False, "print the hook-length grid per partition"),
    )),
    "export": ("export one sequence", (
        ("--stat", "stat", None, None, STATS, True, None),
        ("--max", "max_n", int, None, None, True, None),
        ("--out", "out", None, None, None, False, "output file (default stdout)"),
    )),
}


def _build_parser():
    """The argparse parser of the option table: the source of every help
    text, of --version and of every parse error."""
    import argparse  # only main's fallback needs it; see the module docstring

    parser = argparse.ArgumentParser(
        prog="stanleypf",
        description="Exact computation and verification of Stanley's partition "
                    "function t(n), its complement u(n), and the signed count f(n).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, (summary, options) in COMMANDS.items():
        p_command = sub.add_parser(command, help=summary)
        for flag, dest, kind, default, choices, required, help_text in COMMON_OPTIONS + options:
            if kind is bool:
                p_command.add_argument(flag, dest=dest, action="store_true", help=help_text)
            else:
                p_command.add_argument(flag, dest=dest, type=kind, default=default, choices=choices,
                                       required=required, help=help_text)
    return parser


def _parse_exact(argv) -> SimpleNamespace | None:
    """The namespace _build_parser would make of argv, when every token is exact.

    That is a command name followed by ``--flag value`` and ``--switch``
    tokens, each flag spelled in full, each value converting with its type,
    passing its choices and not starting with "-", and every required flag
    given. Anything else is None and left to argparse: help, --version,
    abbreviations, ``--flag=value``, negative numbers and every error.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    command, tokens = argv[0], iter(argv[1:])
    rows = {row[0]: row for row in COMMON_OPTIONS + COMMANDS[command][1]}
    values = {dest: default for _, dest, _, default, *_ in rows.values()}
    given = set()
    for flag in tokens:
        if flag not in rows:
            return None
        _, dest, kind, _, choices, _, _ = rows[flag]
        given.add(flag)
        if kind is bool:
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value is refused like an option
        if value.startswith("-"):
            return None
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if any(row[5] and flag not in given for flag, row in rows.items()):
        return None
    return SimpleNamespace(command=command, **values)


def main(argv: list[str] | None = None) -> int:
    args = _parse_exact(sys.argv[1:] if argv is None else argv)
    if args is None:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse has already printed the message
            return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
    command = args.command
    try:
        # every usage check, in this order, comes before any series, suite or cache work
        if args.order < 2:
            raise ValueError(f"--order must be at least 2, got {args.order}")
        if args.order > ORDER_CAP:
            raise ValueError(f"--order is capped at {ORDER_CAP}, got {args.order}")
        if args.enum_bound < 0 or args.oracle_bound < 0:
            raise ValueError("bounds must be nonnegative")
        if command == "verify" and args.suite in ("all", "combinatorial") and args.enum_bound > ENUM_BOUND_CAP:
            raise ValueError(f"--enum-bound is capped at {ENUM_BOUND_CAP}, got {args.enum_bound}")
        if command == "verify" and args.suite in ("all", "series") and args.oracle_bound > ORACLE_BOUND_CAP:
            raise ValueError(f"--oracle-bound is capped at {ORACLE_BOUND_CAP}, got {args.oracle_bound}")
        if command == "table":
            args.stats = [s.strip() for s in args.stats.split(",") if s.strip()]
            for s in args.stats:
                if s not in STATS:
                    raise ValueError(f"unknown statistic {s!r}; choose from p,t,u,f")
            if not args.stats:
                raise ValueError("no statistics requested")
        if command in ("table", "export"):
            if args.max_n < 0:
                raise ValueError("--max must be nonnegative")
            if args.max_n > args.order:
                raise ValueError(
                    f"--max {args.max_n} exceeds the series order {args.order}; raise --order"
                )
        if command == "table" and args.oracle and args.max_n > args.oracle_bound:
            raise ValueError(
                f"--oracle enumeration is capped at --oracle-bound {args.oracle_bound}; "
                f"raise it to table {args.max_n} by brute force"
            )
        if command == "table" and args.oracle and args.max_n > BRUTE_FORCE_CAP:
            raise ValueError(f"--oracle enumeration is capped at --max {BRUTE_FORCE_CAP}")
        if command == "partition":
            if args.n < 0:
                raise ValueError("--n must be nonnegative")
            if args.n > PARTITION_LISTING_CAP:
                raise ValueError(f"partition listings are capped at n <= {PARTITION_LISTING_CAP}")
        what, formats = COMMAND_FORMATS[command]
        if args.output_format not in formats:
            *rest, last = formats
            raise ValueError(f"{what} {', '.join(rest)}{',' if len(rest) > 1 else ''} or {last}")

        args.cache = args.cache or os.environ.get(CACHE_ENV_VAR)  # --cache "" falls back too
        # looked up by name now, so a cmd_* rebound after import is the one called
        return globals()[f"cmd_{command}"](args, sys.stdout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> int:
    """The program entry: freeze the start-up heap, then run main on
    sys.argv (see the module docstring)."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
