"""The command line is parsed exactly as the reference argparse parser does.

``reference_parser`` is ``cli._build_parser`` as it stood before the
options moved into a table, copied verbatim. Each argv below runs through
``main`` twice, once as it is and once with the reference parser as the
only parser, and must give the same exit code, stdout and stderr. The
outputs are compared with each other, not with recorded digests, so the
module holds on every Python whose argparse words its messages its own way.

On argv that hypothesis makes from commands, flags, abbreviations, ``=``
forms and odd values, ``cli._parse_exact`` must return None or the
reference's namespace, and the parser built from the option table must
parse or fail exactly as the reference does.
"""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from stanleypf import __version__, cli, verify
from stanleypf.cli import (
    CACHE_ENV_VAR,
    ENUM_BOUND_CAP,
    FORMATS,
    ORACLE_BOUND_CAP,
    ORDER_CAP,
    PARTITION_LISTING_CAP,
    STATS,
    cmd_export,
    cmd_partition,
    cmd_table,
    cmd_verify,
)


def reference_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--order", type=int, default=verify.DEFAULT_ORDER,
                        help=f"series truncation order (default 200, at most {ORDER_CAP}); at the "
                             "cap, a table of p,t,u,f takes about 0.7 s and 19 MB (21 MB as JSON), "
                             "verify --suite series about 1.5 s and --suite all about 4.5 s")
    common.add_argument("--enum-bound", type=int, default=verify.DEFAULT_ENUM_BOUND,
                        help="exhaustive combinatorial bound (default 25); the pass walks "
                             "every partition of n <= the bound, about 0.03 s at 25 and 0.7 s and "
                             f"45 MB at the cap of {ENUM_BOUND_CAP}")
    common.add_argument("--oracle-bound", type=int, default=verify.DEFAULT_ORACLE_BOUND,
                        help="bound of the partition-DP cross-check in verify and of "
                             "the brute force in table --oracle (default 60); the DP takes "
                             f"about 0.01 s at 300 and 0.1 s at verify's cap of {ORACLE_BOUND_CAP}")
    common.add_argument("--format", choices=FORMATS, default="text", dest="output_format",
                        help="output format (default text)")
    common.add_argument("--cache", default=None,
                        help=f"coefficient cache directory (or ${CACHE_ENV_VAR})")

    parser = argparse.ArgumentParser(
        prog="stanleypf",
        description="Exact computation and verification of Stanley's partition "
                    "function t(n), its complement u(n), and the signed count f(n).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    # handlers are read when the parser is built, so a rebound cmd_* is the one called

    p_table = sub.add_parser("table", parents=[common], help="print columns of p, t, u, f")
    p_table.add_argument("--stats", default="p,t,u,f",
                         help="comma-separated subset of p,t,u,f (default all)")
    p_table.add_argument("--max", type=int, required=True, dest="max_n", help="largest n to print")
    p_table.add_argument("--oracle", action="store_true",
                         help="add brute-force enumeration columns and per-row match markers")
    p_table.set_defaults(run=cmd_table)

    p_verify = sub.add_parser("verify", parents=[common], help="run identity verification suites")
    p_verify.add_argument("--suite", choices=verify.SUITE_NAMES, default="all")
    p_verify.set_defaults(run=cmd_verify)

    p_part = sub.add_parser("partition", parents=[common], help="list partitions of n with statistics")
    p_part.add_argument("--n", type=int, required=True,
                        help=f"the number to partition, at most {PARTITION_LISTING_CAP}; at the cap the "
                             "listing holds 5,604 partitions and takes about 0.1 s and 15 MB with --show-hooks")
    p_part.add_argument("--filter", choices=("all", "t", "u"), default="all")
    p_part.add_argument("--show-hooks", action="store_true", help="print the hook-length grid per partition")
    p_part.set_defaults(run=cmd_partition)

    p_export = sub.add_parser("export", parents=[common], help="export one sequence")
    p_export.add_argument("--stat", choices=STATS, required=True)
    p_export.add_argument("--max", type=int, required=True, dest="max_n")
    p_export.add_argument("--out", default=None, help="output file (default stdout)")
    p_export.set_defaults(run=cmd_export)

    return parser


def _run(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_reference(capsys, monkeypatch, argv):
    with monkeypatch.context() as m:
        m.setattr(cli, "_build_parser", reference_parser)
        m.setattr(cli, "_parse_exact", lambda argv: None)
        return _run(capsys, argv)


HELP = [
    ["--help"], ["-h"],
    ["table", "--help"], ["verify", "--help"], ["partition", "--help"], ["export", "-h"],
    # help wins over an error that follows it, and over a missing required flag
    ["export", "--stat", "t", "--help", "--bogus"],
]

ARGV = [
    # no command, and the version
    [], ["--version"], ["table", "--version"],
    # a missing required flag, or a flag's missing value
    ["table"], ["export", "--stat", "t"], ["export", "--max", "3"], ["partition"],
    ["table", "--max"], ["table", "--max", "3", "--stats"],
    # invalid choices and ints
    ["verify", "--suite", "nope"], ["export", "--stat", "x", "--max", "3"],
    ["table", "--max", "3", "--format", "xml"], ["partition", "--n", "3", "--filter", "T"],
    ["table", "--max", "three"], ["partition", "--n", "1.5"], ["table", "--max", ""],
    ["verify", "--suite", "congruences", "--order", "4e1"],
    # an unknown command or flag, and stray tokens
    ["tabl"], ["table", "--max", "3", "--bogus"], ["table", "--max", "3", "-x"],
    ["export", "--stat", "t", "--max", "3", "extra"], ["partition", "--n", "3", "--show-hooks", "yes"],
    ["--order", "5", "table", "--max", "3"], ["table", "--max", "3", "--", "--oracle"],
    # abbreviations and = forms, which argparse accepts
    ["export", "--stat", "t", "--max", "3", "--ord", "5"], ["table", "--max=3"],
    ["export", "--stat=u", "--max=4", "--format=csv"], ["partition", "--n", "4", "--show"],
    ["table", "--max", "3", "--o", "20"],
    # values that start with "-"
    ["table", "--max", "-1"], ["partition", "--n", "-0"],
    ["export", "--stat", "t", "--max", "3", "--out", "-"],
    # a repeated flag or switch, an empty cache directory
    ["export", "--stat", "t", "--stat", "u", "--max", "4"],
    ["table", "--max", "3", "--max", "5", "--oracle", "--oracle"],
    ["export", "--stat", "t", "--max", "4", "--cache", ""],
    # values argparse converts with int() as they are
    ["table", "--max", "٣"], ["table", "--max", " 3"], ["table", "--max", "+3"],
    ["partition", "--n", "1_0"], ["table", "--max", " -1"],
    # well-formed commands, and usage errors found after parsing
    ["table", "--stats", "t,u", "--max", "6", "--oracle", "--format", "csv"],
    ["verify", "--suite", "congruences", "--order", "30", "--format", "json"],
    ["partition", "--n", "5", "--show-hooks", "--filter", "u"],
    ["export", "--stat", "f", "--max", "10", "--order", "40", "--format", "bfile"],
    ["table", "--max", "300"], ["partition", "--n", "3", "--format", "csv"],
]


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_matches_the_reference(argv, columns, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    monkeypatch.setenv("LINES", "24")
    assert _run(capsys, argv) == _run_reference(capsys, monkeypatch, argv)


@pytest.mark.parametrize("argv", ARGV, ids=repr)
def test_main_matches_the_reference(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))  # where --cache "" falls back
    monkeypatch.chdir(tmp_path)  # where --out - writes
    ours = _run(capsys, argv)
    ours_file = (tmp_path / "-").read_text() if (tmp_path / "-").exists() else None
    assert ours == _run_reference(capsys, monkeypatch, argv)
    assert ours_file == ((tmp_path / "-").read_text() if (tmp_path / "-").exists() else None)


@pytest.mark.parametrize("argv", [
    ["export", "--stat", "t", "--max", "3"],
    ["export", "--stat=t", "--max", "3"],  # the argparse path
])
def test_main_calls_the_rebound_handler(argv, monkeypatch, capsys):
    # perfbench/tracer.py rebinds cli.cmd_* after importing cli; main must
    # call the binding it finds when it runs
    calls = []
    monkeypatch.setattr(cli, "cmd_export", lambda args, out: calls.append(args) or 0)
    assert cli.main(argv) == 0
    assert [(a.stat, a.max_n, a.order) for a in calls] == [("t", 3, verify.DEFAULT_ORDER)]
    assert capsys.readouterr().out == ""


def _parse(parser, argv):
    """(namespace or None, exit code or None, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args, code = parser.parse_args(argv), None
        except SystemExit as exc:
            args, code = None, exc.code
    # the reference's `run` default names the handler, which main now looks up by command
    fields = None if args is None else {k: v for k, v in vars(args).items() if k != "run"}
    return fields, code, out.getvalue(), err.getvalue()


FLAGS = sorted({row[0] for _, options in cli.COMMANDS.values() for row in cli.COMMON_OPTIONS + options})
VALUES = [
    "0", "3", "8", "20", "200", "10001", "t", "u", "p", "f", "t,u", "all", "series",
    "congruences", "combinatorial", "proof-steps", "text", "json", "csv", "bfile", "T",
    "-1", "-0", " -2", "-x", "٣", "５", " 3", "3.0", "1_0", "+4", "", "-", "--", "x", "table",
]
TOKENS = (
    list(cli.COMMANDS) + FLAGS + VALUES
    + ["--ord", "--o", "--en", "--st", "--sh", "--fi", "--fo", "--ca", "--ou", "--max_n", "--stat_"]
    + ["--max=3", "--stat=t", "--format=json", "--order=20", "--n=4", "--suite=series", "--cache="]
    + ["-h", "--help", "--version", "-n", "--bogus"]
)


def _pair(row):
    """One option of the table as its tokens, its value most often a plausible one."""
    flag, _, kind, _, choices, _, _ = row
    if kind is bool:
        return st.just((flag,))
    if choices:
        plausible = choices
    elif kind is int:
        plausible = ["0", "3", "8", "20", "200", "٣", " 3", "+4", "1_0"]
    else:
        plausible = ["t,u", "p", "dir"]
    return st.tuples(st.just(flag), st.one_of(st.sampled_from(plausible), st.sampled_from(VALUES)))


def _command_argv(command):
    """The command, its required options and a few more in any order, then maybe a stray token."""
    rows = cli.COMMON_OPTIONS + cli.COMMANDS[command][1]
    options = st.builds(
        lambda required, more: [*required, *more],
        st.tuples(*(_pair(row) for row in rows if row[5])),
        st.lists(st.one_of([_pair(row) for row in rows]), max_size=5),
    )
    return st.builds(
        lambda pairs, tail: [command, *(t for pair in pairs for t in pair), *tail],
        options.flatmap(st.permutations),
        st.lists(st.sampled_from(TOKENS), max_size=1),
    )


# any tokens at all, or one command's options, which reach the exact path far more often
ARGVS = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=10),
    st.sampled_from(list(cli.COMMANDS)).flatmap(_command_argv),
)


@settings(max_examples=300, deadline=None)
@given(ARGVS)
def test_exact_parse_is_the_reference_parse_or_none(argv):
    fast = cli._parse_exact(argv)
    reference = _parse(reference_parser(), argv)
    event("exact path" if fast is not None else "argparse path")
    if fast is not None:
        assert reference == (vars(fast), None, "", "")
    # the parser built from the option table parses and fails as the reference does
    assert _parse(cli._build_parser(), argv) == reference


WELL_FORMED = [
    ["table", "--max", "12"],
    ["table", "--stats", "t,u", "--max", "8", "--oracle", "--format", "json", "--order", "40"],
    ["verify", "--suite", "all", "--order", "200", "--enum-bound", "25", "--oracle-bound", "50",
     "--format", "text"],
    ["verify"],
    ["partition", "--n", "30", "--show-hooks", "--filter", "u", "--format", "json"],
    ["export", "--stat", "t", "--max", "2000", "--order", "2000", "--enum-bound", "25",
     "--oracle-bound", "60", "--format", "bfile", "--cache", "cache-dir"],
    ["export", "--max", "3", "--stat", "f", "--out", "f.txt", "--max", "4", "--cache", ""],
]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_well_formed_argv_takes_the_exact_path(argv):
    fast = cli._parse_exact(argv)
    assert fast is not None
    assert _parse(reference_parser(), argv) == (vars(fast), None, "", "")
