import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import namedtuple
from contextlib import redirect_stdout
from itertools import chain

import pytest

import stanleypf
from stanleypf import cli, stanley, verify
from stanleypf.partitions import classify, partitions_of
from stanleypf.cli import (
    _json_coeff,
    cache_load,
    cache_store,
    main,
    parse_bfile,
    parse_csv,
    parse_json_export,
    render_bfile,
    render_csv,
    render_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_t_u_table(self, capsys):
        code, out, _ = run(capsys, "table", "--stats", "t,u", "--max", "4")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        assert rows == [
            ["0", "1", "0"],
            ["1", "1", "0"],
            ["2", "0", "2"],
            ["3", "1", "2"],
            ["4", "5", "0"],
        ]

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "--stats", "p", "--max", "0")
        assert code == 0
        assert out.strip().splitlines()[1].split() == ["0", "1"]

    def test_f_column(self, capsys):
        code, out, _ = run(capsys, "table", "--stats", "f", "--max", "4")
        assert code == 0
        values = [line.split()[1] for line in out.strip().splitlines()[1:]]
        assert values == ["1", "1", "-2", "-1", "5"]

    def test_oracle_markers(self, capsys):
        code, out, _ = run(capsys, "table", "--stats", "t,u", "--max", "6", "--oracle")
        assert code == 0
        body = out.strip().splitlines()[1:]
        assert all(line.split()[-1] == "ok" for line in body)

    def test_max_beyond_order(self, capsys):
        code, _, err = run(capsys, "table", "--stats", "t", "--max", "300", "--order", "200")
        assert code == 2
        assert "--order" in err

    def test_oracle_beyond_bound(self, capsys):
        code, _, err = run(capsys, "table", "--stats", "t", "--max", "70", "--oracle")
        assert code == 2
        assert "--oracle-bound" in err

    def test_oracle_beyond_brute_force_cap(self, capsys, monkeypatch):
        from stanleypf.cli import BRUTE_FORCE_CAP

        def no_enumeration(*args, **kwargs):
            raise AssertionError("table --oracle enumerated past its cap")

        monkeypatch.setattr(stanley, "table_from_enumeration", no_enumeration)
        over = str(BRUTE_FORCE_CAP + 1)
        code, out, err = run(capsys, "table", "--stats", "t", "--max", over, "--oracle",
                             "--oracle-bound", "80")
        assert (code, out) == (2, "")
        assert err == f"error: --oracle enumeration is capped at --max {BRUTE_FORCE_CAP}\n"

    def test_unknown_stat(self, capsys):
        code, _, err = run(capsys, "table", "--stats", "t,x", "--max", "4")
        assert code == 2
        assert "unknown statistic" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "table", "--stats", "t", "--max", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["n,t", "0,1", "1,1", "2,0"]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "table", "--stats", "u", "--max", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"]["u"] == [0, 0, 2, 2]

    def test_bfile_format_rejected(self, tmp_path, capsys):
        code, _, err = run(capsys, "table", "--stats", "t", "--max", "2", "--format", "bfile",
                           "--cache", str(tmp_path))
        assert code == 2
        assert os.listdir(tmp_path) == []


def reference_csv_lines(header, rows):
    """cli._csv_lines as it stood before every CSV row became a % line
    format: the CSV layout of reference_cmd_table."""
    for row in chain([header], rows):
        yield ",".join(map(str, row)) + "\n"


def reference_cmd_table(args, out) -> int:
    """cli.cmd_table as it stood when it built each table whole before
    writing it, copied verbatim apart from the cli. prefixes and the name of
    reference_csv_lines: the byte reference of the streamed writers."""
    stats, max_n, oracle = args.stats, args.max_n, args.oracle
    columns = {s: cli._stat_values(args, s)[: max_n + 1] for s in stats}
    oracle_columns = {}
    if oracle:
        enum = stanley.table_from_enumeration(max_n)
        oracle_columns = {s: list(getattr(enum, s)) for s in stats}
    mismatch = any(columns[s] != oracle_columns[s] for s in oracle_columns)
    # indexed by stats, not by the dicts, so a repeated statistic keeps its columns
    cells = [columns[s] for s in stats] + ([oracle_columns[s] for s in stats] if oracle else [])
    rows = ([n] + [col[n] for col in cells] for n in range(max_n + 1))

    if args.output_format == "json":
        doc = {"max_n": max_n, "columns": {s: [_json_coeff(v) for v in columns[s]] for s in stats}}
        if oracle:
            doc["oracle"] = {s: [_json_coeff(v) for v in oracle_columns[s]] for s in stats}
            doc["match"] = not mismatch
        print(json.dumps(doc), file=out)
    elif args.output_format == "csv":
        out.writelines(reference_csv_lines(["n", *stats, *(f"{s}_enum" for s in stats if oracle)], rows))
    else:  # text: right-aligned columns, and a match marker per oracle row
        k = len(stats)
        header = ["n", *stats]
        if oracle:
            header += [f"{s}.enum" for s in stats] + ["match"]
        lines = [header]
        for row in rows:
            if oracle:
                row.append("ok" if row[1 : k + 1] == row[k + 1 :] else "MISMATCH")
            lines.append([str(cell) for cell in row])
        widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
        for line in lines:
            print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)), file=out)
    return cli.EXIT_VERIFY_FAIL if mismatch else cli.EXIT_OK


class CountingOut(io.StringIO):
    """A stream that records the size and the line count of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []
        self.lines = []

    def write(self, s):
        self.sizes.append(len(s))
        self.lines.append(s.count("\n"))
        return super().write(s)


class Discard:
    def write(self, s):
        return len(s)


def table_args(argv):
    # the namespace main hands cmd_table, which splits the statistics first
    args = cli._parse_exact(argv)
    args.stats = args.stats.split(",")
    return args


class TestStreamedTable:
    """cmd_table writes each table in pieces; the bytes and the exit code must
    be those of reference_cmd_table, which builds the table whole."""

    @staticmethod
    def _same_as_reference(capsys, monkeypatch, *argv):
        got = run(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "cmd_table", reference_cmd_table)
            assert run(capsys, *argv) == got
        return got

    @pytest.mark.parametrize("output_format", ["text", "csv", "json"])
    @pytest.mark.parametrize("stats", ["p,t,u,f", "t,t", "u,t,u", "f"])
    def test_small_tables_and_the_oracle(self, capsys, monkeypatch, stats, output_format):
        # f's negative values, a single row, repeated statistics, and the
        # oracle's columns and match markers
        for max_n in ("0", "1", "9"):
            for oracle in ([], ["--oracle"]):
                code, _, _ = self._same_as_reference(
                    capsys, monkeypatch, "table", "--stats", stats, "--max", max_n, "--format", output_format, *oracle)
                assert code == 0

    @pytest.mark.parametrize("output_format", ["text", "csv", "json"])
    @pytest.mark.parametrize("stats", ["p,t,u,f", "u,t,u"])
    def test_a_planted_oracle_mismatch(self, capsys, monkeypatch, stats, output_format):
        real = stanley.table_from_enumeration

        def planted(max_n):  # t off by one at n = 3 and f's signs flipped
            table = real(max_n)
            return table._replace(t=tuple(v + (n == 3) for n, v in enumerate(table.t)),
                                  f=tuple(-v for v in table.f))

        monkeypatch.setattr(stanley, "table_from_enumeration", planted)
        code, _, _ = self._same_as_reference(
            capsys, monkeypatch, "table", "--stats", stats, "--max", "9", "--format", output_format, "--oracle")
        assert code == 1

    @pytest.mark.parametrize("output_format", ["text", "csv", "json"])
    def test_values_past_53_bits(self, capsys, monkeypatch, tmp_path, output_format):
        # p(400) is about 6.9e18, so JSON writes the largest values as
        # strings and text widens the columns; the second run reads the cache
        assert stanley.p_series(400).coeffs[400] > cli.JSON_SAFE_MAGNITUDE
        for stats in ("p,t,u,f", "f,p,f"):
            for _ in range(2):
                code, _, _ = self._same_as_reference(
                    capsys, monkeypatch, "table", "--stats", stats, "--max", "400", "--order", "400",
                    "--format", output_format, "--cache", str(tmp_path))
                assert code == 0

    @pytest.fixture(scope="class")
    def order_2000_cache(self, tmp_path_factory):
        cache = str(tmp_path_factory.mktemp("cache"))
        with redirect_stdout(io.StringIO()):
            assert main(["table", "--max", "2000", "--order", "2000", "--format", "csv", "--cache", cache]) == 0
        return cache

    @pytest.mark.parametrize("output_format, limit_mb", [("text", 1.0), ("csv", 1.0), ("json", 1.2)])
    def test_cached_table_is_written_in_a_few_blocks_and_stays_small(self, order_2000_cache, output_format, limit_mb):
        # built whole, the text table peaked at 1.36 MB and the JSON one at
        # 2.03 MB; streamed, each holds about what the CSV table does, the
        # four cached columns and a block
        argv = ["table", "--stats", "p,t,u,f", "--max", "2000", "--order", "2000",
                "--format", output_format, "--cache", order_2000_cache]
        out = CountingOut()
        assert cli.cmd_table(table_args(argv), out) == 0
        text = out.getvalue()
        assert text.count("\n") == (1 if output_format == "json" else 2002)
        # a per-row write would make 2,002 calls; one write of it all would hold it in memory
        assert len(out.sizes) <= 16
        assert max(out.sizes) <= len(text) // 3
        args = table_args(argv)
        tracemalloc.start()
        try:
            assert cli.cmd_table(args, Discard()) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6


class TestVerifyCommand:
    def test_congruence_suite_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "congruences", "--order", "60")
        assert code == 0
        assert "PASS cong/t-at-5n-plus-4-divisible-by-5" in out
        assert "4 checks: 4 passed, 0 failed" in out

    def test_proof_steps_at_low_order(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "proof-steps", "--order", "8")
        assert code == 0
        assert "0 failed" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "congruences", "--order", "40",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["reports"]) == 4
        assert all(r["first_failure_index"] is None for r in doc["reports"])

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "congruences", "--order", "40",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("check_name,")
        assert len(lines) == 5

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2

    def test_failing_report_exits_one(self, capsys, monkeypatch):
        from stanleypf import verify
        from stanleypf.verify import VerificationReport

        failing = VerificationReport("cong/synthetic", 5, False, 3, 1, 2)
        monkeypatch.setattr(verify, "run_suite", lambda *a, **kw: [failing])
        code, out, _ = run(capsys, "verify", "--suite", "congruences")
        assert code == 1
        assert "FAIL cong/synthetic" in out
        assert "0 passed, 1 failed" in out

    def test_failing_report_json_keeps_big_witnesses_exact(self, capsys, monkeypatch):
        from stanleypf import verify
        from stanleypf.verify import VerificationReport

        big = 2**64 + 1
        failing = VerificationReport("cong/synthetic", 5, False, 3, big, -7)
        monkeypatch.setattr(verify, "run_suite", lambda *a, **kw: [failing])
        code, out, _ = run(capsys, "verify", "--suite", "congruences", "--format", "json")
        assert code == 1
        (report,) = json.loads(out)["reports"]
        assert (report["first_failure_index"], report["lhs_value"], report["rhs_value"]) == (3, str(big), -7)

    def test_a_new_report_field_needs_no_cli_edit(self, capsys, monkeypatch):
        # a report record with one more int field: it is a CSV column and a
        # JSON key, past 53 bits a decimal string, with nothing named in cli
        fields = verify.VerificationReport._fields + ("elapsed_ns",)

        class WiderReport(namedtuple("VerificationReport", fields)):
            to_dict = verify.VerificationReport.to_dict
            to_line = verify.VerificationReport.to_line

        big = 2**53 + 1
        reports = [WiderReport("cong/synthetic", 5, True, None, None, None, big),
                   WiderReport("cong/failing", 5, False, 3, 1, -2, 7)]
        monkeypatch.setattr(verify, "VerificationReport", WiderReport)
        monkeypatch.setattr(verify, "run_suite", lambda *a, **kw: reports)
        code, out, _ = run(capsys, "verify", "--format", "csv")
        assert code == 1
        assert out.splitlines() == [
            "check_name,order_or_bound,passed,first_failure_index,lhs_value,rhs_value,elapsed_ns",
            f"cong/synthetic,5,true,,,,{big}",
            "cong/failing,5,false,3,1,-2,7",
        ]
        code, out, _ = run(capsys, "verify", "--format", "json")
        assert code == 1
        assert json.loads(out)["reports"] == [
            {"check_name": "cong/synthetic", "order_or_bound": 5, "passed": True, "first_failure_index": None,
             "lhs_value": None, "rhs_value": None, "elapsed_ns": str(big)},
            {"check_name": "cong/failing", "order_or_bound": 5, "passed": False, "first_failure_index": 3,
             "lhs_value": 1, "rhs_value": -2, "elapsed_ns": 7},
        ]

    def test_internal_identity_failure_exits_one(self, capsys, monkeypatch):
        # one f coefficient off by one makes p + f odd there, so the exact
        # halving behind t = (p + f) / 2 fails: a defect, not a usage error.
        # Each check that reads the half-sum t fails at that index with no
        # lhs value, and every other check still reports.
        real_f_series = stanley.f_series

        def off_by_one(order):
            coeffs = list(real_f_series(order).coeffs)
            coeffs[5] += 1
            return stanleypf.TruncatedSeries(tuple(coeffs))

        monkeypatch.setattr(stanley, "f_series", off_by_one)
        code, out, err = run(capsys, "verify", "--suite", "series", "--order", "40",
                             "--oracle-bound", "12")
        assert code == 1
        assert err == ""
        assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
            "FAIL series/f-product-vs-enumeration: first mismatch at index 5 (lhs=4, rhs=3, bound=12)",
            "FAIL series/t-half-sum-vs-enumeration: first mismatch at index 5 (lhs=None, rhs=5, bound=12)",
            "FAIL series/t-half-sum-vs-eta-quotient: first mismatch at index 5 (lhs=None, rhs=5, bound=40)",
            "32 checks: 29 passed, 3 failed",
        ]

    def test_bfile_format_rejected(self, capsys, monkeypatch):
        from stanleypf import verify

        def no_suite(*args, **kwargs):
            raise AssertionError("the suite ran before the format was checked")

        monkeypatch.setattr(verify, "run_suite", no_suite)
        code, _, err = run(capsys, "verify", "--suite", "congruences", "--format", "bfile")
        assert code == 2
        assert err == "error: verification reports support text, json, or csv\n"

    def test_order_past_the_proof_steps_cap_exits_before_any_suite(self, capsys, monkeypatch):
        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran past the proof steps' order cap")

        for name in ("suite_series", "suite_combinatorial", "check_congruences", "_expand",
                     "expand_product", "expand_theta"):
            monkeypatch.setattr(verify, name, no_suite)
        code, out, err = run(capsys, "verify", "--suite", "all", "--order", "10001")
        assert (code, out, err) == (2, "", "error: --order is capped at 10000, got 10001\n")

    @pytest.mark.parametrize("suite", ["all", "combinatorial"])
    def test_enum_bound_past_its_cap_exits_before_any_suite(self, capsys, monkeypatch, suite):
        from stanleypf.cli import ENUM_BOUND_CAP

        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran past the combinatorial pass's bound cap")

        monkeypatch.setattr(verify, "run_suite", no_suite)
        over = ENUM_BOUND_CAP + 1
        code, out, err = run(capsys, "verify", "--suite", suite, "--enum-bound", str(over))
        assert (code, out, err) == (2, "", f"error: --enum-bound is capped at {ENUM_BOUND_CAP}, got {over}\n")

    @pytest.mark.parametrize("suite", ["all", "series"])
    def test_oracle_bound_past_its_cap_exits_before_any_suite(self, capsys, monkeypatch, suite):
        from stanleypf.cli import ORACLE_BOUND_CAP

        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran past the partition DP's bound cap")

        monkeypatch.setattr(verify, "run_suite", no_suite)
        over = ORACLE_BOUND_CAP + 1
        code, out, err = run(capsys, "verify", "--suite", suite, "--oracle-bound", str(over))
        assert (code, out, err) == (2, "", f"error: --oracle-bound is capped at {ORACLE_BOUND_CAP}, got {over}\n")


class TestPartitionCommand:
    def test_u_partitions_of_two(self, capsys):
        code, out, _ = run(capsys, "partition", "--n", "2", "--filter", "u")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("(2)") and "He=1" in lines[0] and "type=u" in lines[0]
        assert lines[1].startswith("(1, 1)") and "He=1" in lines[1]

    def test_empty_partition(self, capsys):
        code, out, _ = run(capsys, "partition", "--n", "0")
        assert code == 0
        assert out.strip() == "()  O=0 O'=0 He=0 type=t"

    def test_no_u_partitions_of_four(self, capsys):
        code, out, _ = run(capsys, "partition", "--n", "4", "--filter", "u")
        assert code == 0
        assert out.strip() == ""

    def test_hook_grid(self, capsys):
        code, out, _ = run(capsys, "partition", "--n", "2", "--show-hooks")
        assert code == 0
        assert "    2 1" in out.splitlines()

    def test_cap(self, capsys):
        code, _, err = run(capsys, "partition", "--n", "31")
        assert code == 2
        assert "capped" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "partition", "--n", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [e["parts"] for e in doc] == [[3], [2, 1], [1, 1, 1]]
        assert [e["type"] for e in doc] == ["u", "t", "u"]

    def test_text_listing_is_written_in_a_few_blocks(self):
        class CountingOut(io.StringIO):
            def __init__(self):
                super().__init__()
                self.sizes = []

            def write(self, s):
                self.sizes.append(len(s))
                return super().write(s)

        out = CountingOut()
        args = cli._build_parser().parse_args(["partition", "--n", "30", "--show-hooks"])
        assert cli.cmd_partition(args, out) == 0
        text = out.getvalue()
        assert text.count("\n") == 60167  # 5,604 partitions of 30 and one hook row per part
        # a per-line write would make 60,167 calls; one write of it all would hold it in memory
        assert len(out.sizes) <= 64
        assert max(out.sizes) <= len(text) // 4

    @staticmethod
    def _check_against_reference(out, output_format, n, kind_filter, show_hooks):
        # the type must come from the odd parts and He from the hooks; the
        # reference reads each from its own definition
        def reference_hooks(lam):
            return [[row - j + sum(1 for p in lam if p >= j) - i + 1 for j in range(1, row + 1)]
                    for i, row in enumerate(lam, 1)]

        def parse_text(out):
            entries, lines = [], out.splitlines()
            while lines:
                head, fields = lines.pop(0).split("  ")
                parts = [int(x) for x in head.strip("()").split(", ") if x]
                entry = {"parts": parts, **dict(f.split("=") for f in fields.split())}
                if show_hooks:
                    entry["hooks"] = [[int(h) for h in lines.pop(0).split()] for _ in parts]
                entries.append(entry)
            return entries

        entries = json.loads(out) if output_format == "json" else parse_text(out)
        expected = [lam for lam in partitions_of(n)
                    if kind_filter in ("all", "t" if classify(lam).is_t_type else "u")]
        assert [tuple(e["parts"]) for e in entries] == expected
        for entry, lam in zip(entries, expected):
            s = classify(lam)
            hooks = reference_hooks(lam)
            if output_format == "json":
                got = (entry["odd_parts"], entry["odd_parts_conjugate"], entry["even_hooks"])
            else:
                got = (int(entry["O"]), int(entry["O'"]), int(entry["He"]))
            assert got == (s.odd_parts, s.odd_parts_conjugate, s.even_hooks), lam
            assert got[2] == sum(1 for row in hooks for h in row if h % 2 == 0), lam
            assert entry["type"] == ("t" if s.is_t_type else "u"), lam
            assert entry.get("hooks") == (hooks if show_hooks else None), lam

    @pytest.mark.parametrize("output_format", ["text", "json"])
    @pytest.mark.parametrize("kind_filter", ["all", "t", "u"])
    def test_listing_matches_a_reference_built_cell_by_cell(self, capsys, kind_filter, output_format):
        for n in range(15):
            for show_hooks in (False, True):
                argv = ["partition", "--n", str(n), "--filter", kind_filter, "--format", output_format]
                code, out, _ = run(capsys, *argv, *(["--show-hooks"] if show_hooks else []))
                assert code == 0
                self._check_against_reference(out, output_format, n, kind_filter, show_hooks)

    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_listing_at_the_cap_matches_a_reference_built_cell_by_cell(self, capsys, output_format):
        # at n = 30 hook rows are shared by many partitions and dropped
        # part way through, which the small sizes above never reach
        n = cli.PARTITION_LISTING_CAP
        code, out, _ = run(capsys, "partition", "--n", str(n), "--show-hooks", "--format", output_format)
        assert code == 0
        self._check_against_reference(out, output_format, n, "all", True)

    @pytest.mark.parametrize("kind_filter", ["all", "t", "u"])
    def test_json_listing_is_the_dumps_of_its_entries(self, capsys, kind_filter):
        # the streamed JSON listing, byte for byte, against json.dumps of the
        # whole list built from each entry's definitions; n = 0 under --filter
        # u is the empty list
        for n in range(15):
            for show_hooks in (False, True):
                listing = []
                for lam in partitions_of(n):
                    s = classify(lam)
                    kind = "t" if s.is_t_type else "u"
                    if kind_filter not in ("all", kind):
                        continue
                    entry = {"parts": list(lam), "odd_parts": s.odd_parts,
                             "odd_parts_conjugate": s.odd_parts_conjugate, "even_hooks": s.even_hooks,
                             "type": kind}
                    if show_hooks:
                        entry["hooks"] = [
                            [row - j + sum(1 for p in lam if p >= j) - i + 1 for j in range(1, row + 1)]
                            for i, row in enumerate(lam, 1)]
                    listing.append(entry)
                argv = ["partition", "--n", str(n), "--filter", kind_filter, "--format", "json"]
                code, out, _ = run(capsys, *argv, *(["--show-hooks"] if show_hooks else []))
                assert (code, out) == (0, json.dumps(listing) + "\n"), (n, show_hooks)

    def test_json_listing_is_written_in_a_few_blocks(self):
        out = CountingOut()
        args = cli._parse_exact(["partition", "--n", "30", "--show-hooks", "--format", "json"])
        assert cli.cmd_partition(args, out) == 0
        text = out.getvalue()
        assert len(json.loads(text)) == 5604
        assert len(out.sizes) <= 64
        assert max(out.sizes) <= len(text) // 4

    @pytest.mark.parametrize("output_format, limit_mb", [("text", 1.5), ("json", 1.5)])
    def test_listing_at_the_cap_stays_small_in_memory(self, output_format, limit_mb):
        # both listings are streamed, so neither peak may grow with the
        # listing (0.75 MB for text and 0.81 MB for JSON; the JSON listing
        # held whole peaked at 9.26 MB)
        args = cli._build_parser().parse_args(
            ["partition", "--n", "30", "--show-hooks", "--format", output_format])
        tracemalloc.start()
        try:
            assert cli.cmd_partition(args, Discard()) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6


class TestExport:
    def test_bfile_stdout(self, capsys):
        code, out, _ = run(capsys, "export", "--stat", "t", "--max", "4", "--format", "bfile")
        assert code == 0
        assert out == "0 1\n1 1\n2 0\n3 1\n4 5\n"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "export", "--stat", "u", "--max", "2", "--format", "csv")
        assert code == 0
        assert out == "n,u\n0,0\n1,0\n2,2\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "export", "--stat", "p", "--max", "0", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["values"] == [1] and doc["offset"] == 0

    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "t.txt"
        code, _, _ = run(capsys, "export", "--stat", "t", "--max", "4",
                         "--format", "bfile", "--out", str(target))
        assert code == 0
        assert target.read_text() == "0 1\n1 1\n2 0\n3 1\n4 5\n"

    def test_unwritable_path(self, tmp_path, capsys):
        bad = tmp_path / "missing" / "t.txt"
        code, _, err = run(capsys, "export", "--stat", "t", "--max", "4",
                           "--format", "bfile", "--out", str(bad))
        assert code == 3
        assert str(bad) in err

    def test_round_trips_are_bit_exact(self):
        values = list(stanley.t_series_andrews(40).coeffs)
        assert parse_bfile(render_bfile(values)) == values
        assert parse_csv(render_csv("t", values)) == values
        assert parse_json_export(render_json("t", values)) == values

    def test_bfile_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            parse_bfile("1 3\n")
        with pytest.raises(ValueError, match="contiguous"):
            parse_bfile("0 1\n2 3\n")

    @pytest.mark.parametrize("text", [
        "n,p\n0,1\n5,3\n",  # a gap in the index column
        "n,p\n1,1\n",  # not from 0
        "n,p\n1,1\n0,1\n",  # out of order
        "0,1\n1,1\n",  # no header
        "k,p\n0,1\n",
        "n,x\n0,1\n",
        "n,p,u\n0,1,0\n",
        "n,p\n0,1,2\n",
        "",
    ])
    def test_csv_must_have_its_header_and_contiguous_indices(self, text):
        with pytest.raises(ValueError):
            parse_csv(text)

    @pytest.mark.parametrize("row", [
        "0,1_0",  # int() reads 10
        " 0, +3",  # int() reads 3
        "0,١",  # an Arabic-Indic digit: int() reads 1
        "0_0,1",
        "٠,1",
    ])
    def test_csv_index_and_value_must_be_decimal(self, row):
        # as parse_json_export and cache_load do, only what str(int) writes
        with pytest.raises(ValueError, match="decimal"):
            parse_csv(f"n,p\n{row}\n")

    @pytest.mark.parametrize("row", ["0 1_0", "0 +3", "0 ١", "+0 1", "٠ 1"])
    def test_bfile_index_and_value_must_be_decimal(self, row):
        with pytest.raises(ValueError, match="decimal"):
            parse_bfile(f"{row}\n")

    @pytest.mark.parametrize("text", [
        '{"stat": "p", "offset": 0, "values": [1, 1.5]}',
        '{"stat": "p", "offset": 0, "values": [1, true]}',
        '{"stat": "p", "offset": 0, "values": [1, null]}',
        '{"stat": "p", "offset": 0, "values": ["1.0"]}',
        '{"stat": "p", "offset": 0, "values": [" 7"]}',
        '{"stat": "p", "offset": 0, "values": ["1_000"]}',
        '{"stat": "p", "offset": 1, "values": [1]}',
        '{"stat": "p", "offset": false, "values": [1]}',
        '{"stat": "p", "values": [1]}',
        '{"stat": "p", "offset": 0, "values": "11"}',
        '[1, 1]',
    ])
    def test_json_export_takes_integers_from_offset_zero(self, text):
        with pytest.raises(ValueError):
            parse_json_export(text)

    def test_json_export_reads_decimal_strings(self):
        text = '{"stat": "u", "offset": 0, "values": [0, "-9007199254740993", 2]}'
        assert parse_json_export(text) == [0, -(2**53) - 1, 2]

    def test_json_big_integers_become_strings(self):
        big = 2**63 + 7
        assert _json_coeff(big) == str(big)
        assert _json_coeff(2**53 - 1) == 2**53 - 1
        assert parse_json_export(render_json("p", [big, 3])) == [big, 3]

    @pytest.mark.parametrize("text, kind", [
        ("n,p\n0,1\n1", "CSV"),  # a row with no comma
        ("n,p\n0,1\n1,1,2\n", "CSV"),
        ("0 1 2\n", "b-file"),
        ("0 1\n1\n", "b-file"),
    ])
    def test_a_row_must_have_two_fields(self, text, kind):
        parse = parse_csv if kind == "CSV" else parse_bfile
        row = text.splitlines()[-1]
        with pytest.raises(ValueError, match=f"^{kind} rows must have two fields") as info:
            parse(text)
        assert repr(row) in str(info.value)


def read_back(reader, index, value, tmp_path):
    """The column reader's result for the one row (index, value), both
    strings as they would stand in its format."""
    if reader == "b-file":
        return parse_bfile(f"{index} {value}\n")
    if reader == "CSV":
        return parse_csv(f"n,f\n{index},{value}\n")
    if reader == "JSON":
        assert index == "0"  # a JSON export has no index column
        return parse_json_export(json.dumps({"stat": "f", "offset": 0, "values": [value]}))
    assert index == "0"  # the cache keys its column by order: order 0 is one value
    with open(cli._cache_file(str(tmp_path), "f", 0), "w") as fh:
        json.dump({"version": stanleypf.__version__, "stat": "f", "order": 0, "values": [value]}, fh)
    return cache_load(str(tmp_path), "f", 0)


READERS = ("b-file", "CSV", "JSON", "cache")


class TestOnlyWhatStrIntWrites:
    """The export parsers and the cache read a number only as str(int)
    writes it; int() also reads a leading zero and "-0"."""

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("value", ["0", "-7", "10", "-9007199254740993", str(2**64)])
    def test_what_str_int_writes_is_read(self, tmp_path, reader, value):
        assert read_back(reader, "0", value, tmp_path) == [int(value)]

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("value", ["00", "007", "-0", "-00", "-07"])
    def test_a_leading_zero_or_minus_zero_value_is_refused(self, tmp_path, capsys, reader, value):
        if reader == "cache":  # a corrupt entry: a warning, and a miss
            assert read_back(reader, "0", value, tmp_path) is None
            assert "corrupt cache" in capsys.readouterr().err
        else:
            with pytest.raises(ValueError, match="decimal"):
                read_back(reader, "0", value, tmp_path)

    @pytest.mark.parametrize("reader", ["b-file", "CSV"])
    @pytest.mark.parametrize("index", ["00", "-0"])
    def test_a_leading_zero_or_minus_zero_index_is_refused(self, tmp_path, reader, index):
        with pytest.raises(ValueError, match="decimal"):
            read_back(reader, index, "1", tmp_path)


def reference_render_bfile(values) -> str:
    return "".join(f"{n} {v}\n" for n, v in enumerate(values))


def reference_render_csv(stat: str, values) -> str:
    return f"n,{stat}\n" + "".join(f"{n},{v}\n" for n, v in enumerate(values))


def reference_render_json(stat: str, values) -> str:
    return json.dumps({"stat": stat, "offset": 0, "values": [_json_coeff(v) for v in values]}) + "\n"


def reference_cmd_export(args, out) -> int:
    """cli.cmd_export and the three render functions above as they stood
    when each export was rendered whole before it was written, copied
    verbatim apart from the cli. prefixes and the reference_ names: the byte
    reference of the streamed export."""
    stat, out_path = args.stat, args.out
    values = cli._stat_values(args, stat)[: args.max_n + 1]
    if args.output_format == "csv":
        rendered = reference_render_csv(stat, values)
    elif args.output_format == "json":
        rendered = reference_render_json(stat, values)
    else:  # bfile, and text, which a b-file already is
        rendered = reference_render_bfile(values)
    if out_path is None:
        out.write(rendered)
    else:
        try:
            with open(out_path, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            raise OSError(f"cannot write {out_path!r}: {exc.strerror}") from exc
    return cli.EXIT_OK


class FullStdout:
    def write(self, s):
        raise OSError(28, "No space left on device")


class TestStreamedExport:
    """cmd_export writes each export in blocks of lines; the bytes, the exit
    code and the messages must be those of reference_cmd_export, which
    renders the export whole."""

    @pytest.fixture(scope="class")
    def order_400_cache(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("cache"))

    @staticmethod
    def _same_as_reference(capsys, monkeypatch, target, *argv):
        """Run argv, and again with the reference; compare what each leaves
        at target (the --out file, if argv names one) too."""
        def run_and_read():
            target.unlink(missing_ok=True)
            return run(capsys, *argv), target.read_text() if target.exists() else None

        got = run_and_read()
        with monkeypatch.context() as m:
            m.setattr(cli, "cmd_export", reference_cmd_export)
            assert run_and_read() == got
        return got[0]

    @pytest.mark.parametrize("output_format", cli.FORMATS)
    @pytest.mark.parametrize("stat", cli.STATS)
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_every_format_and_size(self, capsys, monkeypatch, tmp_path, order_400_cache,
                                   output_format, stat, to_file):
        # one row, a block less one row, exactly a block, and values past 53
        # bits (p(400) is about 6.9e18), where JSON writes strings
        assert stanley.p_series(400).coeffs[400] > cli.JSON_SAFE_MAGNITUDE
        target = tmp_path / f"{stat}.{output_format}"
        for max_n in ("0", "255", "256", "400"):
            argv = ["export", "--stat", stat, "--max", max_n, "--order", "400",
                    "--format", output_format, "--cache", order_400_cache]
            code, out, err = self._same_as_reference(
                capsys, monkeypatch, target, *argv, *(["--out", str(target)] if to_file else []))
            assert (code, err) == (0, "")
            text = target.read_text() if to_file else out
            assert text.count("\n") == (1 if output_format == "json" else int(max_n) + 1 + (output_format == "csv"))

    @pytest.mark.parametrize("output_format", cli.FORMATS)
    def test_render_functions_join_what_the_command_writes(self, capsys, output_format):
        values = list(stanley.f_series(400).coeffs)
        code, out, _ = run(capsys, "export", "--stat", "f", "--max", "400", "--order", "400",
                           "--format", output_format)
        assert code == 0
        reference = {"csv": reference_render_csv("f", values), "json": reference_render_json("f", values)}
        rendered = {"csv": render_csv("f", values), "json": render_json("f", values)}
        assert out == rendered.get(output_format, render_bfile(values))
        assert out == reference.get(output_format, reference_render_bfile(values))

    def test_write_errors_read_as_before(self, capsys, monkeypatch, tmp_path):
        # an --out that cannot be opened, and a stdout that cannot be written
        bad = tmp_path / "missing" / "t.txt"
        code, out, err = self._same_as_reference(
            capsys, monkeypatch, bad, "export", "--stat", "t", "--max", "4", "--out", str(bad))
        assert (code, out) == (3, "") and str(bad) in err
        monkeypatch.setattr(sys, "stdout", FullStdout())
        code, _, err = self._same_as_reference(capsys, monkeypatch, bad, "export", "--stat", "t", "--max", "4")
        assert (code, err) == (3, "error: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("output_format", ["bfile", "csv"])
    def test_a_long_export_takes_several_writes_of_a_block_each(self, tmp_path, output_format):
        argv = ["export", "--stat", "p", "--max", "2000", "--order", "2000",
                "--format", output_format, "--cache", str(tmp_path)]
        out = CountingOut()
        assert cli.cmd_export(cli._parse_exact(argv), out) == 0
        lines = 2001 + (output_format == "csv")
        assert sum(out.lines) == out.getvalue().count("\n") == lines
        # a per-row write would make 2,001 calls; one write of it all would hold it in memory
        assert len(out.lines) == -(-lines // cli.BLOCK_ROWS)
        assert max(out.lines) == cli.BLOCK_ROWS


class TestCache:
    def test_store_and_load(self, tmp_path):
        path = cache_store(str(tmp_path), "t", 10, list(range(11)))
        assert os.path.exists(path)
        assert cache_load(str(tmp_path), "t", 10) == list(range(11))

    def test_miss(self, tmp_path):
        assert cache_load(str(tmp_path), "t", 10) is None

    def test_file_gone_before_it_is_read_is_a_miss(self, tmp_path, capsys, monkeypatch):
        # another run may remove the entry between a check and the read;
        # that is a miss, not a corrupt file
        path = cache_store(str(tmp_path), "t", 4, [1, 1, 0, 1, 5])

        def vanished(file, *args, **kwargs):
            raise FileNotFoundError(file)

        monkeypatch.setattr(cli, "open", vanished, raising=False)
        assert os.path.exists(path)
        assert cache_load(str(tmp_path), "t", 4) is None
        assert capsys.readouterr() == ("", "")

    def test_corrupt_file_warns_and_recomputes(self, tmp_path, capsys):
        path = cache_store(str(tmp_path), "t", 4, [1, 1, 0, 1, 5])
        with open(path, "w") as fh:
            fh.write("{ not json")
        assert cache_load(str(tmp_path), "t", 4) is None
        assert "corrupt cache" in capsys.readouterr().err

    def test_wrong_length_is_corrupt(self, tmp_path, capsys):
        path = cache_store(str(tmp_path), "t", 4, [1, 1, 0])  # too short for order 4
        assert cache_load(str(tmp_path), "t", 4) is None
        assert "corrupt cache" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", ([1, 2], "x", None))
    def test_payload_not_an_object_is_corrupt(self, tmp_path, capsys, payload):
        path = cache_store(str(tmp_path), "t", 4, [1, 1, 0, 1, 5])
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert cache_load(str(tmp_path), "t", 4) is None
        assert "corrupt cache" in capsys.readouterr().err

    def test_non_string_value_is_corrupt(self, tmp_path, capsys):
        # cache_store writes decimal strings; a number would be truncated by int()
        path = cache_store(str(tmp_path), "t", 4, [1, 1, 0, 1, 5])
        with open(path) as fh:
            payload = json.load(fh)
        payload["values"][3] = 41.9
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert cache_load(str(tmp_path), "t", 4) is None
        assert "corrupt cache" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ("3_0", " 2", "+3", "\u0663"))
    def test_value_int_reads_but_str_never_writes_is_corrupt(self, tmp_path, capsys, value):
        # int() reads each of these as a number, so only the strict check
        # stops a wrong column: the cache warns and the column is recomputed
        path = cache_store(str(tmp_path), "t", 4, [1, 1, 0, 1, 5])
        with open(path) as fh:
            payload = json.load(fh)
        payload["values"][3] = value
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert cache_load(str(tmp_path), "t", 4) is None
        assert "corrupt cache" in capsys.readouterr().err
        code, out, err = run(capsys, "export", "--stat", "t", "--max", "4",
                             "--format", "bfile", "--cache", str(tmp_path), "--order", "4")
        assert (code, out) == (0, "0 1\n1 1\n2 0\n3 1\n4 5\n")
        assert "corrupt cache" in err

    def test_stale_version_ignored(self, tmp_path):
        path = cache_store(str(tmp_path), "t", 4, [9, 9, 9, 9, 9])
        with open(path) as fh:
            payload = json.load(fh)
        payload["version"] = "0.0.0"
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert cache_load(str(tmp_path), "t", 4) is None

    def test_concurrent_misses_share_a_cache(self, tmp_path):
        # four runs that all miss at once: none may fail, and none may leave a
        # temporary or lock file behind
        src = os.path.dirname(os.path.dirname(stanleypf.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cmd = [sys.executable, "-m", "stanleypf", "export", "--stat", "t", "--max", "800",
               "--order", "800", "--format", "bfile", "--cache", str(tmp_path)]
        procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
                 for _ in range(4)]
        results = [proc.communicate(timeout=120) for proc in procs]
        assert [proc.returncode for proc in procs] == [0] * 4, [err for _, err in results]
        outputs = {out for out, _ in results}
        assert len(outputs) == 1
        assert os.listdir(tmp_path) == [f"t-o800-v{stanleypf.__version__}.json"]
        assert cache_load(str(tmp_path), "t", 800) == parse_bfile(outputs.pop())

    def test_cli_uses_cache(self, tmp_path, capsys):
        code, first, _ = run(capsys, "export", "--stat", "t", "--max", "6",
                             "--format", "bfile", "--cache", str(tmp_path), "--order", "30")
        assert code == 0
        cached = cache_load(str(tmp_path), "t", 30)
        assert cached is not None and cached[:7] == [1, 1, 0, 1, 5, 5, 1]
        # poison the cache with recognizable values to prove the reload path
        cache_store(str(tmp_path), "t", 30, list(range(31)))
        code, second, _ = run(capsys, "export", "--stat", "t", "--max", "6",
                              "--format", "bfile", "--cache", str(tmp_path), "--order", "30")
        assert code == 0
        assert second == "0 0\n1 1\n2 2\n3 3\n4 4\n5 5\n6 6\n"

    @pytest.mark.parametrize("blocker", ["cache directory", "cache entry"])
    def test_unwritable_cache_warns_and_still_exports(self, tmp_path, capsys, blocker):
        # a regular file where the cache directory should be, or a directory
        # where the entry should be: the values are still computed and printed
        argv = ["export", "--stat", "t", "--max", "4", "--order", "10"]
        cache = tmp_path / "cache"
        if blocker == "cache directory":
            cache.write_text("")
        else:
            (cache / f"t-o10-v{stanleypf.__version__}.json").mkdir(parents=True)
        _, expected, _ = run(capsys, *argv)
        code, out, err = run(capsys, *argv, "--cache", str(cache))
        assert (code, out) == (0, expected)
        assert f"warning: cannot write to cache {cache}: " in err
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_cache_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STANLEYPF_CACHE", str(tmp_path))
        code, _, _ = run(capsys, "export", "--stat", "u", "--max", "4",
                         "--format", "bfile", "--order", "20")
        assert code == 0
        assert cache_load(str(tmp_path), "u", 20) is not None


class TestEntryPoints:
    def test_no_command_prints_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 2
        assert "usage:" in out

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "stanleypf" in out

    @pytest.mark.parametrize("argv", [
        ["table", "--stats", "p", "--max", "4"],
        ["verify", "--suite", "congruences"],
        ["partition", "--n", "4"],
        ["export", "--stat", "f", "--max", "4"],
    ], ids=lambda argv: argv[0])
    def test_order_past_its_cap_exits_before_any_work(self, capsys, monkeypatch, argv):
        from stanleypf.cli import ORDER_CAP

        def no_work(*args, **kwargs):
            raise AssertionError("a command ran past the order cap")

        monkeypatch.setattr(cli, f"cmd_{argv[0]}", no_work)
        code, out, err = run(capsys, *argv, "--order", str(ORDER_CAP + 1))
        assert (code, out, err) == (2, "", f"error: --order is capped at {ORDER_CAP}, got {ORDER_CAP + 1}\n")

    def test_order_below_two_rejected(self, capsys):
        code, _, err = run(capsys, "table", "--stats", "p", "--max", "1", "--order", "1")
        assert code == 2
        assert "--order" in err

    def test_main_calls_the_handler_the_module_holds_now(self, capsys, monkeypatch):
        # perfbench/tracer.py rebinds cli.cmd_* after import; a handler bound
        # earlier would run untraced
        calls = []

        def stub(args, out):
            calls.append((args.stat, args.max_n))
            return 0

        monkeypatch.setattr(cli, "cmd_export", stub)
        assert run(capsys, "export", "--stat", "t", "--max", "3") == (0, "", "")
        assert calls == [("t", 3)]
