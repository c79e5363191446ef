import importlib
import importlib.util
import json
import random
import re
import shlex
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from avec import cli
from avec.bounds import analyze, audit_balls
from avec.certificate import _PAIR, _list, _pieces, _rows
from avec.generators import ChainSpec, chain, reiman
from avec.graph import line_graph
from avec.io import MAX_ORDER, format_edgelist, parse_edgelist, read_graph
from avec.errors import ConstructionInvariantViolated, OutOfRange
from avec.replay import replay
from test_tracer_names import TINY
from util import argparse_oracle, audit_json_oracle, shuffle_labels, thin, trace_json_oracle

# The CLI imports each function from its module when a verb runs, so a
# fault is injected on the module that defines the function.
BOUNDS_MODULE = importlib.import_module("avec.bounds")
REPLAY_MODULE = importlib.import_module("avec.replay")


def run(argv):
    return cli.main(argv)


class TestGen:
    def test_reiman_to_file_with_meta(self, tmp_path, capsys):
        out = tmp_path / "h2.txt"
        assert run(["gen", "reiman", "--q", "2", "--out", str(out)]) == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["construction"] == "reiman" and meta["n"] == 14
        assert read_graph(out) == reiman(2).graph

    def test_reiman_stdout_edgelist(self, capsys):
        assert run(["gen", "reiman", "--q", "2"]) == 0
        text = capsys.readouterr().out
        assert parse_edgelist(text) == reiman(2).graph

    def test_chain_stdout_graph6(self, capsys):
        assert run(["gen", "chain", "--delta", "3", "--ell", "2",
                    "--format", "graph6"]) == 0
        line = capsys.readouterr().out.strip()
        from avec.io import from_graph6

        assert from_graph6(line) == chain(ChainSpec(3, 2)).graph

    def test_chain_with_head_file(self, tmp_path, capsys):
        head_path = tmp_path / "head.txt"
        head_path.write_text(format_edgelist(reiman(2).graph))
        out = tmp_path / "c.txt"
        assert run(["gen", "chain", "--delta", "3", "--ell", "2",
                    "--head", str(head_path), "--out", str(out)]) == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["head"] == "custom"
        # head file's first edge is the default designated edge, so
        # the result coincides with the default chain
        assert read_graph(out) == chain(ChainSpec(3, 2)).graph

    def test_edgeless_head_file_is_usage_error(self, tmp_path, capsys):
        head_path = tmp_path / "head.txt"
        head_path.write_text("4 0\n")
        assert run(["gen", "chain", "--delta", "3", "--ell", "2",
                    "--head", str(head_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: head file {head_path} has no edges\n"

    def test_bad_q_is_usage_error(self, capsys):
        assert run(["gen", "reiman", "--q", "6"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["reiman", "--q", "724"],
        ["reiman", "--q", "1000000007"],
        ["chain", "--delta", "3", "--ell", "74900"],
        ["chain", "--delta", "1000", "--ell", "2"],
    ])
    def test_order_above_limit_is_usage_error(self, argv, capsys):
        assert run(["gen", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "MAX_ORDER" in captured.err
        assert len(captured.err.splitlines()) == 1


class TestAnalyze:
    def test_json_default(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        run(["gen", "reiman", "--q", "2", "--out", str(path)])
        capsys.readouterr()
        assert run(["analyze", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["avec"] == {"num": 42, "den": 14}
        assert doc["violations"] == []

    def test_csv(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        run(["gen", "chain", "--delta", "3", "--ell", "2", "--out", str(path)])
        capsys.readouterr()
        assert run(["analyze", str(path), "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("n,delta,max_degree,ell,")
        assert lines[1].startswith("28,3,4,,166,28,")

    def test_missing_file(self, tmp_path, capsys):
        assert run(["analyze", str(tmp_path / "nope.txt")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_ascii_file(self, tmp_path, capsys):
        path = tmp_path / "f"
        path.write_bytes(b"\xff")
        assert run(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not ASCII" in err
        assert len(err.splitlines()) == 1

    def test_repeated_edge_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("4 3\n0 1\n1 2\n2 1\n")
        assert run(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "distinct" in err
        assert len(err.splitlines()) == 1

    def test_graph6_on_two_lines_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "g.g6"
        path.write_text("Dhc\nDhc\n")
        assert run(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "more than one line" in err
        assert len(err.splitlines()) == 1

    def test_order_above_limit_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text(f"{MAX_ORDER + 1} 0\n")
        assert run(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "MAX_ORDER" in err
        assert len(err.splitlines()) == 1

    def test_violation_exit_code(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "g.txt"
        run(["gen", "reiman", "--q", "2", "--out", str(path)])
        capsys.readouterr()
        real = analyze

        def faulty(g, chain_params=None):
            return real(g, chain_params)._replace(violations=("girth6_T31",))

        monkeypatch.setattr(BOUNDS_MODULE, "analyze", faulty)
        assert run(["analyze", str(path)]) == 1


class TestAudit:
    def test_pass(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        run(["gen", "reiman", "--q", "2", "--out", str(path)])
        capsys.readouterr()
        assert run(["audit", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True

    def test_not_applicable_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "k4.txt"
        path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        assert run(["audit", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fail_exit_code(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "g.txt"
        run(["gen", "reiman", "--q", "2", "--out", str(path)])
        capsys.readouterr()
        real = audit_balls
        monkeypatch.setattr(
            BOUNDS_MODULE, "audit_balls",
            lambda g: real(g)._replace(passed=False),
        )
        assert run(["audit", str(path)]) == 1


def _thinned_reiman7():
    rng = random.Random(7)
    g = reiman(7).graph
    return shuffle_labels(thin(g, rng, g.m // 5), rng)


AUDIT_GRAPHS = {
    # girth 6: edge balls by the degree identity
    "chain3_4": lambda: chain(ChainSpec(3, 4)).graph,
    # triangles: every edge ball is searched
    "line_reiman2": lambda: line_graph(reiman(2).graph)[0],
    # triangles and unequal edge balls
    "thinned_line_reiman2": lambda: thin(line_graph(reiman(2).graph)[0], random.Random(0), 6),
    # several degrees, float vertex bounds, labels out of order
    "thinned_reiman7": _thinned_reiman7,
}


class TestAuditWriter:
    """`avec audit` prints the bytes of one `json.dumps(doc, indent=2)`."""

    @pytest.mark.parametrize("name", sorted(AUDIT_GRAPHS))
    def test_matches_oracle(self, name, tmp_path, capsys):
        g = AUDIT_GRAPHS[name]()
        path = tmp_path / "g.txt"
        path.write_text(format_edgelist(g))
        assert run(["audit", str(path)]) == 0
        assert capsys.readouterr().out == audit_json_oracle(audit_balls(read_graph(path)))

    def test_cases_cover_what_they_claim(self):
        record = audit_balls(AUDIT_GRAPHS["thinned_line_reiman2"]())
        assert not record.girth_class
        assert len({i.size for i in record.items if i.check.startswith("edge")}) > 1
        g = _thinned_reiman7()
        assert g.min_degree() < g.max_degree()
        record = audit_balls(g)
        assert record.girth_class
        assert any(isinstance(i.bound, float) for i in record.items)

    @pytest.mark.parametrize("count", [8192, 8193, 2 * 8192 + 1])
    def test_long_item_lists_match_oracle(self, count, tmp_path, capsys, monkeypatch):
        path = tmp_path / "g.txt"
        path.write_text(format_edgelist(_thinned_reiman7()))
        real = audit_balls(read_graph(path))
        items = tuple(real.items)
        reps = -(-count // len(items))
        record = real._replace(items=(items * reps)[:count])
        monkeypatch.setattr(BOUNDS_MODULE, "audit_balls", lambda g: record)
        assert run(["audit", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == audit_json_oracle(record)
        assert len(json.loads(out)["items"]) == count


class TestReplay:
    def test_girth6_with_trace(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        run(["gen", "chain", "--delta", "3", "--ell", "4", "--out", str(path)])
        capsys.readouterr()
        trace_path = tmp_path / "trace.json"
        assert run(["replay", str(path), "--variant", "girth6",
                    "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "overall: pass"
        doc = json.loads(trace_path.read_text())
        assert doc["overall_pass"] is True

    def test_maxdeg_default_anchor(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        run(["gen", "chain", "--delta", "3", "--ell", "2", "--out", str(path)])
        capsys.readouterr()
        assert run(["replay", str(path), "--variant", "maxdeg"]) == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert "anchor=8" in head

    def test_invalid_input_graph(self, tmp_path, capsys):
        path = tmp_path / "c6.txt"
        path.write_text("6 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n")
        assert run(["replay", str(path), "--variant", "girth6"]) == 2

    def test_maxdeg_on_empty_graph_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n")
        assert run(["replay", str(path), "--variant", "maxdeg"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at least one vertex" in err
        assert len(err.splitlines()) == 1

    def test_girth6_rejects_anchor(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        run(["gen", "chain", "--delta", "3", "--ell", "2", "--out", str(path)])
        capsys.readouterr()
        assert run(["replay", str(path), "--variant", "girth6", "--anchor", "-7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "anchor" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_failed_check_exit_code(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "g.txt"
        run(["gen", "chain", "--delta", "3", "--ell", "2", "--out", str(path)])
        capsys.readouterr()
        real = replay
        monkeypatch.setattr(
            REPLAY_MODULE, "replay",
            lambda g, v, a=None: real(g, v, a)._replace(overall_pass=False),
        )
        assert run(["replay", str(path), "--variant", "girth6"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "overall: FAIL"

    def test_bad_trace_path_fails_before_the_replay(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "g.txt"
        run(["gen", "chain", "--delta", "3", "--ell", "2", "--out", str(path)])
        capsys.readouterr()

        def no_replay(*args):
            raise AssertionError("replay ran")

        monkeypatch.setattr(REPLAY_MODULE, "replay", no_replay)
        trace_path = tmp_path / "missing" / "t.json"
        assert run(["replay", str(path), "--variant", "girth6",
                    "--trace", str(trace_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and str(trace_path) in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "exc, code",
        [(ConstructionInvariantViolated("bad tree"), 1), (OutOfRange("bad degree"), 2)],
    )
    def test_failed_replay_leaves_no_trace_file(self, exc, code, tmp_path, capsys, monkeypatch):
        path = tmp_path / "g.txt"
        run(["gen", "chain", "--delta", "3", "--ell", "2", "--out", str(path)])

        def failing(*args):
            raise exc

        monkeypatch.setattr(REPLAY_MODULE, "replay", failing)
        fresh = tmp_path / "fresh.json"
        kept = tmp_path / "kept.json"
        kept.write_text("an older trace\n")
        for trace_path in (fresh, kept):
            capsys.readouterr()
            assert run(["replay", str(path), "--variant", "girth6",
                        "--trace", str(trace_path)]) == code
            assert capsys.readouterr().err.startswith("error:")
        assert not fresh.exists()
        assert kept.read_text() == "an older trace\n"

    def test_trace_replaces_a_longer_file(self, tmp_path, capsys):
        g = chain(ChainSpec(3, 2)).graph
        path = tmp_path / "g.txt"
        path.write_text(format_edgelist(g))
        trace_path = tmp_path / "t.json"
        trace_path.write_text("x" * 100000)
        assert run(["replay", str(path), "--variant", "girth6",
                    "--trace", str(trace_path)]) == 0
        doc = trace_json_oracle(replay(g, "girth6"))
        assert trace_path.read_text() == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("exc", [OSError(28, "No space left on device"), MemoryError()])
    def test_failed_trace_write_leaves_no_new_file(self, exc, tmp_path, capsys, monkeypatch):
        # The writer fails after its first piece, as a full disk or an
        # exhausted heap would part-way through a large trace.
        path = tmp_path / "g.txt"
        path.write_text(format_edgelist(chain(ChainSpec(3, 2)).graph))

        def broken(trace, fh):
            fh.write("{")
            raise exc

        monkeypatch.setattr(REPLAY_MODULE, "trace_json", broken)
        trace_path = tmp_path / "t.json"
        assert run(["replay", str(path), "--variant", "girth6",
                    "--trace", str(trace_path)]) == 2
        captured = capsys.readouterr()
        assert not trace_path.exists()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    def test_missing_variant_usage(self, tmp_path):
        path = tmp_path / "g.txt"
        run(["gen", "chain", "--delta", "3", "--ell", "2", "--out", str(path)])
        with pytest.raises(SystemExit) as exc:
            run(["replay", str(path)])
        assert exc.value.code == 2


class TestSweep:
    def test_basic(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        assert run(["sweep", "--family", "chain", "--delta", "3",
                    "--ell-range", "2..4", "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "chain delta=3 ell=2" in out and "chain delta=3 ell=4" in out
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("n,delta,")
        assert lines[1].startswith("28,3,4,2,")
        assert lines[2].startswith("56,3,4,4,")

    def test_bad_range(self, tmp_path, capsys):
        assert run(["sweep", "--family", "chain", "--delta", "3",
                    "--ell-range", "4..2", "--csv", str(tmp_path / "s.csv")]) == 2
        assert run(["sweep", "--family", "chain", "--delta", "3",
                    "--ell-range", "x..y", "--csv", str(tmp_path / "s.csv")]) == 2
        # str.isdigit accepts "²", which int() rejects
        assert run(["sweep", "--family", "chain", "--delta", "3",
                    "--ell-range", "²..4", "--csv", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("ell_range", ["2..74900", "2..1000000000000000"])
    def test_largest_chain_above_limit(self, ell_range, tmp_path, capsys):
        # rejected before the first chain is generated or printed
        csv_path = tmp_path / "s.csv"
        assert run(["sweep", "--family", "chain", "--delta", "3",
                    "--ell-range", ell_range, "--csv", str(csv_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "MAX_ORDER" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert not csv_path.exists()

    def test_bad_csv_path_fails_before_any_row(self, tmp_path, capsys):
        csv_path = tmp_path / "missing" / "s.csv"
        assert run(["sweep", "--family", "chain", "--delta", "3",
                    "--ell-range", "2..4", "--csv", str(csv_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and str(csv_path) in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_bad_delta_leaves_the_csv_alone(self, tmp_path, capsys):
        # delta - 1 = 6 is refused before the CSV file is opened
        old, missing = tmp_path / "old.csv", tmp_path / "missing.csv"
        old.write_bytes(b"kept\n")
        for csv_path in (old, missing):
            assert run(["sweep", "--family", "chain", "--delta", "7",
                        "--ell-range", "2..4", "--csv", str(csv_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: delta - 1 = 6 is not a prime power\n"
        assert old.read_bytes() == b"kept\n"
        assert not missing.exists()

    def test_no_even_ell(self, tmp_path):
        assert run(["sweep", "--family", "chain", "--delta", "3",
                    "--ell-range", "3..3", "--csv", str(tmp_path / "s.csv")]) == 2


ROOT = Path(__file__).resolve().parent.parent


def readme_command_lines():
    """The `avec ...` lines of README's shell blocks, as argument lists."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.splitlines():
            if line.startswith("avec "):
                yield shlex.split(line, comments=True)[1:]


def benchmark_command_lines(monkeypatch):
    """Every command of the benchmark's workloads, set-up included."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("avec_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for w in workloads.WORKLOADS.values():
        for cmd in w.setup + w.timed:
            yield list(cmd.args)


#: Valid command lines that the README, the benchmark and the traced
#: runs leave out.
MORE_COMMAND_LINES = [
    ["gen", "reiman", "--q", "3", "--q", "2"],
    ["gen", "chain", "--ell", "2", "--delta", "3", "--format", "edgelist"],
    ["analyze", "g.el"],
    ["analyze", "--csv", "--csv", "g.el"],
    ["replay", "g.el", "--variant", "maxdeg", "--anchor", "-7"],
    ["replay", "-", "--variant=girth6", "--trace", "-"],
    ["audit", "g.el"],
]


def spellings(argv):
    """argv, with its options and positionals in reverse order, and with
    every option that takes a value spelled --name=value."""
    words = 2 if argv[0] == "gen" else 1
    options = cli.VERBS[" ".join(argv[:words])][3]
    groups, tokens = [], iter(argv[words:])
    for token in tokens:
        takes_value = token in options and options[token][0] is not bool
        groups.append([token, next(tokens)] if takes_value else [token])
    yield argv
    yield argv[:words] + [t for g in reversed(groups) for t in g]
    yield argv[:words] + ["=".join(g) if g[0].startswith("--") else g[0] for g in groups]


def without_verb(args):
    return {k: v for k, v in vars(args).items() if k not in ("func", "command", "family")}


class TestParser:
    """`cli.parse_args` against the argparse parser it replaced
    (`util.argparse_oracle`), and its one-line usage errors."""

    def test_same_values_as_argparse(self, monkeypatch):
        lines = [*readme_command_lines(), *benchmark_command_lines(monkeypatch)]
        lines += [list(args) for cmds in TINY.values() for args in cmds]
        assert len(lines) > 30
        lines += MORE_COMMAND_LINES
        verbs = {" ".join(argv[: 2 if argv[0] == "gen" else 1]) for argv in lines}
        assert verbs == set(cli.VERBS)
        oracle = argparse_oracle()
        for argv in lines:
            for spelling in spellings(argv):
                want = oracle.parse_args(spelling)
                got = cli.parse_args(spelling)
                assert without_verb(got) == without_verb(want), spelling
                assert got.func is want.func

    def test_spellings_reorder_and_join(self):
        assert list(spellings(["analyze", "x", "--csv"])) == [
            ["analyze", "x", "--csv"], ["analyze", "--csv", "x"], ["analyze", "x", "--csv"],
        ]
        assert list(spellings(["gen", "reiman", "--q", "2", "--out", "r"])) == [
            ["gen", "reiman", "--q", "2", "--out", "r"],
            ["gen", "reiman", "--out", "r", "--q", "2"],
            ["gen", "reiman", "--q=2", "--out=r"],
        ]

    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate"],
        ["gen"],
        ["gen", "cycle", "--n", "5"],
        ["replay", "g.el"],
        ["gen", "reiman", "--q", "x"],
        ["replay", "g.el", "--variant", "foo"],
        ["analyze", "g.el", "--json", "--csv"],
        ["audit", "g.el", "--verbose"],
        ["gen", "reiman", "--q"],
        ["analyze"],
        ["analyze", "g.el", "h.el"],
        ["gen", "chain", "--del", "3", "--ell", "2"],
        ["analyze", "g.el", "--csv=yes"],
        ["sweep", "--family", "chain", "--delta", "3", "--csv", "s.csv"],
        ["replay", "g.el", "--variant", "girth6", "-x"],
        ["audit", "g.el", "--no\nsuch"],
    ], ids=repr)
    def test_usage_error_is_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1, captured.err

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["-h"],
        ["gen", "chain", "--help"],
        ["replay", "g.el", "--variant", "foo", "-h"],
    ])
    def test_help_anywhere(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out == cli.help_text() and captured.err == ""

    def test_help_names_every_verb_and_option(self):
        text = cli.help_text()
        for verb, (_, _, _, options) in cli.VERBS.items():
            assert f"\navec {verb} " in text
            for flag in options:
                assert f"\n    {flag} " in text, flag
        assert "exclude each other" not in text

    def test_analyze_has_no_json_option(self, capsys):
        # JSON is what analyze prints without --csv; there is no flag for it
        with pytest.raises(SystemExit) as exc:
            run(["analyze", "g.el", "--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: avec analyze has no option '--json'\n"


class TestEntry:
    def test_no_args_usage(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_out_of_memory_is_one_error_line(self, monkeypatch, capsys):
        # A graph6 line of a large graph can exhaust memory; the run ends
        # with one line and exit 2, not a traceback.  No real allocation:
        # the encoder is patched to raise.
        def exhausted(g):
            raise MemoryError

        monkeypatch.setattr("avec.io.to_graph6", exhausted)
        assert run(["gen", "reiman", "--q", "2", "--format", "graph6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"
        assert "Traceback" not in captured.err

    def test_entry_raises_system_exit(self, monkeypatch, tmp_path):
        path = tmp_path / "g.txt"
        run(["gen", "reiman", "--q", "2", "--out", str(path)])
        monkeypatch.setattr("sys.argv", ["avec", "analyze", str(path)])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 0


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
)
_INTS = st.integers(min_value=-(10**30), max_value=10**30)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS | st.lists(st.integers(min_value=-300, max_value=300), max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=25,
)


class TestTraceWriter:
    """The trace writer's pieces join to json.dumps(doc, indent=2); the
    pinned traces of tests/test_replay_digests.py check it on real
    traces, floats and nulls included, through the CLI."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.dictionaries(st.text(max_size=4), _JSON_DOCS, max_size=4))
    def test_pieces_equal_json_dumps(self, doc):
        assert "".join(_pieces(doc)) == json.dumps(doc, indent=2)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.lists(_INTS, max_size=5),
        st.lists(st.tuples(_INTS, _INTS), max_size=4),
        st.integers(min_value=0, max_value=4).flatmap(
            lambda k: st.lists(st.lists(_INTS, min_size=k, max_size=k), max_size=4)
        ),
    )
    def test_int_lists_pairs_and_rows_equal_json_dumps(self, ints, pairs, rows):
        doc = {"a": {"ints": ints, "pairs": [list(p) for p in pairs], "rows": rows}}
        written = {"a": {
            "ints": _list(ints),
            "pairs": _list(pairs, _PAIR),
            "rows": lambda pad: _rows(iter(rows), pad),
        }}
        assert "".join(_pieces(written)) == json.dumps(doc, indent=2)
