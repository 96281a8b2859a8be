"""Command-line behavior: exact bytes, exit codes, and file-format strictness."""

import gc
import json
import os
import re
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import connjoin
from connjoin import cli, graph_core
from connjoin.cli import format_graft, main, parse_graft
from connjoin.constructive import replay, ConstructionRecipe
from connjoin.decomposition import DecompositionReport, Violation
from connjoin.errors import InternalError, ParseError, TheoremViolationError
from connjoin.graph_core import Graph
from connjoin.tjoin import validate_graft

P3_TEXT = "p graft 3 2\nt 0 2\ne 0 1\ne 1 2\n"


def write(tmp_path, text, name="g.graft"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_format_round_trip():
    g = parse_graft(P3_TEXT)
    assert g.graph.n == 3 and g.terminals == frozenset({0, 2})
    assert format_graft(g) == P3_TEXT
    # comments are skipped and terminals may be empty
    g2 = parse_graft("p graft 2 1\nc hi there\nt\ne 0 1\nc recipe {}\n")
    assert g2.terminals == frozenset()
    assert format_graft(g2) == "p graft 2 1\nt\ne 0 1\n"


def test_format_preserves_edge_order():
    g = validate_graft(Graph(3, [(2, 1), (0, 1), (1, 2)]), {1, 2})
    text = format_graft(g)
    assert text == "p graft 3 3\nt 1 2\ne 2 1\ne 0 1\ne 1 2\n"
    assert format_graft(parse_graft(text)) == text


RUN_EDGES = 100
RUN_LINES = [f"e {v % 6} {v % 6 + 1}" for v in range(RUN_EDGES)]  # 7 vertices
RUN_TEXT = "".join(line + "\n" for line in RUN_LINES)


def after_run(*tail, m=None):
    """A 7-vertex graft file: the ``RUN_LINES`` edge lines, then the
    ``tail`` lines, with m counting every line as an edge unless given."""
    m = RUN_EDGES + len(tail) if m is None else m
    return "\n".join([f"p graft 7 {m}", "t", *RUN_LINES, *tail]) + "\n"


@pytest.mark.parametrize("text,line,fragment", [
    ("", 1, "empty file"),
    ("p graft 3\nt\n", 1, "first line"),
    ("p graft x 0\nt\n", 1, "ASCII decimal"),
    ("p graft 3 0\nt 0 0\n", 2, "repeated"),
    ("p graft 3 0\nt 5\n", 2, "outside"),
    ("p graft 3 1\nt\ne 0 1\ne 1 2\n", 4, "more than 1"),
    ("p graft 3 2\nt\ne 0 1\n", 3, "expected 2 edge lines"),
    ("p graft 3 1\ne 0 1\nt\n", 2, "before the terminal"),
    ("p graft 3 1\nt\nt\ne 0 1\n", 3, "duplicate terminal"),
    ("p graft 3 1\nt\ne 0 1\nt\n", 4, "duplicate terminal"),
    ("p graft 3 1\nt\ne 0\n", 3, "edge lines must be"),
    ("p graft 3 1\nt\ne 0 7\n", 3, "endpoint outside"),
    ("p graft 3 1\nt\ne 0 " + "1" * 40 + "\n", 3, "endpoint outside"),
    ("p graft 3 1\nt\ne 0 x\n", 3, "ASCII decimal"),
    ("p graft 1 0\n", 1, "missing terminal line"),
    ("p graft 3 1\nt\ne 1 1\n", 3, "loop"),
    ("p graft 3 1\nt\ne  0 1\n", 3, "single spaces"),
    ("p graft 3 1\nt\n\ne 0 1\n", 3, "blank"),
    ("p graft 3 1\nt\nq 0 1\n", 3, "unknown directive"),
    ("p graft 3 0\nt 0\n", 2, "odd number of terminals"),
    ("p graft 2 1\nt\r\ne 0 1\n", 2, "carriage"),
    ("p graft 2 1\nt\nc caf\u00e9\ne 0 1\n", 3, "non-ASCII"),
    ("p graft 2 1\nt\ne 0 \u0661\n", 3, "non-ASCII"),  # an Arabic-Indic 1
    # The same rules after 100 well-formed edge lines (lines 3..102), which
    # the reader converts as one run: the bad line is line 103.
    (after_run("e 3 3"), 103, "loop"),
    (after_run("e 3 3", "e 0 1"), 103, "loop"),
    (after_run("e 0 7"), 103, "endpoint outside"),
    (after_run("e 0 7", "e 0 1"), 103, "endpoint outside"),
    (after_run("e  0 1", "e 0 1"), 103, "single spaces"),
    (after_run("e 0 " + "1" * 19), 103, "endpoint outside"),
    (after_run("e 0 " + "1" * 19, "e 0 1"), 103, "endpoint outside"),
    (after_run("", "e 0 1"), 103, "blank"),
    (after_run("e 0 1", m=RUN_EDGES), 103, f"more than {RUN_EDGES}"),
    (after_run(m=RUN_EDGES + 1), 102, f"expected {RUN_EDGES + 1} edge lines"),
    (after_run("t"), 103, "duplicate terminal"),
    (after_run("e 0 x", "e 0 1"), 103, "ASCII decimal"),
])
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse_graft(text)
    assert err.value.line_no == line
    assert fragment in str(err.value)


def parse_line_by_line(text):
    """``parse_graft`` with no edge run read in one go: the per-line rules
    alone."""
    with mock.patch.object(cli, "_EDGE_RUN", re.compile("(?!)")):
        return parse_graft(text)


def parse_outcome(parse, text):
    """The graft, or the error's line and message."""
    try:
        return parse(text)
    except ParseError as exc:
        return exc.line_no, str(exc)


@pytest.mark.parametrize("text", [
    # a comment between edges
    "p graft 7 200\nt 0 6\n" + RUN_TEXT + "c between\n" + RUN_TEXT,
    # the trailing recipe comment that ``generate`` writes
    "p graft 7 100\nt 0 6\n" + RUN_TEXT + 'c recipe {"steps":[]}\n',
    # no final newline
    "p graft 7 100\nt 0 6\n" + RUN_TEXT[:-1],
    "p graft 7 101\nt 0 6\n" + RUN_TEXT + "e 5 6",
    # leading zeros
    "p graft 7 101\nt 0 6\ne 000 0006\n" + RUN_TEXT,
    # parallel edges, in both directions
    "p graft 7 103\nt 0 6\ne 2 3\ne 3 2\ne 2 3\n" + RUN_TEXT,
    # m = 0, with and without a comment
    "p graft 7 0\nt\n",
    "p graft 7 0\nt\nc none\n",
    # comments before the terminal line, edges after a later comment only
    "p graft 7 100\nc a\nc b\nt 0 6\nc c\n" + RUN_TEXT,
])
def test_edge_run_reads_like_the_line_rules(text):
    graft = parse_graft(text)
    assert graft == parse_line_by_line(text)
    assert graft.m == int(text.split("\n", 1)[0].split(" ")[3])


@st.composite
def canonical_texts(draw):
    """A graft file as ``format_graft`` writes it, perhaps with a trailing
    recipe comment, and at most one line replaced or inserted."""
    n = draw(st.integers(1, 8))
    ends = st.integers(0, n - 1)
    edges = [(u, v) for u, v in draw(st.lists(st.tuples(ends, ends), max_size=150))
             if u != v]
    terminals = draw(st.sets(ends))
    if len(terminals) % 2:
        terminals.discard(min(terminals))
    lines = [f"p graft {n} {len(edges)}",
             " ".join(["t", *map(str, sorted(terminals))])]
    lines += [f"e {u} {v}" for u, v in edges]
    if draw(st.booleans()):
        lines.append("c recipe {}")
    mutation = draw(st.sampled_from([
        None, "", "e 1 1", "e 0 9", "e  0 1", "e 0 1 ", "e 0", "e 0 1 2",
        "e 00 01", "e 0 " + "9" * 19, "e 0 x", "c note", "t", "t 0 1", "q"]))
    if mutation is not None:
        at = draw(st.integers(1, len(lines)))
        if at < len(lines) and draw(st.booleans()):
            lines[at] = mutation
        else:
            lines.insert(at, mutation)
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else "")


@settings(max_examples=300, deadline=None)
@given(canonical_texts())
def test_parse_agrees_with_the_line_rules(text):
    assert parse_outcome(parse_graft, text) == parse_outcome(parse_line_by_line, text)


def test_parse_is_linear_in_terminals():
    # a 50,000-vertex path, every vertex a terminal
    n = 50_000
    text = (f"p graft {n} {n - 1}\nt {' '.join(map(str, range(n)))}\n"
            + "".join(f"e {v} {v + 1}\n" for v in range(n - 1)))
    start = time.perf_counter()
    graft = parse_graft(text)
    assert time.perf_counter() - start < 2
    assert len(graft.terminals) == n


def test_check_yes_text(tmp_path, capsys):
    code, out, _ = run(capsys, ["check", write(tmp_path, P3_TEXT)])
    assert code == 0
    assert out == "yes\n0 1\n1 2\ncoverable 0\n"


def test_check_no_text(tmp_path, capsys):
    p5 = "p graft 5 4\nt 0 1 3 4\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n"
    code, out, _ = run(capsys, ["check", write(tmp_path, p5)])
    assert code == 1
    assert out == "no\nreason not-eligible:T_OUTSIDE_INITIAL\n"


def test_check_json(tmp_path, capsys):
    code, out, _ = run(capsys, ["check", write(tmp_path, P3_TEXT),
                                "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"answer": "yes", "root": 0, "join": [0, 1],
                               "coverable": [0]}


def test_check_parse_error_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, ["check", write(tmp_path, "p graft 1 0\nt 0\n")])
    assert code == 2 and out == ""
    assert err.startswith("error: line 2:")


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["check", "/nonexistent/g.graft"])
    assert code == 2 and "error:" in err


def test_solve_text(tmp_path, capsys):
    code, out, _ = run(capsys, ["solve", write(tmp_path, P3_TEXT)])
    assert code == 0
    assert out == "nu 2\n0 1\n1 2\n"


def test_distances_text_and_root(tmp_path, capsys):
    c4 = "p graft 4 4\nt 0 2\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n"
    code, out, _ = run(capsys, ["distances", write(tmp_path, c4)])
    assert code == 0
    assert out == "0 0\n1 -1\n2 -2\n3 -1\n"
    code, out, _ = run(capsys, ["distances", write(tmp_path, c4),
                                "--root", "2", "--format", "json"])
    assert json.loads(out) == {"root": 2, "distances": [-2, -1, 0, -1]}


def test_distances_root_outside_the_graph_exit_2(tmp_path, capsys):
    path = write(tmp_path, "p graft 2 1\nt\ne 0 1\n")
    code, out, err = run(capsys, ["distances", path, "--root", "9"])
    assert (code, out, err) == (2, "", "error: root 9 is outside the graph\n")


def test_distances_unreachable(tmp_path, capsys):
    g = "p graft 3 1\nt 0 1\ne 0 1\n"
    _, out, _ = run(capsys, ["distances", write(tmp_path, g)])
    assert out.splitlines()[2] == "2 unreachable"


def test_decompose_json(tmp_path, capsys):
    code, out, _ = run(capsys, ["decompose", write(tmp_path, P3_TEXT)])
    assert code == 0
    doc = json.loads(out)
    assert doc["root"] == 0
    assert doc["interval"] == [-2, -1, 0]
    assert len(doc["components"]) == 6


def test_verify_ok(tmp_path, capsys):
    code, out, _ = run(capsys, ["verify", write(tmp_path, P3_TEXT)])
    assert code == 0
    assert out == "ok 6\n"
    code, out, _ = run(capsys, ["verify", write(tmp_path, P3_TEXT),
                                "--format", "json"])
    assert json.loads(out)["ok"] is True


def test_verify_prints_one_line_per_violation_and_exits_1(
        tmp_path, capsys, monkeypatch):
    report = DecompositionReport(
        (Violation(4, "strong-comb", "depth contraction is not a strong comb"),),
        6)
    monkeypatch.setattr("connjoin.cli.verify_decomposition",
                        lambda *args: report)
    path = write(tmp_path, P3_TEXT)
    assert run(capsys, ["verify", path]) == (
        1, "violation 4 strong-comb depth contraction is not a strong comb\n",
        "")
    code, out, err = run(capsys, ["verify", path, "--format", "json"])
    assert (code, err) == (1, "")
    assert out == json.dumps({
        "components_checked": 6, "ok": False, "violations": [
            {"check": "strong-comb", "component_id": 4,
             "message": "depth contraction is not a strong comb"}]},
        indent=2) + "\n"


@pytest.mark.parametrize("error", [InternalError, TheoremViolationError])
@pytest.mark.parametrize("command,target", [
    ("check", "connjoin.cli.decide"),
    ("decompose", "connjoin.cli.distance_decomposition"),
])
def test_library_faults_are_internal_errors_exit_2(
        tmp_path, capsys, monkeypatch, error, command, target):
    def fail(*args, **kwargs):
        raise error("a broken invariant")
    monkeypatch.setattr(target, fail)
    assert run(capsys, [command, write(tmp_path, P3_TEXT)]) == (
        2, "", "internal error: a broken invariant\n")


def test_oracle_json(tmp_path, capsys):
    code, out, _ = run(capsys, ["oracle", write(tmp_path, P3_TEXT)])
    assert code == 0
    assert json.loads(out) == {"nu": 2, "min_joins": [[0, 1]],
                               "has_connected": True, "coverable": [0, 1, 2]}


def test_oracle_scale_guard_exit_2(tmp_path, capsys):
    lines = ["p graft 2 21", "t 0 1"] + ["e 0 1"] * 21
    code, _, err = run(capsys, ["oracle",
                                write(tmp_path, "\n".join(lines) + "\n")])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("kind", ["rake", "primal", "tailed"])
def test_generate_deterministic_and_yes(tmp_path, capsys, kind):
    code, out1, _ = run(capsys, ["generate", kind, "--seed", "5", "--depth", "2"])
    assert code == 0
    _, out2, _ = run(capsys, ["generate", kind, "--seed", "5", "--depth", "2"])
    assert out1 == out2  # byte-identical
    _, out3, _ = run(capsys, ["generate", kind, "--seed", "6", "--depth", "2"])
    assert out1 != out3
    path = write(tmp_path, out1, "gen.graft")
    code, out, _ = run(capsys, ["check", path])
    assert code == 0 and out.startswith("yes\n")
    # the emitted recipe comment replays to the same graft
    recipe_line = [ln for ln in out1.splitlines() if ln.startswith("c recipe ")]
    doc = json.loads(recipe_line[0][len("c recipe "):])
    replayed = replay(ConstructionRecipe.from_json(doc))
    graft = parse_graft(out1)
    assert replayed.graph.edges == graft.graph.edges
    assert replayed.terminals == graft.terminals


def test_generate_out_files(tmp_path, capsys):
    base = str(tmp_path / "inst")
    code, out, _ = run(capsys, ["generate", "rake", "--seed", "1",
                                "--out", base])
    assert code == 0 and out == ""
    text = (tmp_path / "inst.graft").read_text()
    doc = json.loads((tmp_path / "inst.recipe.json").read_text())
    assert parse_graft(text).graph.edges == replay(
        ConstructionRecipe.from_json(doc)).graph.edges


def test_generate_json_format(capsys):
    code, out, _ = run(capsys, ["generate", "rake", "--seed", "2",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert parse_graft(doc["file"]).terminals == replay(
        ConstructionRecipe.from_json(doc["recipe"])).terminals


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(P3_TEXT))
    code, out, _ = run(capsys, ["check", "-"])
    assert code == 0 and out.startswith("yes\n")


@pytest.mark.parametrize("comment", [b"caf\xc3\xa9", b"\xff"])
def test_non_ascii_bytes_are_a_parse_error_from_file_and_stdin(tmp_path, comment):
    # UTF-8 and undecodable bytes alike; stdin's decoder is pinned to strict,
    # the least forgiving one a locale can give it
    data = b"p graft 2 1\nt\nc " + comment + b"\ne 0 1\n"
    path = tmp_path / "g.graft"
    path.write_bytes(data)
    src = os.path.dirname(os.path.dirname(connjoin.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8:strict")
    for target, stdin in ((str(path), None), ("-", data)):
        proc = subprocess.run([sys.executable, "-m", "connjoin.cli", "check", target],
                              input=stdin, env=env, capture_output=True)
        assert proc.returncode == 2 and proc.stdout == b""
        assert proc.stderr == b"error: line 3: non-ASCII characters are not allowed\n"


OVERLONG = "1" * 5000  # past the default limit of int() on a decimal string


@pytest.mark.parametrize("text, line, what", [
    (f"p graft {OVERLONG} 1\nt\n", 1, "vertex count"),
    (f"p graft 2 {OVERLONG}\nt\n", 1, "edge count"),
    (f"p graft 2 0\nt {OVERLONG}\n", 2, "terminal"),
    (f"p graft 2 1\nt\ne 0 {OVERLONG}\n", 3, "endpoint"),
])
def test_overlong_numbers_are_a_parse_error_from_file_and_stdin(
        tmp_path, text, line, what):
    path = tmp_path / "g.graft"
    path.write_text(text)
    src = os.path.dirname(os.path.dirname(connjoin.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONINTMAXSTRDIGITS="4300")
    for target, stdin in ((str(path), None), ("-", text.encode())):
        proc = subprocess.run([sys.executable, "-m", "connjoin.cli", "check", target],
                              input=stdin, env=env, capture_output=True)
        assert proc.returncode == 2 and proc.stdout == b""
        assert proc.stderr == (f"error: line {line}: {what} is too long "
                               f"(5000 digits)\n").encode()


def test_main_reuses_its_parser_like_a_fresh_one(tmp_path, capsys):
    path = write(tmp_path, P3_TEXT)
    code, out, _ = run(capsys, ["check", "--root", "2", "--format", "json", path])
    assert code == 0 and json.loads(out)["root"] == 2
    code, out, _ = run(capsys, ["check", "--format", "json", path])
    assert code == 0 and json.loads(out)["root"] == 0  # the default is back
    with pytest.raises(SystemExit) as exc:
        main(["check", "--root", "x", path])
    assert exc.value.code == 2 and "invalid int value" in capsys.readouterr().err
    code, out, _ = run(capsys, ["check", path])
    assert code == 0 and out == "yes\n0 1\n1 2\ncoverable 0\n"


JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=-2**100, max_value=2**100)
                | st.floats() | st.text()
                | st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f\n\t",
                                   "é☃\U0001f600", 'a "b" \\c']))
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner)
                   | st.dictionaries(st.integers(), inner)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(JSON_DOCS)
@example({"b": [[], {}, [-1, 2**70], [True, None, 0]], "a": "\x01é\"\\",
          "c": {"d": (1.5, False)}, "e": {1: "x"}})
def test_json_text_matches_the_standard_library(doc):
    # the writer behind every JSON output: the same text, in C-encoded pieces
    assert cli._json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


P4_TEXT = "p graft 4 3\nt 0 3\ne 0 1\ne 1 2\ne 2 3\n"
PATH_600_TEXT = "p graft 600 599\nt 0 599\n" + "".join(
    f"e {v} {v + 1}\n" for v in range(599))


def cyclic_garbage(argv):
    """The objects that ``main(argv)`` leaves for the cyclic collector."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main(argv)
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", [
    "check", "solve", "distances", "decompose", "verify", "oracle",
    "generate rake", "generate primal", "generate tailed", "parse-error"])
def test_commands_leave_no_connjoin_cycles(tmp_path, command, fmt):
    # main runs with the cyclic collector paused, which is safe only while
    # reference counting frees everything a command makes: so no object may
    # sit in a cycle, a connjoin one or the JSON writer's
    main(["generate", "rake"])  # argparse's one-time parser build makes cycles
    if command.startswith("generate"):
        small = command.split() + ["--depth", "1"]
        large = command.split() + ["--depth", "4", "--seed", "3"]
    elif command == "parse-error":
        small = ["check", write(tmp_path, P4_TEXT + "x\n", "small.graft")]
        large = ["check", write(tmp_path, PATH_600_TEXT + "x\n", "large.graft")]
    else:
        small = [command, write(tmp_path, P4_TEXT, "small.graft")]
        large = [command, write(tmp_path, PATH_600_TEXT, "large.graft")]
    for argv in ([small] if command == "oracle" else [small, large]):
        garbage = cyclic_garbage(argv + ["--format", fmt])
        assert garbage == []


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case,text,outcome", [
    pytest.param(case, text, outcome, id=case) for case, text, outcome in [
        ("exit-0", P3_TEXT, 0),
        ("exit-1", "p graft 5 4\nt 0 1 3 4\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n", 1),
        ("parse-error", "p graft 1 0\nt 0\n", 2),
        ("missing-file", None, 2),
        ("unknown-command", None, SystemExit),
        ("raises", P3_TEXT, RuntimeError),
    ]])
def test_main_restores_the_callers_collector_state(
        tmp_path, monkeypatch, enabled, case, text, outcome):
    paused = []
    real = connjoin.cli.decide

    def decide(*args, **kwargs):
        paused.append(not gc.isenabled())
        if case == "raises":
            raise RuntimeError("a fault outside the reported errors")
        return real(*args, **kwargs)

    monkeypatch.setattr(connjoin.cli, "decide", decide)
    if case == "unknown-command":
        argv = ["frobnicate"]
    elif case == "missing-file":
        argv = ["check", str(tmp_path / "missing.graft")]
    else:
        argv = ["check", write(tmp_path, text)]
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if isinstance(outcome, int):
            assert main(argv) == outcome
        else:
            with pytest.raises(outcome):
                main(argv)
        after = gc.isenabled()
    finally:
        (gc.enable if before else gc.disable)()
    assert after is enabled
    reached = text is not None and case != "parse-error"  # the file parsed
    assert paused == ([True] if reached else [])


def test_check_explicit_root(tmp_path, capsys):
    code, out, _ = run(capsys, ["check", write(tmp_path, P3_TEXT),
                                "--root", "2"])
    assert code == 0
    assert out == "yes\n0 1\n1 2\ncoverable 2\n"
    code, _, err = run(capsys, ["check", write(tmp_path, P3_TEXT),
                                "--root", "1"])
    assert code == 2 and "must be a terminal" in err


@pytest.mark.parametrize("text", ["p graft 4 2\nt 0 1 2 3\ne 0 1\ne 2 3\n",
                                  "p graft 2 1\nt\ne 0 1\n"],
                         ids=["split-T", "empty-T"])
def test_check_rejects_a_non_terminal_root_first(tmp_path, capsys, text):
    code, out, err = run(capsys, ["check", write(tmp_path, text), "--root", "99"])
    assert (code, out, err) == (2, "", "error: root 99 must be a terminal\n")


@pytest.mark.parametrize("command", ["distances", "decompose", "verify"])
def test_no_vertex_to_root_at(tmp_path, capsys, command):
    code, out, err = run(capsys, [command, write(tmp_path, "p graft 0 0\nt\n")])
    assert (code, out) == (2, "")
    assert err == "error: the graph has no vertex to root at\n"


@pytest.mark.parametrize("command", ["check", "solve", "distances", "decompose"])
def test_one_component_pass_per_command(tmp_path, capsys, monkeypatch, command):
    # parse validation, the solve and the split-T test all read the graft's
    # one pass; a terminal-free component rides along
    calls = []
    real = graph_core.connected_components

    def counted(graph):
        calls.append(graph)
        return real(graph)

    for name, module in list(sys.modules.items()):
        if (name == "connjoin" or name.startswith("connjoin.")) and \
                getattr(module, "connected_components", None) is real:
            monkeypatch.setattr(module, "connected_components", counted)
    text = "p graft 5 3\nt 0 2\ne 0 1\ne 1 2\ne 3 4\n"
    code, _, err = run(capsys, [command, write(tmp_path, text)])
    assert code == 0 and err == ""
    assert len(calls) == 1
