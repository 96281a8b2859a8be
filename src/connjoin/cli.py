"""Batch command-line front end.

Reads grafts from a tiny line-oriented file format, runs the library, and
prints text or JSON reports.  One file per invocation; exit status 0 means
yes/clean, 1 means no/violations, 2 means a malformed input or a guard.

File format (ASCII only, LF line endings, single spaces, decimals)::

    p graft <n> <m>
    t <v> <v> ...
    e <u> <v>          (m times)
    c <anything>       (ignored, allowed anywhere after line 1)

The ``t`` line may be a bare ``t`` for an empty terminal set and must
appear before the first edge line.

The commands run the library's stages on what the one before proved:
``distances`` only the distances stage, which reads no join; ``decompose``
and ``verify`` distances, sweep and numbering on the join that
``minimum_join`` or ``optimum_join`` proved as it realized it.

Each command runs with the cyclic garbage collector paused and leaves it as
the caller had it: no command leaves a connjoin object in a reference cycle,
so reference counting frees everything it makes
(``tests/test_cli.py::test_commands_leave_no_connjoin_cycles``).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import operator
import random
import re
import sys
from typing import Iterable

from .connected_join import decide
from .constructive import gen_primal, gen_rake, gen_tailed
from .decomposition import _number, _sweep, verify_decomposition
from .distances import _distances
from .errors import (InternalError, NoJoinError, OracleScaleError, ParseError,
                     StructuralInputError, TheoremViolationError)
from .graph_core import Graph
from .oracle import oracle_report
from .tjoin import Graft, minimum_join, optimum_join, validate_graft

__all__ = ["parse_graft", "format_graft", "main"]


def _int_token(token: str, line_no: int, what: str) -> int:
    if not token.isdigit():  # the text is ASCII by now
        raise ParseError(line_no, f"{what} must be an ASCII decimal, got {token!r}")
    try:
        return int(token)
    except ValueError:  # longer than the interpreter converts
        raise ParseError(line_no, f"{what} is too long ({len(token)} digits)") from None


# A run of edge lines, each ending in a newline, in the file's exact spelling.
_EDGE_RUN = re.compile(r"(?:e [0-9]+ [0-9]+\n)+")


def _edge_run(run: str, n: int, m: int) -> list[tuple[int, int]] | None:
    """The edges of ``run``, edge lines that open the edge block, if they
    keep every per-line rule; else None."""
    tokens = run.split()
    try:
        us, vs = list(map(int, tokens[1::3])), list(map(int, tokens[2::3]))
    except ValueError:  # a token longer than the interpreter converts
        return None
    if (len(us) > m or max(us) >= n or max(vs) >= n
            or any(map(operator.eq, us, vs))):
        return None
    return list(zip(us, vs))


def parse_graft(text: str) -> Graft:
    """Parse the graft file format, strictly.

    Unknown directives, bad counts, out-of-range or repeated vertices,
    loops, and odd terminal parity are all rejected with the offending
    line number.

    One loop reads every line after line 1 by the per-line rules.  Past the
    terminal line and before any edge, it first converts the run of
    well-formed edge lines starting there in one go (one regex match, one
    split, C-level range and loop checks).  A run that breaks a rule is
    read line by line, and its first line is an edge the rules take or
    reject, so no run is tried twice and only the per-line rules name an
    error line.
    """
    if "\r" in text:
        raise ParseError(text[: text.index("\r")].count("\n") + 1,
                         "carriage returns are not allowed (LF endings only)")
    if not text.isascii():
        bad = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise ParseError(text[:bad].count("\n") + 1,
                         "non-ASCII characters are not allowed")
    if not text:
        raise ParseError(1, "empty file")

    end = text.find("\n")
    first = text if end == -1 else text[:end]
    head = first.split(" ")
    if len(head) != 4 or head[0] != "p" or head[1] != "graft":
        raise ParseError(1, "first line must be 'p graft <n> <m>'")
    n = _int_token(head[2], 1, "vertex count")
    m = _int_token(head[3], 1, "edge count")

    terminals: set[int] = set()
    edges: list[tuple[int, int]] = []
    t_line = None
    idx, pos, size = 1, len(first) + 1, len(text)  # idx: the last line read
    while pos < size:
        if t_line is not None and not edges:  # the edge block may open here
            run = _EDGE_RUN.match(text, pos)
            bulk = run and _edge_run(run.group(), n, m)
            if bulk:
                edges, idx, pos = bulk, idx + len(bulk), run.end()
                continue
        end = text.find("\n", pos)
        if end == -1:
            end = size
        line, pos, idx = text[pos:end], end + 1, idx + 1
        if line == "":
            raise ParseError(idx, "blank lines are not allowed")
        tokens = line.split(" ")
        if "" in tokens:
            raise ParseError(idx, "tokens must be separated by single spaces")
        kind = tokens[0]
        if kind == "e":  # the most common line first
            if t_line is None:
                raise ParseError(idx, "edge line before the terminal line")
            if len(tokens) != 3:
                raise ParseError(idx, "edge lines must be 'e <u> <v>'")
            u = _int_token(tokens[1], idx, "endpoint")
            v = _int_token(tokens[2], idx, "endpoint")
            if u >= n or v >= n:
                raise ParseError(idx, f"endpoint outside 0..{n - 1}")
            if u == v:
                raise ParseError(idx, "loop edges are not allowed")
            if len(edges) == m:
                raise ParseError(idx, f"more than {m} edge lines")
            edges.append((u, v))
        elif kind == "t":
            if t_line is not None:
                raise ParseError(idx, "duplicate terminal line")
            t_line = idx
            for tok in tokens[1:]:
                v = _int_token(tok, idx, "terminal")
                if v >= n:
                    raise ParseError(idx, f"terminal {v} is outside 0..{n - 1}")
                if v in terminals:
                    raise ParseError(idx, f"terminal {v} repeated")
                terminals.add(v)
        elif kind != "c":  # a comment is skipped
            raise ParseError(idx, f"unknown directive {kind!r}")

    if t_line is None:
        raise ParseError(idx, "missing terminal line")
    if len(edges) != m:
        raise ParseError(idx, f"expected {m} edge lines, found {len(edges)}")
    try:
        return validate_graft(Graph(n, edges), terminals)
    except (NoJoinError, StructuralInputError) as exc:
        raise ParseError(t_line, str(exc)) from exc


def format_graft(graft: Graft, comments: Iterable[str] = ()) -> str:
    """Serialize a graft to the file format; inverse of :func:`parse_graft`."""
    g = graft.graph
    lines = [f"p graft {g.n} {g.m}"]
    terms = " ".join(str(t) for t in sorted(graft.terminals))
    lines.append(f"t {terms}" if terms else "t")
    lines.extend(f"e {u} {v}" for u, v in (g.endpoints(e) for e in range(g.m)))
    lines.extend(f"c {c}" for c in comments)
    return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    """The file's text, or stdin's for ``-``: bytes outside ASCII become
    surrogates, which ``parse_graft`` rejects, so decoding never raises."""
    if path != "-":
        with open(path, "r", encoding="ascii", errors="surrogateescape",
                  newline="") as fh:
            return fh.read()
    if not hasattr(sys.stdin, "buffer"):  # a text stream, already decoded
        return sys.stdin.read()
    return sys.stdin.buffer.read().decode("ascii", "surrogateescape")


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(doc, indent: str = "") -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, from C-encoded pieces.

    Under ``indent`` the standard library switches to its pure-Python
    encoder, whose closures also leave cyclic garbage.  Here strings and
    ints are encoded in C and each list or dict is one join.  Any other
    value falls back to ``json.dumps``, re-indented: JSON text holds no raw
    newline but those between items."""
    kind = type(doc)
    if kind is str:
        return _encode_str(doc)
    if kind is int:
        return int.__repr__(doc)
    if kind is list or kind is tuple:
        if not doc:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        if set(map(type, doc)) == {int}:  # a bool is no int here
            body = sep.join(map(int.__repr__, doc))
        else:
            body = sep.join([_json_text(x, inner) for x in doc])
        return f"[\n{inner}{body}\n{indent}]"
    if kind is dict and set(map(type, doc)) <= {str}:
        if not doc:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join([
            f"{_encode_str(k)}: {_json_text(doc[k], inner)}" for k in sorted(doc)])
        return f"{{\n{inner}{body}\n{indent}}}"
    if doc is None or kind is bool:
        return "null" if doc is None else "true" if doc else "false"
    return json.dumps(doc, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _emit(doc: dict) -> None:
    print(_json_text(doc))


def _default_root(graft: Graft, flag: int | None) -> int:
    if flag is not None:
        if not 0 <= flag < graft.graph.n:
            raise StructuralInputError(f"root {flag} is outside the graph")
        return flag
    if not graft.graph.n:
        raise StructuralInputError("the graph has no vertex to root at")
    return min(graft.terminals) if graft.terminals else 0


def _edge_lines(graft: Graft, join: Iterable[int]) -> list[str]:
    pairs = sorted(
        (min(u, v), max(u, v))
        for u, v in (graft.graph.endpoints(e) for e in join))
    return [f"{u} {v}" for u, v in pairs]


def cmd_check(args: argparse.Namespace) -> int:
    graft = parse_graft(_read(args.file))
    decision = decide(graft, root=args.root)
    if args.format == "json":
        _emit(decision.to_json())
        return 0 if decision.answer else 1
    if decision.answer:
        print("yes")
        for line in _edge_lines(graft, decision.join):
            print(line)
        print("coverable " + " ".join(str(v) for v in sorted(decision.coverable)))
        return 0
    print("no")
    print(f"reason {decision.stage}")
    return 1


def cmd_solve(args: argparse.Namespace) -> int:
    graft = parse_graft(_read(args.file))
    join = minimum_join(graft)
    if args.format == "json":
        _emit({"nu": len(join), "join": sorted(join)})
        return 0
    print(f"nu {len(join)}")
    for line in _edge_lines(graft, join):
        print(line)
    return 0


def cmd_distances(args: argparse.Namespace) -> int:
    graft = parse_graft(_read(args.file))
    root = _default_root(graft, args.root)
    dm = _distances(graft, root)  # the same under every minimum join
    if args.format == "json":
        _emit({"root": root, "distances": list(dm.dist)})
        return 0
    for v, d in enumerate(dm.dist):
        print(f"{v} {'unreachable' if d is None else d}")
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    graft = parse_graft(_read(args.file))
    root = _default_root(graft, args.root)
    dd = _number(_sweep(graft, minimum_join(graft), _distances(graft, root)))
    _emit(dd.to_json())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    graft = parse_graft(_read(args.file))
    root = _default_root(graft, args.root)
    join = optimum_join(graft)
    dd = _number(_sweep(graft, join, _distances(graft, root)))
    report = verify_decomposition(graft, join, dd)
    if args.format == "json":
        _emit(report.to_json())
    elif report.ok:
        print(f"ok {report.components_checked}")
    else:
        for v in report.violations:
            print(f"violation {v.component_id} {v.check} {v.message}")
    return 0 if report.ok else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    graft = parse_graft(_read(args.file))
    report = oracle_report(graft)
    _emit({
        "nu": report.nu,
        "min_joins": [sorted(j) for j in report.min_joins],
        "has_connected": report.has_connected,
        "coverable": sorted(report.coverable),
    })
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "rake":
        knobs = random.Random(args.seed ^ 0x9E3779B9)
        k = knobs.randint(1, 4)
        extra_v = knobs.randint(0, 3)
        extra_e = knobs.randint(0, 2) if extra_v else 0
        graft, recipe = gen_rake(0, range(1, k + 1), extra_v, extra_e, seed=args.seed)
    elif args.kind == "primal":
        witness, recipe = gen_primal(args.depth, seed=args.seed)
        graft = witness.graft
    else:
        graft, _, recipe = gen_tailed(args.depth, seed=args.seed)
    recipe_json = json.dumps(recipe.to_json(), sort_keys=True, separators=(",", ":"))
    text = format_graft(graft, comments=[f"recipe {recipe_json}"])
    if args.out:
        with open(f"{args.out}.graft", "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        with open(f"{args.out}.recipe.json", "w", encoding="ascii", newline="") as fh:
            fh.write(_json_text(recipe.to_json()) + "\n")
        return 0
    if args.format == "json":
        _emit({"file": text, "recipe": recipe.to_json()})
    else:
        sys.stdout.write(text)
    return 0


@functools.cache  # parse_args leaves the parser as it found it
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="connjoin",
        description="Decide and construct connected minimum joins in grafts.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str, *, file: bool = True, root: bool = False):
        p = sub.add_parser(name, help=help_)
        if file:
            p.add_argument("file", help="graft file path, or - for stdin")
        if root:
            p.add_argument("--root", type=int, default=None,
                           help="root vertex (default: smallest terminal)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
        return p

    add("check", cmd_check, "decide whether a connected minimum join exists",
        root=True)
    add("solve", cmd_solve, "print one minimum join")
    add("distances", cmd_distances, "print distances from the root", root=True)
    add("decompose", cmd_decompose, "print the distance decomposition as JSON",
        root=True)
    add("verify", cmd_verify, "check the decomposition invariants", root=True)
    add("oracle", cmd_oracle, "exhaustive report on a small graft")
    gen = add("generate", cmd_generate, "emit a generated guaranteed-YES graft",
              file=False)
    gen.add_argument("kind", choices=("rake", "primal", "tailed"))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--depth", type=int, default=1,
                     help="recursion depth for primal/tailed (rake ignores it)")
    gen.add_argument("--out", default=None, metavar="BASE",
                     help="write BASE.graft and BASE.recipe.json instead of stdout")
    return top


def main(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()  # safe: see the module docstring
    try:
        args = _parser().parse_args(argv)  # a usage error raises SystemExit
        return args.func(args)
    except (ParseError, NoJoinError, OracleScaleError, StructuralInputError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, TheoremViolationError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
