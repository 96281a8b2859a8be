"""Batch command-line front end.

Reads grafts from a tiny line-oriented file format, runs the library, and
prints text or JSON reports.  One file per invocation; exit status 0 means
yes/clean, 1 means no/violations, 2 means a malformed input or a guard.

File format (LF line endings, single spaces, ASCII decimals)::

    p graft <n> <m>
    t <v> <v> ...
    e <u> <v>          (m times)
    c <anything>       (ignored, allowed anywhere after line 1)

The ``t`` line may be a bare ``t`` for an empty terminal set and must
appear before the first edge line.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Iterable

from .connected_join import decide
from .constructive import gen_primal, gen_rake, gen_tailed
from .decomposition import distance_decomposition, verify_decomposition
from .distances import f_distances
from .errors import (InternalError, NoJoinError, NotMinimumJoinError,
                     OracleScaleError, ParseError, StructuralInputError,
                     TheoremViolationError)
from .graph_core import Graph
from .oracle import oracle_report
from .tjoin import Graft, minimum_join, optimum_join, validate_graft

__all__ = ["parse_graft", "format_graft", "main"]


def _int_token(token: str, line_no: int, what: str) -> int:
    if not token or not token.isascii() or not token.isdigit():
        raise ParseError(line_no, f"{what} must be an ASCII decimal, got {token!r}")
    return int(token)


def parse_graft(text: str) -> Graft:
    """Parse the graft file format, strictly.

    Unknown directives, bad counts, out-of-range or repeated vertices,
    loops, and odd terminal parity are all rejected with the offending
    line number.
    """
    if "\r" in text:
        raise ParseError(text[: text.index("\r")].count("\n") + 1,
                         "carriage returns are not allowed (LF endings only)")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # single trailing newline
    if not lines:
        raise ParseError(1, "empty file")

    head = lines[0].split(" ")
    if len(head) != 4 or head[0] != "p" or head[1] != "graft":
        raise ParseError(1, "first line must be 'p graft <n> <m>'")
    n = _int_token(head[2], 1, "vertex count")
    m = _int_token(head[3], 1, "edge count")

    terminals: list[int] = []
    edges: list[tuple[int, int]] = []
    t_line: int | None = None
    for idx, line in enumerate(lines[1:], start=2):
        if line == "":
            raise ParseError(idx, "blank lines are not allowed")
        tokens = line.split(" ")
        if any(tok == "" for tok in tokens):
            raise ParseError(idx, "tokens must be separated by single spaces")
        kind = tokens[0]
        if kind == "c":
            continue
        if kind == "t":
            if t_line is not None:
                raise ParseError(idx, "duplicate terminal line")
            if edges:
                raise ParseError(idx, "terminal line must precede edge lines")
            t_line = idx
            for tok in tokens[1:]:
                v = _int_token(tok, idx, "terminal")
                if v >= n:
                    raise ParseError(idx, f"terminal {v} is outside 0..{n - 1}")
                if v in terminals:
                    raise ParseError(idx, f"terminal {v} repeated")
                terminals.append(v)
            continue
        if kind == "e":
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
            continue
        raise ParseError(idx, f"unknown directive {kind!r}")

    if t_line is None:
        raise ParseError(len(lines), "missing terminal line")
    if len(edges) != m:
        raise ParseError(len(lines), f"expected {m} edge lines, found {len(edges)}")
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
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii", newline="") as fh:
        return fh.read()


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _default_root(graft: Graft, flag: int | None) -> int:
    if flag is not None:
        if not 0 <= flag < graft.graph.n:
            raise StructuralInputError(f"root {flag} is outside the graph")
        return flag
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
    dm = f_distances(graft, optimum_join(graft), root)
    if args.format == "json":
        _emit({"root": root, "distances": list(dm.dist)})
        return 0
    for v, d in enumerate(dm.dist):
        print(f"{v} {'unreachable' if d is None else d}")
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    graft = parse_graft(_read(args.file))
    root = _default_root(graft, args.root)
    dd = distance_decomposition(graft, minimum_join(graft), root)
    _emit(dd.to_json())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    graft = parse_graft(_read(args.file))
    root = _default_root(graft, args.root)
    join = optimum_join(graft)
    dd = distance_decomposition(graft, join, root)
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
            fh.write(json.dumps(recipe.to_json(), sort_keys=True, indent=2) + "\n")
        return 0
    if args.format == "json":
        _emit({"file": text, "recipe": recipe.to_json()})
    else:
        sys.stdout.write(text)
    return 0


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
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoJoinError, NotMinimumJoinError, OracleScaleError,
            StructuralInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, TheoremViolationError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
