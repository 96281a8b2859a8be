"""Traced pass: a span around each call into a module's public functions.

The spans are taken from outside the library, so ``src/`` is unchanged.  The
pipeline spans reproduce the workload's subcommand call by call (for
``check``: parse, minimum join, decomposition, eligibility, head sets,
construction; for ``verify``: parse, minimum join, decomposition, verify);
their sum against the untraced pass gives the tracing overhead.  The other
spans (standalone ``f_distances``, ``decide``, ``verify_decomposition`` and
the matching micro-measure) run on every workload so that each layer is
measured on each workload.
"""

from __future__ import annotations

import time

from connjoin.cli import parse_graft
from connjoin.connected_join import (construct_join, decide, head_set,
                                     is_eligible)
from connjoin.decomposition import distance_decomposition, verify_decomposition
from connjoin.distances import f_distances
from connjoin.matching import (min_weight_perfect_matching,
                               min_weight_perfect_matching_value)
from connjoin.tjoin import _hop_distances, minimum_join

from ops import OP_CAP_S, TimeCapHit, capped

# Spans that make up each subcommand, in call order.
PIPELINE = {
    "check": ("cli.parse_s", "tjoin.minimum_join_s", "decomposition.build_s",
              "connected_join.eligible_s", "connected_join.head_set_s",
              "connected_join.construct_s"),
    "verify": ("cli.parse_s", "tjoin.minimum_join_s", "decomposition.build_s",
               "decomposition.verify_s"),
}
SPANS = ("cli.parse_s", "tjoin.minimum_join_s", "distances.f_distances_s",
         "decomposition.build_s", "connected_join.eligible_s",
         "connected_join.head_set_s", "connected_join.construct_s",
         "connected_join.decide_s", "decomposition.verify_s",
         "matching.lex_s", "matching.value_s")


class Spans:
    """Seconds per span name, accumulated over calls."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(SPANS, 0.0)

    def __call__(self, name: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds[name] += time.perf_counter() - start


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii", newline="") as fh:
        return fh.read()


def _decision_stages(span: Spans, graft, join, root, dd) -> None:
    """Eligibility, head sets and construction, as ``decide`` gates them: a
    stage that the answer does not reach reads only the cost of its gate."""
    verdict = span("connected_join.eligible_s", is_eligible, graft, join, root, dd)
    heads = span("connected_join.head_set_s",
                 lambda: head_set(graft, dd, verdict) if verdict.eligible else None)
    span("connected_join.construct_s",
         lambda: construct_join(graft, dd, heads, min(heads[dd.initial_id]))
         if heads and heads[dd.initial_id] else None)


def terminal_hops(graft) -> list[tuple[list[int], dict[int, list]]]:
    """Per component holding terminals: its sorted terminals and their hop
    tables from the library's BFS, the input to the matching reduction."""
    out = []
    seen: set[int] = set()
    for t in sorted(graft.terminals):
        if t in seen:
            continue
        hop = _hop_distances(graft.graph, t)
        pts = [s for s in sorted(graft.terminals) if hop[s] is not None]
        seen.update(pts)
        out.append((pts, {s: _hop_distances(graft.graph, s) for s in pts}))
    return out


def _matching_micro(span: Spans, graft) -> None:
    """Lexicographic pairing against value-only, on the terminal hop table."""
    for pts, hop in terminal_hops(graft):
        weight = lambda a, b, h=hop: h[a][b]
        span("matching.lex_s", min_weight_perfect_matching, pts, weight)
        span("matching.value_s", min_weight_perfect_matching_value, pts, weight)


def _attempt(row: dict, fn, *args):
    """Run one group of spans under the cap; a failure is noted in the row
    and ends only that group."""
    try:
        with capped(OP_CAP_S):
            return fn(*args)
    except TimeCapHit:
        row["error"] = row["error"] or "time-cap"
    except Exception as exc:  # RecursionError included
        row["error"] = row["error"] or type(exc).__name__
    return None


def traced_instance(command: str, path: str) -> dict:
    """All spans for one instance, with its shape and the failure, if any."""
    span = Spans()
    row: dict = {"error": None}

    def build():
        graft = span("cli.parse_s", parse_graft, _read(path))
        root = min(graft.terminals)
        row.update(n=graft.n, m=graft.m, k=len(graft.terminals))
        join = span("tjoin.minimum_join_s", minimum_join, graft)
        dd = span("decomposition.build_s", distance_decomposition,
                  graft, join, root)
        row.update(levels=len(dd.interval), components=len(dd.components),
                   vertex_refs=sum(len(c.vertices) for c in dd.components))
        return graft, join, root, dd

    built = _attempt(row, build)
    if built is not None:
        graft, join, root, dd = built
        _attempt(row, _decision_stages, span, graft, join, root, dd)
        _attempt(row, span, "decomposition.verify_s",
                 verify_decomposition, graft, join, dd)
        _attempt(row, span, "distances.f_distances_s",
                 f_distances, graft, join, root)
        _attempt(row, span, "connected_join.decide_s", decide, graft)
        _attempt(row, _matching_micro, span, graft)
    row["spans"] = span.seconds
    row["pipeline_s"] = sum(span.seconds[name] for name in PIPELINE[command])
    return row
