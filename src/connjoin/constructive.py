"""Recognizers and seeded generators for the guaranteed-YES classes.

Three construction layers build on each other: rakes (a dominating stable
terminal set raked together by a head vertex), gluing sums (replace chosen
terminals of a base graft by whole sub-grafts, rewiring their incident
edges), and the primal class (rakes glued recursively onto every tooth).
A primal graft answers YES with the root covered, and stays YES after
hanging an arbitrary terminal-free tail off its top level.  Every
generator records the choices it makes in a :class:`ConstructionRecipe`;
replaying a recipe rebuilds the identical graft.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .distances import f_distances
from .errors import InternalError, StructuralInputError
from .graph_core import Graph, is_stable_dominating
from .tjoin import Graft, optimum_join

RAKE = "RAKE"
PRIMAL = "PRIMAL"
TAILED = "TAILED"

MAX_DEPTH = 4
MAX_TEETH = 4

__all__ = [
    "ConstructionRecipe",
    "PrimalWitness",
    "GluingMaps",
    "is_rake",
    "is_primal",
    "gen_rake",
    "gluing_sum",
    "gen_primal",
    "attach_tail",
    "gen_tailed",
    "replay",
    "replay_witness",
    "RAKE",
    "PRIMAL",
    "TAILED",
    "MAX_DEPTH",
    "MAX_TEETH",
]


@dataclass(frozen=True)
class ConstructionRecipe:
    """Replayable record of one generator run.

    ``steps`` is a nested JSON-ready structure; every random draw the
    generator made is resolved into it, so replay needs no RNG.
    """

    kind: str  # RAKE | PRIMAL | TAILED
    seed: int
    steps: tuple

    def __post_init__(self) -> None:
        if self.kind not in (RAKE, PRIMAL, TAILED):
            raise StructuralInputError(f"unknown recipe kind {self.kind!r}")

    def to_json(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "steps": list(self.steps)}

    @staticmethod
    def from_json(doc: Mapping) -> "ConstructionRecipe":
        try:
            return ConstructionRecipe(
                str(doc["kind"]), int(doc["seed"]), tuple(doc["steps"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise StructuralInputError(f"malformed recipe document: {exc}") from exc


@dataclass(frozen=True)
class PrimalWitness:
    """A graft known primal with respect to ``root``, with its top level."""

    graft: Graft
    root: int
    a_set: frozenset[int]

    def __post_init__(self) -> None:
        if self.root not in self.a_set:
            raise StructuralInputError("witness root must lie in its top level")


@dataclass(frozen=True)
class GluingMaps:
    """Old-id → new-id maps produced by :func:`gluing_sum`.

    ``base`` covers the surviving vertices of the base graft; ``parts``
    maps each replaced terminal to the relabeling of its part.
    """

    base: dict[int, int]
    parts: dict[int, dict[int, int]]


def is_rake(graft: Graft, r: int, teeth: Iterable[int]) -> bool:
    """True iff ``graft`` is a rake with head ``r`` and tooth set ``teeth``.

    Teeth must form a stable subset of the terminals dominating everything
    else, the head must see every tooth, and the terminal set must be the
    teeth plus the head exactly when the tooth count is odd.
    """
    g = graft.graph
    teeth = frozenset(teeth)
    if not teeth <= graft.terminals:
        return False
    if r in teeth or r not in range(g.n):
        return False
    if not is_stable_dominating(g, teeth):
        return False
    # Exactly one head edge per tooth: a parallel pair would give the tooth
    # even degree in the head star, so the star could not be the join that
    # makes the class tick.
    head_multiplicity = Counter(u for u, _ in g.incident(r))
    if any(head_multiplicity[b] != 1 for b in teeth):
        return False
    want = teeth | {r} if len(teeth) % 2 == 1 else teeth
    return graft.terminals == want


def _rake_from_steps(steps: Sequence[Mapping]) -> tuple[Graft, int, frozenset[int]]:
    """Interpret recorded rake steps; returns (graft, head, teeth).

    Labels are arbitrary but must end up covering 0..n-1.  Repeated targets
    in a vertex addition are allowed (parallel edges into the teeth), as are
    repeated side edges; the head star itself is always simple.
    """
    if not steps or steps[0].get("op") != "star":
        raise StructuralInputError("rake steps must start with a star")
    r = int(steps[0]["root"])
    teeth = tuple(int(b) for b in steps[0]["teeth"])
    labels = {r, *teeth}
    if len(labels) != len(teeth) + 1 or min(labels) < 0:
        raise StructuralInputError("star labels must be distinct and nonnegative")
    edges: list[tuple[int, int]] = [(r, b) for b in sorted(teeth)]
    tooth_set = frozenset(teeth)
    for step in steps[1:]:
        op = step.get("op")
        if op == "add_vertex":
            x = int(step["vertex"])
            if x < 0 or x in labels:
                raise StructuralInputError(f"added vertex {x} must be new")
            targets = [int(b) for b in step["teeth"]]
            if not targets or not set(targets) <= tooth_set:
                raise StructuralInputError("added vertex needs edges into the teeth")
            edges.extend((x, b) for b in targets)
            labels.add(x)
        elif op == "add_edges":
            for u, v in step["edges"]:
                u, v = int(u), int(v)
                if u in tooth_set or v in tooth_set or u == v:
                    raise StructuralInputError(
                        "side edges must join two distinct non-tooth vertices")
                if u not in labels or v not in labels:
                    raise StructuralInputError(f"side edge ({u}, {v}) out of range")
                edges.append((u, v))
        else:
            raise StructuralInputError(f"unknown rake step {op!r}")
    if labels != set(range(len(labels))):
        raise StructuralInputError("labels must form a contiguous block 0..n-1")
    terminals = tooth_set | {r} if len(teeth) % 2 == 1 else tooth_set
    return Graft(Graph(len(labels), edges), terminals), r, tooth_set


def _random_rake_steps(
    rng: random.Random, r: int, teeth: Sequence[int],
    extra_vertices: int, extra_edges: int,
) -> list[dict]:
    teeth = sorted(teeth)
    steps: list[dict] = [{"op": "star", "root": r, "teeth": teeth}]
    n = len(teeth) + 1
    side = [r]  # non-tooth vertices, eligible ends for side edges
    for _ in range(extra_vertices):
        count = rng.randint(1, min(3, len(teeth)))
        targets = sorted(rng.sample(teeth, count))
        steps.append({"op": "add_vertex", "vertex": n, "teeth": targets})
        side.append(n)
        n += 1
    if extra_edges:
        if len(side) < 2:
            raise StructuralInputError(
                "side edges need at least two non-tooth vertices")
        pairs = [sorted(rng.sample(side, 2)) for _ in range(extra_edges)]
        steps.append({"op": "add_edges", "edges": pairs})
    return steps


def gen_rake(
    r: int, teeth: Iterable[int], extra_vertices: int = 0, extra_edges: int = 0,
    seed: int = 0,
) -> tuple[Graft, ConstructionRecipe]:
    """Build a seeded random rake with head ``r`` and tooth set ``teeth``.

    Start from the star on {r} ∪ teeth, then attach ``extra_vertices`` new
    vertices by nonempty random edge sets into the teeth, then add
    ``extra_edges`` random edges among the non-tooth vertices.  Labels must
    cover 0..|teeth| contiguously; added vertices take the next ids.
    """
    teeth = sorted(set(teeth))
    if not teeth:
        raise StructuralInputError("a rake needs at least one tooth")
    if extra_vertices < 0 or extra_edges < 0:
        raise StructuralInputError("extension counts must be nonnegative")
    rng = random.Random(seed)
    steps = _random_rake_steps(rng, r, teeth, extra_vertices, extra_edges)
    graft, head, tooth_set = _rake_from_steps(steps)
    if not is_rake(graft, head, tooth_set):
        raise InternalError("generated rake fails its own recognizer")
    return graft, ConstructionRecipe(RAKE, seed, tuple(steps))


def gluing_sum(
    base: Graft,
    sites: Iterable[int],
    chosen: Mapping[int, int],
    parts: Mapping[int, tuple[Graft, Iterable[int], int]],
    redirects: Mapping[int, Mapping[int, int]],
) -> tuple[Graft, GluingMaps]:
    """Replace each terminal in ``sites`` by a whole part graft.

    Every base edge ending at a site s is rewired to ``redirects[s][edge]``,
    a vertex in the part's designated top set A_s; the single ``chosen[s]``
    edge must land on the part's root r_s.  The composed terminal set keeps
    the untouched base terminals and toggles each part root into or out of
    its part's terminals.  Vertices are relabeled densely: surviving base
    vertices first in ascending order, then each part's block in ascending
    site order.  Base edges keep their positions; part edges follow in
    site-major order.
    """
    g0 = base.graph
    sites = sorted(set(sites))
    if not sites:
        raise StructuralInputError("gluing needs at least one site")
    site_set = frozenset(sites)
    if not site_set <= base.terminals:
        raise StructuralInputError("gluing sites must be base terminals")
    for s in sites:
        for u, _ in g0.incident(s):
            if u in site_set:
                raise StructuralInputError("gluing sites must form a stable set")
    for s in sites:
        if s not in parts or s not in redirects or s not in chosen:
            raise StructuralInputError(f"site {s} lacks a part, redirect map, or choice")

    survivors = [v for v in range(g0.n) if v not in site_set]
    base_map = {v: i for i, v in enumerate(survivors)}
    part_maps: dict[int, dict[int, int]] = {}
    offset = len(survivors)
    for s in sites:
        part, a_s, r_s = parts[s]
        a_s = frozenset(a_s)
        if not a_s <= frozenset(range(part.graph.n)):
            raise StructuralInputError(f"top set of the part at {s} is out of range")
        if r_s not in a_s:
            raise StructuralInputError(f"part root at {s} must lie in its top set")
        part_maps[s] = {v: offset + v for v in range(part.graph.n)}
        offset += part.graph.n

    edges: list[tuple[int, int]] = []
    for eid in range(g0.m):
        u, v = g0.endpoints(eid)
        su, sv = u in site_set, v in site_set  # not both: the sites are stable
        if not su and not sv:
            edges.append((base_map[u], base_map[v]))
            continue
        s, x = (u, v) if su else (v, u)
        fmap = redirects[s]
        if eid not in fmap:
            raise StructuralInputError(
                f"redirect map at site {s} misses its incident edge {eid}")
        target = fmap[eid]
        _, a_s, r_s = parts[s]
        if target not in frozenset(a_s):
            raise StructuralInputError(
                f"edge {eid} redirected outside the top set of site {s}")
        if eid == chosen[s] and target != r_s:
            raise StructuralInputError(
                f"the chosen edge at site {s} must land on the part root")
        edges.append((base_map[x], part_maps[s][target]))
    for s in sites:
        if chosen[s] not in redirects[s]:
            raise StructuralInputError(
                f"chosen edge {chosen[s]} is not incident to site {s}")
        part = parts[s][0]
        pm = part_maps[s]
        for eid in range(part.graph.m):
            pu, pv = part.graph.endpoints(eid)
            edges.append((pm[pu], pm[pv]))

    terminals = {base_map[t] for t in base.terminals if t not in site_set}
    for s in sites:
        part, _, r_s = parts[s]
        toggled = part.terminals ^ {r_s}
        terminals |= {part_maps[s][t] for t in toggled}
    glued = Graft(Graph(offset, edges), terminals)
    return glued, GluingMaps(base_map, part_maps)


def _primal_from_step(step: Mapping) -> PrimalWitness:
    """Rebuild a primal witness from one recorded recursion node."""
    if step.get("op") != "primal":
        raise StructuralInputError("primal steps must carry op=primal")
    base, head, teeth = _rake_from_steps(step["rake"])
    a_base = frozenset(range(base.graph.n)) - teeth
    if not step["parts"]:
        return PrimalWitness(base, head, a_base)
    by_tooth: dict[int, PrimalWitness] = {}
    redirects: dict[int, dict[int, int]] = {}
    chosen: dict[int, int] = {}
    for rec in step["parts"]:
        b = int(rec["tooth"])
        by_tooth[b] = _primal_from_step(rec["part"])
        redirects[b] = {int(e): int(t) for e, t in rec["f"]}
        chosen[b] = int(rec["chosen"])
    if set(by_tooth) != set(teeth):
        raise StructuralInputError("every tooth needs a glued part")
    glued, maps = gluing_sum(
        base, teeth, chosen,
        {b: (w.graft, w.a_set, w.root) for b, w in by_tooth.items()},
        redirects)
    root = maps.base[head]
    a_new = frozenset(maps.base[x] for x in a_base)
    return PrimalWitness(glued, root, a_new)


def _random_primal_step(rng: random.Random, depth: int, width: int) -> dict:
    k = rng.randint(1, width)
    extra_v = rng.randint(0, 2)
    extra_e = rng.randint(0, 2) if extra_v else 0
    rake_steps = _random_rake_steps(rng, 0, range(1, k + 1), extra_v, extra_e)
    base, head, teeth = _rake_from_steps(rake_steps)
    step = {"op": "primal", "rake": rake_steps, "parts": []}
    if depth == 0:
        return step
    for b in sorted(teeth):
        part_step = _random_primal_step(rng, depth - 1, width)
        part = _primal_from_step(part_step)
        incident = sorted(e for _, e in base.graph.incident(b))
        star_edge = min(e for u, e in base.graph.incident(b) if u == head)
        a_sorted = sorted(part.a_set)
        fmap = [
            [e, part.root if e == star_edge else rng.choice(a_sorted)]
            for e in incident
        ]
        step["parts"].append(
            {"tooth": b, "chosen": star_edge, "f": fmap, "part": part_step})
    return step


def gen_primal(
    depth: int, width: int = 3, seed: int = 0,
) -> tuple[PrimalWitness, ConstructionRecipe]:
    """Generate a random member of the primal class.

    Depth 0 is a bare random rake (top set = everything but the teeth);
    depth d glues an independent depth-(d−1) member onto every tooth of a
    fresh random rake.  Fan-out and depth are capped to keep instances
    checkable.
    """
    if not 0 <= depth <= MAX_DEPTH:
        raise StructuralInputError(f"depth must be within 0..{MAX_DEPTH}")
    if not 1 <= width <= MAX_TEETH:
        raise StructuralInputError(f"width must be within 1..{MAX_TEETH}")
    rng = random.Random(seed)
    step = _random_primal_step(rng, depth, width)
    witness = _primal_from_step(step)
    return witness, ConstructionRecipe(PRIMAL, seed, (step,))


def attach_tail(
    witness: PrimalWitness, tail: Graph,
    bridge_edges: Sequence[tuple[int, int]],
) -> Graft:
    """Hang a terminal-free tail graph off the witness's top level.

    Each bridge (a, h) joins top-set vertex a to tail vertex h.  Tail
    vertices are relabeled to follow the witness block.  The terminal set
    is unchanged, so the witness's connected minimum join still answers
    for the composite.
    """
    n0 = witness.graft.graph.n
    for a, h in bridge_edges:
        if a not in witness.a_set:
            raise StructuralInputError(
                f"bridge end {a} is not in the witness top set")
        if not 0 <= h < tail.n:
            raise StructuralInputError(f"bridge end {h} is outside the tail")
    g0 = witness.graft.graph
    edges = [g0.endpoints(e) for e in range(g0.m)]
    edges += [(u + n0, v + n0) for u, v in (tail.endpoints(e) for e in range(tail.m))]
    edges += [(a, h + n0) for a, h in bridge_edges]
    return Graft(Graph(n0 + tail.n, edges), witness.graft.terminals)


def gen_tailed(
    depth: int, width: int = 3, seed: int = 0,
    tail_vertices: int | None = None, tail_edges: int | None = None,
    bridges: int | None = None,
) -> tuple[Graft, int, ConstructionRecipe]:
    """Random primal witness plus a random terminal-free tail; still YES.

    Unset size knobs default to a small random tail.  Explicit tail edges
    need two tail vertices (a drawn vertex count is raised to two, an
    explicit one must be), explicit bridges one.  Returns the composed
    graft, its covered root, and a full replayable recipe.
    """
    witness, base_recipe = gen_primal(depth, width, seed)
    rng = random.Random((seed << 16) ^ 0x7A11)
    nh = rng.randint(1, 4) if tail_vertices is None else tail_vertices
    if tail_vertices is None and (tail_edges or 0) > 0:
        nh = max(nh, 2)  # after the draw, so the random stream is unchanged
    if min(nh, tail_edges or 0, bridges or 0) < 0:
        raise StructuralInputError("tail counts must be nonnegative")
    if nh < 2 and tail_edges:
        raise StructuralInputError("tail edges need at least two tail vertices")
    if not nh and bridges:
        raise StructuralInputError("bridges need at least one tail vertex")
    mh = rng.randint(0, 2 * nh) if tail_edges is None else tail_edges
    nb = (rng.randint(1, 3) if bridges is None else bridges) if nh else 0
    h_edges = [sorted(rng.sample(range(nh), 2)) for _ in range(mh)] if nh > 1 else []
    a_sorted = sorted(witness.a_set)
    bridge_list = [[rng.choice(a_sorted), rng.randrange(nh)] for _ in range(nb)]
    tail = Graph(nh, [tuple(e) for e in h_edges])
    graft = attach_tail(witness, tail, [tuple(b) for b in bridge_list])
    steps = base_recipe.steps + (
        {"op": "tail", "vertices": nh, "edges": h_edges, "bridges": bridge_list},)
    return graft, witness.root, ConstructionRecipe(TAILED, seed, steps)


def _reads_steps(replayer):
    """Report a recipe step ``replayer`` cannot read (a missing key, a wrong
    type or shape) as ``StructuralInputError``, as ``from_json`` does."""
    @functools.wraps(replayer)
    def wrapped(recipe: ConstructionRecipe):
        try:
            return replayer(recipe)
        except StructuralInputError:  # also a ValueError, and already says why
            raise
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise StructuralInputError(f"malformed recipe step: {exc}") from exc
    return wrapped


@_reads_steps
def replay(recipe: ConstructionRecipe) -> Graft:
    """Rebuild the graft a recipe records, bit-identically."""
    if recipe.kind == RAKE:
        graft, _, _ = _rake_from_steps(recipe.steps)
        return graft
    if recipe.kind == PRIMAL:
        (step,) = recipe.steps
        return _primal_from_step(step).graft
    *primal_steps, tail_step = recipe.steps  # TAILED, the one kind left
    (step,) = primal_steps
    witness = _primal_from_step(step)
    if tail_step.get("op") != "tail":
        raise StructuralInputError("tailed recipe must end with a tail step")
    tail = Graph(int(tail_step["vertices"]),
                 [tuple(int(x) for x in e) for e in tail_step["edges"]])
    bridge_list = [tuple(int(x) for x in b) for b in tail_step["bridges"]]
    return attach_tail(witness, tail, bridge_list)


@_reads_steps
def replay_witness(recipe: ConstructionRecipe) -> PrimalWitness:
    """Rebuild the primal witness behind a PRIMAL recipe."""
    if recipe.kind != PRIMAL:
        raise StructuralInputError("only primal recipes carry a witness")
    (step,) = recipe.steps
    return _primal_from_step(step)


def is_primal(graft: Graft, r: int) -> bool:
    """True iff every vertex sits at distance ≤ 0 from ``r``."""
    dm = f_distances(graft, optimum_join(graft), r)
    return all(d is not None and d <= 0 for d in dm.dist)
