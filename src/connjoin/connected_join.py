"""Decide whether a connected minimum join exists and build one.

The pipeline: compute a minimum join, root the distance decomposition at a
terminal, screen the easy failure modes (eligibility), then evaluate the
head sets — per component, the top-level vertices from which the remaining
depth can be stitched together — bottom-up.  A connected minimum join
exists iff the initial component's head set is nonempty, and each head
vertex of the initial component is coverable by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .decomposition import DistanceDecomposition, distance_decomposition
from .errors import InternalError, StructuralInputError
from .graph_core import connected_components
from .tjoin import Graft, is_join, optimum_join

EMPTY_T = "EMPTY_T"
T_OUTSIDE_INITIAL = "T_OUTSIDE_INITIAL"
INITIAL_DISCONNECTED = "INITIAL_DISCONNECTED"
MULTIPLE_Q_COMPONENTS = "MULTIPLE_Q_COMPONENTS"

# The stages at which ``decide`` answers NO; a failed eligibility screen
# appends its reason to STAGE_NOT_ELIGIBLE.
STAGE_EMPTY_T = "empty-T"
STAGE_SPLIT_T = "split-T"
STAGE_NOT_ELIGIBLE = "not-eligible:"
STAGE_EMPTY_HEAD_SET = "empty-head-set"

__all__ = [
    "EligibilityVerdict",
    "Decision",
    "is_eligible",
    "head_set",
    "construct_join",
    "decide",
    "connected_minimum_join",
    "EMPTY_T",
    "T_OUTSIDE_INITIAL",
    "INITIAL_DISCONNECTED",
    "MULTIPLE_Q_COMPONENTS",
    "STAGE_EMPTY_T",
    "STAGE_SPLIT_T",
    "STAGE_NOT_ELIGIBLE",
    "STAGE_EMPTY_HEAD_SET",
]


@dataclass(frozen=True)
class EligibilityVerdict:
    eligible: bool
    failure_reason: str | None = None
    component_id: int | None = None  # offender, for MULTIPLE_Q_COMPONENTS

    def __post_init__(self) -> None:
        if self.eligible == (self.failure_reason is not None):
            raise InternalError("verdict must carry a reason exactly when not eligible")


def is_eligible(
    graft: Graft, join: Iterable[int], root: int, dd: DistanceDecomposition,
) -> EligibilityVerdict:
    """Screen the failure modes that rule out a connected minimum join.

    Checked in order: no terminals at all; a terminal above level 0 (the
    join cannot reach it without leaving the initial component); a level-0
    vertex set that is not connected; a component whose top level splits
    into several Q components.
    """
    if dd.root != root:
        raise StructuralInputError(
            f"decomposition is rooted at {dd.root}, not {root}")
    if not graft.terminals:
        return EligibilityVerdict(False, EMPTY_T)
    if root not in graft.terminals:
        raise StructuralInputError(f"root {root} must be a terminal")
    dm = dd.distance_map
    if any(dm[t] is None or dm[t] > 0 for t in graft.terminals):
        return EligibilityVerdict(False, T_OUTSIDE_INITIAL)
    if sum(1 for _ in dd.layer_components(0)) > 1:
        return EligibilityVerdict(False, INITIAL_DISCONNECTED)
    for comp in dd.layer_components():
        if (comp.id == dd.initial_id or not comp.is_cap) and len(comp.q_children) > 1:
            return EligibilityVerdict(False, MULTIPLE_Q_COMPONENTS, comp.id)
    return EligibilityVerdict(True)


def head_set(
    graft: Graft, dd: DistanceDecomposition, verdict: EligibilityVerdict,
) -> dict[int, frozenset[int]]:
    """Per-component head vertices, computed bottom-up over the depth tree.

    A component without depth answers with its terminal vertices: the one
    edge reaching it from above must land on a terminal.  Otherwise a
    top-level vertex v is a head iff no other top-level vertex is a
    terminal (a join built from v leaves the rest of the top level bare),
    v sees every child's head set, and the count of child links plus v's
    own terminal bit has the parity the component's beam budget dictates —
    odd off the initial component, even on it.

    The tree below the initial component is listed parents first and then
    read backwards, children before parents, so the depth of the tree
    costs no stack.
    """
    if not verdict.eligible:
        raise StructuralInputError("head sets are defined for eligible systems")
    graph = graft.graph
    order = [dd.initial]
    for comp in order:  # grows while it is read: a breadth-first listing
        order.extend(dd.component(c) for c in comp.d_children)
    heads: dict[int, frozenset[int]] = {}
    for comp in reversed(order):
        if not comp.d_children:
            heads[comp.id] = graft.terminals & comp.a_set
            continue
        child_heads = [heads[c] for c in comp.d_children]
        want = 0 if comp.id == dd.initial_id else 1
        top_terminals = graft.terminals & comp.a_set
        heads[comp.id] = frozenset(
            v for v in comp.a_set
            if top_terminals <= {v}
            and ((v in graft.terminals) + len(child_heads)) % 2 == want
            and all(any(u in ch for u, _ in graph.incident(v))
                    for ch in child_heads))
    return heads


def construct_join(
    graft: Graft, dd: DistanceDecomposition, heads: dict[int, frozenset[int]],
    v: int,
) -> frozenset[int]:
    """Stitch a connected minimum join covering head vertex ``v``.

    Depth-first from the initial component: at each component's anchor,
    connect to the smallest adjacent head of every child and recurse from
    there.  One edge per tree link is exactly minimum.
    """
    if v not in heads.get(dd.initial_id, frozenset()):
        raise StructuralInputError(f"vertex {v} is not a head of the initial component")
    graph = graft.graph
    out: set[int] = set()
    stack: list[tuple[int, int]] = [(dd.initial_id, v)]
    while stack:
        cid, anchor = stack.pop()
        for child_id in dd.component(cid).d_children:
            child_heads = heads[child_id]
            for u, e in graph.incident(anchor):  # sorted: first hit is minimal
                if u in child_heads:
                    out.add(e)
                    stack.append((child_id, u))
                    break
            else:
                raise InternalError(
                    f"anchor {anchor} has no edge into the head set of "
                    f"component {child_id}")
    if graft.terminals and not out:
        raise InternalError("terminals present but the constructed join is empty")
    return frozenset(out)


@dataclass(frozen=True)
class Decision:
    """Outcome of the full decision pipeline."""

    answer: bool
    stage: str | None  # failure stage for NO, None for YES
    root: int | None = None
    join: frozenset[int] | None = None
    coverable: frozenset[int] | None = None  # head set of the initial component

    def to_json(self) -> dict:
        if self.answer:
            return {
                "answer": "yes",
                "root": self.root,
                "join": sorted(self.join),
                "coverable": sorted(self.coverable),
            }
        return {"answer": "no", "stage": self.stage}


def decide(graft: Graft, root: int | None = None) -> Decision:
    """Full pipeline: does the graft have a connected minimum join?

    The root defaults to the smallest terminal; any terminal gives the same
    answer.  The empty join does not count as connected, and terminals
    spread over several components can never be covered connectedly.
    """
    terminals = graft.terminals
    if not terminals:
        return Decision(False, STAGE_EMPTY_T)
    holding = [c for c in connected_components(graft.graph) if terminals & c]
    if len(holding) > 1:
        return Decision(False, STAGE_SPLIT_T)
    if root is None:
        root = min(terminals)
    elif root not in terminals:
        raise StructuralInputError(f"root {root} must be a terminal")
    join = optimum_join(graft)
    dd = distance_decomposition(graft, join, root)
    verdict = is_eligible(graft, join, root, dd)
    if not verdict.eligible:
        return Decision(False, STAGE_NOT_ELIGIBLE + verdict.failure_reason, root=root)
    heads = head_set(graft, dd, verdict)
    initial_heads = heads[dd.initial_id]
    if not initial_heads:
        return Decision(False, STAGE_EMPTY_HEAD_SET, root=root)
    built = construct_join(graft, dd, heads, min(initial_heads))
    if len(built) != len(join):
        raise InternalError(
            f"constructed join has {len(built)} edges, minimum is {len(join)}")
    if not is_join(graft, built):
        raise InternalError("constructed edge set is not a join")
    return Decision(True, None, root=root, join=built, coverable=initial_heads)


def connected_minimum_join(
    graft: Graft,
) -> tuple[frozenset[int], frozenset[int]] | None:
    """A connected minimum join plus the coverable top-level vertices, or
    None when no minimum join is connected."""
    decision = decide(graft)
    if not decision.answer:
        return None
    return decision.join, decision.coverable
