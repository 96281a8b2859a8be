"""Decide whether a connected minimum join exists and build one.

The pipeline is one staged chain, each stage taking what the one before it
proved: compute a minimum join (``optimum_join`` proves it minimum as it
realizes it), the distances from a terminal root under it (no second check
of the join), then the sweep stage of the distance decomposition, whose
merge forest the decision reads unnumbered.  On the forest it screens the
easy failure modes (eligibility), then evaluates the head sets — per
component, the top-level vertices from which the remaining depth can be
stitched together — bottom-up.  A connected minimum join exists iff the
initial component's head set is nonempty, and each head vertex of the
initial component is coverable by one; the join stitched from the smallest
is checked once more, as a new join.

``is_eligible``, ``head_set`` and ``construct_join`` read only relative
ids, so each takes the forest or the numbered ``DistanceDecomposition``
alike, and their results name components in the ids of what they read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .decomposition import DistanceDecomposition, MergeForest, _sweep
from .distances import _distances
from .errors import InternalError, StructuralInputError
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
    # The offender, for MULTIPLE_Q_COMPONENTS: the first in the ids of the
    # decomposition or forest screened.
    component_id: int | None = None

    def __post_init__(self) -> None:
        if self.eligible == (self.failure_reason is not None):
            raise InternalError("verdict must carry a reason exactly when not eligible")


def is_eligible(
    graft: Graft, join: Iterable[int], root: int,
    dd: DistanceDecomposition | MergeForest,
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
    if sum(1 for i, is_layer in zip(dd.level, dd.is_layer)
           if is_layer and i == 0) > 1:
        return EligibilityVerdict(False, INITIAL_DISCONNECTED)
    for cid, qs in enumerate(dd.q_children):  # empty on a Q component
        if len(qs) > 1 and (cid == dd.initial_id or not dd.is_cap[cid]):
            return EligibilityVerdict(False, MULTIPLE_Q_COMPONENTS, cid)
    return EligibilityVerdict(True)


def head_set(
    graft: Graft, dd: DistanceDecomposition | MergeForest,
    verdict: EligibilityVerdict,
) -> dict[int, frozenset[int]]:
    """Per-component head vertices, computed bottom-up over the depth tree.

    A component without depth answers with its terminal vertices: the one
    edge reaching it from above must land on a terminal.  Otherwise a join
    built from a head leaves the rest of the top level bare, so a component
    with two top terminals has no head and one with a single top terminal
    at most that one.  A head sees every child's head set, and the child
    count plus the top-terminal count has the parity the component's beam
    budget dictates — odd off the initial component, even on it.

    The tree below the initial component is listed parents first and then
    read backwards, children before parents, so the depth of the tree
    costs no stack.
    """
    if not verdict.eligible:
        raise StructuralInputError("head sets are defined for eligible systems")
    terminals, nbrs = graft.terminals, graft.graph.nbrs
    a_set, d_children = dd.a_set, dd.d_children
    order = [dd.initial_id]
    for cid in order:  # grows while it is read: a breadth-first listing
        order.extend(d_children[cid])
    empty: frozenset[int] = frozenset()
    heads: dict[int, frozenset[int]] = {}
    for cid in reversed(order):
        top, kids = a_set[cid], d_children[cid]
        top_terminals = (empty if terminals.isdisjoint(top)
                         else terminals.intersection(top))
        want = 0 if cid == dd.initial_id else 1
        if not kids:
            heads[cid] = top_terminals
        elif len(top_terminals) > 1 or (len(top_terminals) + len(kids)) % 2 != want:
            heads[cid] = empty
        else:
            # Plain loops, child by child: a comprehension or generator costs
            # a frame per call on CPython before 3.12, and this runs once per
            # component and once per candidate vertex.
            kept = top_terminals or top
            for c in kids:
                child_heads, seen = heads[c], []
                for v in kept:
                    if not child_heads.isdisjoint(nbrs[v]):
                        seen.append(v)
                kept = seen
            heads[cid] = frozenset(kept)
    return heads


def construct_join(
    graft: Graft, dd: DistanceDecomposition | MergeForest,
    heads: dict[int, frozenset[int]], v: int,
) -> frozenset[int]:
    """Stitch a connected minimum join covering head vertex ``v``.

    Depth-first from the initial component: at each component's anchor,
    connect to the smallest adjacent head of every child and recurse from
    there.  One edge per tree link is exactly minimum.
    """
    if v not in heads.get(dd.initial_id, frozenset()):
        raise StructuralInputError(f"vertex {v} is not a head of the initial component")
    nbrs, eids, d_children = graft.graph.nbrs, graft.graph.eids, dd.d_children
    out: list[int] = []  # one edge per tree link, so no repeats
    stack: list[tuple[int, int]] = [(dd.initial_id, v)]
    while stack:
        cid, anchor = stack.pop()
        for child_id in d_children[cid]:
            child_heads = heads[child_id]
            i = 0  # sorted: the first hit is minimal
            for u in nbrs[anchor]:
                if u in child_heads:
                    break
                i += 1
            else:
                raise InternalError(
                    f"anchor {anchor} has no edge into the head set of "
                    f"component {child_id}")
            out.append(eids[anchor][i])
            stack.append((child_id, u))
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
    ``NoJoinError`` if a component holds an odd number of terminals, and
    ``StructuralInputError`` on any graft if an explicit root is not a
    terminal.
    """
    terminals = graft.terminals
    if root is not None and root not in terminals:
        raise StructuralInputError(f"root {root} must be a terminal")
    if not terminals:
        return Decision(False, STAGE_EMPTY_T)
    if len(graft.parts) > 1:
        return Decision(False, STAGE_SPLIT_T)
    root = min(terminals) if root is None else root
    join = optimum_join(graft)  # proved a minimum join as it is realized
    forest = _sweep(graft, join, _distances(graft, root))
    verdict = is_eligible(graft, join, root, forest)
    if not verdict.eligible:
        return Decision(False, STAGE_NOT_ELIGIBLE + verdict.failure_reason, root=root)
    heads = head_set(graft, forest, verdict)
    initial_heads = heads[forest.initial_id]
    if not initial_heads:
        return Decision(False, STAGE_EMPTY_HEAD_SET, root=root)
    built = construct_join(graft, forest, heads, min(initial_heads))
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
