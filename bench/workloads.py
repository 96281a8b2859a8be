"""Seeded instance ladders for the benchmark workloads.

Every builder takes the workload seed and returns the same instances for the
same seed.  Each workload is a ladder of rungs whose shape (vertex count,
terminal count, depth) is fixed by the rung.  Where the work of an instance
varies much between random draws of one shape (the random sparse grafts,
the generator members, the acceptance-9 tail), the graphs are pinned and the
seed draws only vertex labels and edge order; elsewhere it draws the
caterpillar legs.  So run-to-run differences come from the program and not
from a changing problem.

Every call into ``connjoin`` made while building goes through a
:class:`LibraryClock`, whose total is the ``constructive.gen_s`` metric: the
program's share of set-up, apart from the benchmark's own edge drawing.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from connjoin import (Graph, PrimalWitness, attach_tail, gen_primal, gen_rake,
                      gen_tailed, validate_graft)
from connjoin.tjoin import Graft

# many_terminals: (n, k) rungs.  f_distances does k + 2 blossom solves on a
# k-point complete graph, so the cost climbs like k^4 up the ladder.  The
# blossom work of one draw varies by a fifth either way at equal (n, k), and
# the mean of a rung's draws still by a sixth between workload seeds, so
# the draws come from the fixed PINNED_STREAM; each rung holds several, and
# op_max_s takes the rung's mean.
TERMINAL_LADDER = ((300, 20), (350, 28), (400, 34), (450, 40), (500, 48))
DRAWS_PER_RUNG = 3
EXTRA_EDGES_PER_VERTEX = 3
PINNED_STREAM = "connjoin-bench-pinned"

# deep_levels: (shape, spine edges).  The graft is a tree with terminals at
# the two spine ends, so its only join is the spine: ν is the spine length,
# the spine is a connected minimum join (every rung answers YES), depth
# equals the spine length, and the decomposition stores about n * depth
# vertex references.  The recursive
# head_set runs out of stack somewhat below depth 500; the 600 rung sits
# past that limit on purpose and is recorded as a failure.
DEPTH_LADDER = (("path", 100), ("caterpillar", 180), ("path", 260),
                ("caterpillar", 340), ("path", 400), ("caterpillar", 440),
                ("path", 600))

# yes_families: pinned generator members, as (terminals, generator seed):
# for each terminal count, the first generator seeds from 0 with that many
# terminals.  Members of gen_primal(3, 3) range from 2 to 50 terminals and
# their verify time varies fivefold at equal terminal count, so drawing the
# members from the workload seed would make a pass mostly measure the draw.
# The workload seed draws each member's vertex labels and edge order instead.
PRIMAL_DEPTH, PRIMAL_WIDTH = 3, 3
PRIMAL_MEMBERS = ((8, 44), (16, 1), (24, 7), (24, 13), (32, 6), (32, 92))
TAILED_DEPTH, TAILED_WIDTH = 2, 4
TAILED_MEMBERS = ((8, 6), (16, 1), (24, 0), (32, 36))
TAIL_VERTICES, TAIL_EDGES, TAIL_BRIDGES = 300, 600, 3


@dataclass(frozen=True)
class Instance:
    """One instance of a rung, and what its construction guarantees."""

    label: str
    rung: str  # shared by the instances of one rung
    graft: Graft
    expect_yes: bool  # the family guarantees a connected minimum join
    nu: int | None = None  # ν when the construction fixes it


class LibraryClock:
    """Seconds spent inside the ``connjoin`` calls it makes."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __call__(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start


def _graft(lib: LibraryClock, n: int, edges, terminals) -> Graft:
    return lib(lambda: validate_graft(Graph(n, edges), terminals))


def random_sparse(n: int, k: int, rng: random.Random, lib: LibraryClock) -> Graft:
    """Random spanning tree plus about 3n extra edges, k random terminals."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(EXTRA_EDGES_PER_VERTEX * n):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return _graft(lib, n, edges, rng.sample(range(n), k))


def spine_graft(shape: str, length: int, rng: random.Random,
                lib: LibraryClock) -> Graft:
    """A path of ``length`` edges, terminals at both ends; a caterpillar
    also hangs length/2 pendant legs off random spine vertices."""
    edges = [(i, i + 1) for i in range(length)]
    n = length + 1
    if shape == "caterpillar":
        for _ in range(length // 2):
            edges.append((rng.randrange(length + 1), n))
            n += 1
    return _graft(lib, n, edges, [0, length])


def acceptance_instance(rng: random.Random, lib: LibraryClock) -> Graft:
    """The acceptance-9 shape: a 40-terminal star with a 460-vertex
    terminal-free tail, n=500 and m=2004."""
    rake, _ = lib(gen_rake, 0, range(1, 40), 0, 0, seed=rng.randrange(2**31))
    witness = lib(PrimalWitness, rake, 0, frozenset({0}))
    nt = 460
    tail = [(rng.randrange(v), v) for v in range(1, nt)]
    tail += [tuple(sorted(rng.sample(range(nt), 2))) for _ in range(1500)]
    bridges = [(0, rng.randrange(nt)) for _ in range(6)]
    return lib(lambda: attach_tail(witness, Graph(nt, tail), bridges))


def relabeled(graft: Graft, rng: random.Random, lib: LibraryClock) -> Graft:
    """An isomorphic copy under random vertex labels and edge order.

    The terminals keep their order, so the copy is decided from the same
    root (the smallest terminal), and the matching solves see the same
    terminal distance table.
    """
    n = graft.n
    label = list(range(n))
    rng.shuffle(label)
    terminals = sorted(graft.terminals)
    for t, new in zip(terminals, sorted(label[t] for t in terminals)):
        label[t] = new
    edges = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
             for u, v in (graft.graph.endpoints(e) for e in range(graft.m))]
    rng.shuffle(edges)
    return _graft(lib, n, edges, [label[t] for t in graft.terminals])


def _primal(gen_seed: int) -> Graft:
    return gen_primal(PRIMAL_DEPTH, PRIMAL_WIDTH, seed=gen_seed)[0].graft


def _tailed(gen_seed: int) -> Graft:
    return gen_tailed(TAILED_DEPTH, TAILED_WIDTH, seed=gen_seed,
                      tail_vertices=TAIL_VERTICES, tail_edges=TAIL_EDGES,
                      bridges=TAIL_BRIDGES)[0]


def many_terminals(rng: random.Random, lib: LibraryClock) -> list[Instance]:
    pinned = random.Random(PINNED_STREAM)
    return [Instance(f"sparse-n{n}-k{k}-{d}", f"sparse-n{n}-k{k}",
                     relabeled(random_sparse(n, k, pinned, lib), rng, lib), False)
            for n, k in TERMINAL_LADDER for d in range(DRAWS_PER_RUNG)]


def deep_levels(rng: random.Random, lib: LibraryClock) -> list[Instance]:
    return [Instance(f"{shape}-{length}", f"{shape}-{length}",
                     spine_graft(shape, length, rng, lib), True, nu=length)
            for shape, length in DEPTH_LADDER]


def yes_families(rng: random.Random, lib: LibraryClock) -> list[Instance]:
    out = []
    for draw, members in ((_primal, PRIMAL_MEMBERS), (_tailed, TAILED_MEMBERS)):
        for k, gen_seed in members:
            graft = lib(draw, gen_seed)
            if len(graft.terminals) != k:
                raise RuntimeError(f"{draw.__name__[1:]} member {gen_seed} "
                                   f"has {len(graft.terminals)} terminals, not {k}")
            rung = f"{draw.__name__[1:]}-k{k}"
            out.append(Instance(f"{rung}-s{gen_seed}", rung,
                                relabeled(graft, rng, lib), True))
    graft = acceptance_instance(random.Random(PINNED_STREAM), lib)
    out.append(Instance("acceptance9", "acceptance9",
                        relabeled(graft, rng, lib), True))
    return out


# workload name -> (CLI subcommand, instance builder)
WORKLOADS = {
    "many_terminals": ("check", many_terminals),
    "deep_levels": ("check", deep_levels),
    "yes_families": ("check", yes_families),
    "audit": ("verify", yes_families),
}


def build(workload: str, seed: int) -> tuple[list[Instance], float]:
    """The workload's instances for ``seed`` (equal seeds give equal grafts),
    and the seconds spent inside ``connjoin`` while building them."""
    _, builder = WORKLOADS[workload]
    lib = LibraryClock()
    # Separate streams per workload, so audit and yes_families share inputs
    # only because they share a builder.
    return builder(random.Random(f"{builder.__name__}:{seed}"), lib), lib.seconds
