"""CLI output pinned by digest: exit status, stdout and stderr of every
deciding and reporting command, in text and JSON, on a fixed input set;
and of the rooted reports from each graft's smallest non-terminal vertex.

A refactor that must leave the output byte-identical keeps these digests;
a change that means to alter output updates them and says why.
"""

import hashlib
import random

import pytest

from connjoin.cli import format_graft, main
from connjoin.constructive import gen_primal, gen_tailed
from connjoin.graph_core import Graph
from connjoin.tjoin import validate_graft

from conftest import random_connected_graft, random_multigraft

COMMANDS = ("check", "solve", "distances", "decompose", "verify")
FORMATS = ("text", "json")

DIGESTS = {
    ("check", "text"):
        "0419732c6ad81a42fba70e832a6637b81b7a1825fd92b636ce6caf7761f65303",
    ("check", "json"):
        "038671ad759cbb6200380f88370a5310953b2e400b49b99db3b2d1fdf5d4fe9f",
    ("solve", "text"):
        "a2558b4c824b6c014dbbd264120efb7bab07ef9e7b59b37ec9c0067898f234c7",
    ("solve", "json"):
        "ead333c6c7f333848dd9d9e5f78e0b82e79ac9ef2cdea919ff6abb5a5a70968b",
    ("distances", "text"):
        "089ee48632136a851879020ff8c66e91d69b4a1d0a18362c2248c3177b8e50ee",
    ("distances", "json"):
        "e06810b7a61211a2935b0d1b2c191944eae54ef829c7b16c2c129749381d35e9",
    ("decompose", "text"):
        "2fdd6b4a8e38c47216ea339a83b635b6052371030efae6ca70b6259abb5f52d9",
    ("decompose", "json"):
        "2fdd6b4a8e38c47216ea339a83b635b6052371030efae6ca70b6259abb5f52d9",
    ("verify", "text"):
        "c31ca2e2e491c66b7e418316ed83e9154f36ca38b662c2be7157019886854be5",
    ("verify", "json"):
        "1cb59e6640c6d7c4a8488678b551a6b7cb776c71f6b035a4ca75f2b311ed7808",
}

ROOTED = ("distances", "decompose", "verify")

NON_TERMINAL_ROOT_DIGESTS = {
    ("distances", "text"):
        "5b45c3b94272d58541ff1700d77c45bc2be7bb1b55097f30c4941003e9463874",
    ("distances", "json"):
        "b426234a779b4025005da54902319a444070ff623d8cf83a5efbf78098526ec3",
    ("decompose", "text"):
        "f41abf8b0eb93ada9d2a7b82515a8dc1a24e4fcd78f668ef2c5425ab22c4087f",
    ("decompose", "json"):
        "f41abf8b0eb93ada9d2a7b82515a8dc1a24e4fcd78f668ef2c5425ab22c4087f",
    ("verify", "text"):
        "3cbcad9f891846f4b60b5681fd84c463e378b115e70a59113a8e9d0b5a12b5ea",
    ("verify", "json"):
        "f827fd1a1db98aaea2208882eec5f215f77994ca939575ca18bc42837ce56dc4",
}


def pinned_grafts():
    """The first 100 corpus grafts, four primal and three tailed members."""
    grafts = [random_connected_graft(seed) for seed in range(100)]
    grafts += [gen_primal(3, 3, seed=s)[0].graft for s in range(4)]
    grafts += [gen_tailed(2, 4, seed=s)[0] for s in range(3)]
    return grafts


@pytest.fixture(scope="module")
def graft_files(tmp_path_factory):
    """(path, graft) of each pinned graft, written to a file."""
    folder = tmp_path_factory.mktemp("pinned")
    files = []
    for i, graft in enumerate(pinned_grafts()):
        path = folder / f"{i}.graft"
        path.write_text(format_graft(graft))
        files.append((str(path), graft))
    return files


def output_digest(runs, capsys):
    """SHA-256 over (exit status, stdout, stderr) of each argv, in order."""
    h = hashlib.sha256()
    for argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        h.update(f"{code}\0{captured.out}\0{captured.err}\0".encode())
    return h.hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_is_pinned(graft_files, command, fmt, capsys):
    runs = [[command, path, "--format", fmt] for path, _ in graft_files]
    assert output_digest(runs, capsys) == DIGESTS[command, fmt]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", ROOTED)
def test_cli_output_from_a_non_terminal_root_is_pinned(
        graft_files, command, fmt, capsys):
    # Grafts whose every vertex is a terminal have no such root: 81 of 107 do.
    runs = [[command, path, "--root", str(min(set(range(g.n)) - g.terminals)),
             "--format", fmt]
            for path, g in graft_files if len(g.terminals) < g.n]
    assert len(runs) == 81
    assert output_digest(runs, capsys) == NON_TERMINAL_ROOT_DIGESTS[command, fmt]


DEPTH_LADDER = (("path", 100), ("caterpillar", 180), ("path", 260),
                ("caterpillar", 340), ("caterpillar", 440), ("path", 600),
                ("caterpillar", 600))

DEPTH_DIGESTS = {
    "check":
        "3fbe3b00674fab7d2a077322cc7561cc30c499ff749ce645f8f1e766f04f82eb",
    "decompose":
        "03c9c43c84b27600b09d5d0ab7bbcb8ed7d04825c26acb50ca3f1bff9e0b233d",
}


def depth_grafts():
    """Paths and caterpillars of ``DEPTH_LADDER``: a spine with terminals at
    its ends and, on a caterpillar, spine/2 legs at feet drawn from one
    fixed stream.  Every spine vertex is a level of its own."""
    rng = random.Random(2024)
    grafts = []
    for shape, length in DEPTH_LADDER:
        edges = [(i, i + 1) for i in range(length)]
        if shape == "caterpillar":
            edges += [(rng.randrange(length + 1), length + 1 + j)
                      for j in range(length // 2)]
        grafts.append(validate_graft(Graph(len(edges) + 1, edges), {0, length}))
    return grafts


@pytest.fixture(scope="module")
def depth_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("deep")
    files = []
    for i, graft in enumerate(depth_grafts()):
        path = folder / f"{i}.graft"
        path.write_text(format_graft(graft))
        files.append(str(path))
    return files


@pytest.mark.parametrize("command", sorted(DEPTH_DIGESTS))
def test_cli_output_at_depth_is_pinned(depth_files, command, capsys):
    runs = [[command, path, "--format", "json"] for path in depth_files]
    assert output_digest(runs, capsys) == DEPTH_DIGESTS[command]


MULTI_Q_DIGEST = \
    "2e458170ac1144b8be27a037e5456c8ec805e63320ff27ec327514fc0197d4a9"


@pytest.fixture(scope="module")
def multi_q_files(tmp_path_factory):
    """(path, graft) of four primal and three tailed members and 20
    multigrafts: from their terminal roots, 32 of the 154 decompositions
    hold a layer component with several Q components."""
    grafts = [gen_primal(3, 3, seed=s)[0].graft for s in range(4)]
    grafts += [gen_tailed(2, 4, seed=s)[0] for s in range(3)]
    grafts += [random_multigraft(seed) for seed in range(20)]
    folder = tmp_path_factory.mktemp("multi_q")
    files = []
    for i, graft in enumerate(grafts):
        path = folder / f"{i}.graft"
        path.write_text(format_graft(graft))
        files.append((str(path), graft))
    return files


def test_decompose_from_every_terminal_root_is_pinned(multi_q_files, capsys):
    runs = [["decompose", path, "--root", str(root), "--format", "json"]
            for path, g in multi_q_files for root in sorted(g.terminals)]
    assert len(runs) == 154
    assert output_digest(runs, capsys) == MULTI_Q_DIGEST
