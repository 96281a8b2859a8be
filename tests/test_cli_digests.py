"""CLI output pinned by digest: exit status, stdout and stderr of every
deciding and reporting command, in text and JSON, on a fixed input set.

A refactor that must leave the output byte-identical keeps these digests;
a change that means to alter output updates them and says why.
"""

import hashlib

import pytest

from connjoin.cli import format_graft, main
from connjoin.constructive import gen_primal, gen_tailed

from conftest import random_connected_graft

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


def pinned_grafts():
    """The first 100 corpus grafts, four primal and three tailed members."""
    grafts = [random_connected_graft(seed) for seed in range(100)]
    grafts += [gen_primal(3, 3, seed=s)[0].graft for s in range(4)]
    grafts += [gen_tailed(2, 4, seed=s)[0] for s in range(3)]
    return grafts


@pytest.fixture(scope="module")
def graft_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("pinned")
    paths = []
    for i, graft in enumerate(pinned_grafts()):
        path = folder / f"{i}.graft"
        path.write_text(format_graft(graft))
        paths.append(str(path))
    return paths


def output_digest(paths, command, fmt, capsys):
    """SHA-256 over (exit status, stdout, stderr) of each run, in order."""
    h = hashlib.sha256()
    for path in paths:
        code = main([command, path, "--format", fmt])
        captured = capsys.readouterr()
        h.update(f"{code}\0{captured.out}\0{captured.err}\0".encode())
    return h.hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_is_pinned(graft_files, command, fmt, capsys):
    assert output_digest(graft_files, command, fmt, capsys) == DIGESTS[command, fmt]
