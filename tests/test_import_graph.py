"""The library's import graph holds no test-only code."""

import os
import subprocess
import sys

import connjoin

TEST_ONLY = ("matching_oracle", "decomposition_oracle", "path_oracle", "pytest",
             "hypothesis")


def test_import_loads_no_test_only_module():
    src = os.path.dirname(os.path.dirname(connjoin.__file__))
    probe = ("import sys, connjoin; "
             f"print(sorted(m for m in {TEST_ONLY!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
