"""Record the answer keys that every benchmark run must repeat.

Usage, from the root of a source checkout::

    python3 bench/record_answers.py 101 102 7919

For each workload, runs every operation once for each given seed and checks
it as a benchmark run does.  The seeds must agree on every answer key, since
a seed draws only what leaves the answers unchanged.  The keys go to
``answers.json``, null where the operation failed, so that a later fix of
that failure is not a mismatch.  Re-record only when a change to the program
changes its answers on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import ROOT, import_library


def main(argv: list[str]) -> int:
    seeds = [int(arg) for arg in argv]
    if not seeds:
        sys.exit("usage: record_answers.py SEED...")
    import_library()
    import harness
    from workloads import WORKLOADS

    recorded = {}
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    for workload, (command, _) in WORKLOADS.items():
        for seed in seeds:
            workdir = tempfile.mkdtemp(prefix=f"record-{workload}-", dir=work_root)
            try:
                instances, _ = harness.build(workload, seed)
                paths = harness.write_instances(instances, workdir)
                checker = harness.Checker(command, instances, [None] * len(paths))
                harness.run_pass(command, paths, checker, harness.ReferenceClock())
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if checker.wrong:
                sys.exit(f"{workload} seed {seed}: wrong answers {checker.wrong}")
            keys = [checker.keys.get(i) for i in range(len(instances))]
            if recorded.setdefault(workload, keys) != keys:
                sys.exit(f"{workload} seed {seed}: answers differ from seed {seeds[0]}")
            print(f"{workload} {seed} {checker.digest()}", flush=True)
    try:
        work_root.rmdir()
    except OSError:
        pass  # not empty: another run is using it
    harness.RECORDED.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
