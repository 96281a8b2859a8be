"""Set-up, checked passes, metrics and the result line of one benchmark run.

A run builds the workload's instances from the seed and writes them as graft
files (set-up, repeated and reported as a median), runs one checked warm-up
pass, then repeats passes of the workload's subcommand over every instance
for the given seconds.  Untraced, it reports the end-to-end metrics.  Traced,
it adds one profiled pass for the exact call counts and alternates untraced
passes with traced ones (spans around each module's public functions), and
reports the per-layer metrics; one ``row`` line per instance gives the rung's
shape next to its layer numbers.  Every time is scaled to the reference
machine by the reference loops run around it (``ops.ReferenceClock``).

Every answer is checked outside the timed region (``checks.py``), and its
answer key is compared with the one recorded in ``answers.json`` for the
instance.  A wrong or unstable answer makes ``correct``
false; it, an exception (``RecursionError`` included) and a time-cap hit each
count as a failed operation and never abort the run.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from connjoin.cli import format_graft

from checks import join_problems, no_certificate, reference_nu
from ops import Outcome, ReferenceClock, call_counts, run_command
from spans import SPANS, traced_instance
from workloads import WORKLOADS, Instance, build

SETUP_REPEATS = 9  # set-ups before the first pass
MIN_PASSES = 3  # timed passes in an untraced run, however short
SETUP_SHARE = 0.1  # set-up seconds after each pass, per second of the pass
RECORDED = Path(__file__).resolve().parent / "answers.json"

END_TO_END = {"setup_s": "s", "pass_s": "s", "op_max_s": "s",
              "ok_frac": "frac", "peak_rss_mib": "MiB"}
SHAPE_COUNTS = ("components", "levels", "vertex_refs")


class Checker:
    """Judges every operation's output.

    The digest of each instance's first output is kept; a later output that
    differs is an unstable answer.  Each distinct output is judged once, and
    its answer key must equal the key in ``recorded``, where there is one.
    """

    def __init__(self, command: str, instances: list[Instance],
                 recorded: list[str | None]) -> None:
        self.command = command
        self.instances = instances
        self.recorded = recorded
        self.first_digest: dict[int, str] = {}
        self.keys: dict[int, str] = {}  # instance -> answer key
        self.judged: dict[tuple[int, str], str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong: dict[str, str] = {}  # instance label -> first wrong answer
        self.errors: dict[str, str] = {}  # instance label -> first failure

    def record(self, i: int, outcome: Outcome) -> None:
        self.attempted += 1
        label = self.instances[i].label
        if outcome.error is not None:
            self.errors.setdefault(label, outcome.error)
            self.failed += 1
            return
        digest = hashlib.sha256(outcome.stdout.encode()).hexdigest()
        if self.first_digest.setdefault(i, digest) != digest:
            problem = "unstable answer"
        else:
            if (i, digest) not in self.judged:
                self.judged[(i, digest)] = self._judge(i, outcome)
            problem = self.judged[(i, digest)]
        if problem is not None:
            self.wrong.setdefault(label, problem)
            self.failed += 1

    def _judge(self, i: int, outcome: Outcome) -> str | None:
        inst = self.instances[i]
        try:
            doc = json.loads(outcome.stdout)
        except ValueError:
            return "output is not JSON"
        key = self.keys[i] = answer_key(self.command, doc)
        if self.recorded[i] is not None and key != self.recorded[i]:
            return f"answer {key!r}, recorded {self.recorded[i]!r}"
        if self.command == "verify":
            if outcome.code != 0 or not doc["ok"]:
                return f"decomposition violations {doc['violations']}"
            return None
        answer = doc["answer"]
        if (outcome.code, answer) not in ((0, "yes"), (1, "no")):
            return f"exit status {outcome.code} with answer {answer}"
        if answer == "no":
            if inst.expect_yes:
                return "generated-family instance answered no"
            if no_certificate(inst.graft) is None:
                return "no answer without a pair certificate"
            return None
        nu = reference_nu(inst)
        return "; ".join(join_problems(inst.graft, doc["join"], nu)) or None

    def digest(self) -> str:
        joined = "\n".join(self.keys.get(i, "-") for i in range(len(self.instances)))
        return hashlib.sha256(joined.encode()).hexdigest()


def answer_key(command: str, doc: dict) -> str:
    """What an output must repeat across runs and commits: for ``check`` the
    answer with its NO stage or YES join size (the join itself is checked by
    traversal), for ``verify`` the verdict and the components checked."""
    if command == "verify":
        return f"{'ok' if doc['ok'] else 'violations'} {doc['components_checked']}"
    if doc["answer"] == "yes":
        return f"yes {len(doc['join'])}"
    return f"no {doc['stage']}"


def recorded_keys(workload: str, count: int) -> list[str | None]:
    """The workload's recorded answer keys, or None per instance.

    The keys hold for every seed: a seed draws only what leaves the answer
    unchanged (labels that keep the root, edge order, caterpillar legs).
    """
    recorded = json.loads(RECORDED.read_text()).get(workload)
    if recorded is None:
        return [None] * count
    if len(recorded) != count:
        raise RuntimeError(f"{RECORDED.name} holds {len(recorded)} answers for "
                           f"{workload}, the ladder has {count}")
    return recorded


def write_instances(instances: list[Instance], workdir) -> list[str]:
    """Write each instance as a graft file; the paths, in instance order."""
    paths = []
    for i, inst in enumerate(instances):
        path = Path(workdir) / f"{i:02d}-{inst.label}.graft"
        path.write_text(format_graft(inst.graft), encoding="ascii")
        paths.append(str(path))
    return paths


class SetUp:
    """Builds the workload's instances and writes them as graft files,
    timing every repeat: the whole set-up, and the library calls inside it.

    The speed of a shared machine drifts over seconds, so the untraced run
    also sets up again after each pass: set-up is then sampled over the same
    spells as the operations, not only in the first seconds of the run.
    """

    def __init__(self, workload: str, seed: int, workdir: Path,
                 clock: ReferenceClock) -> None:
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.clock = clock
        self.seconds: list[float] = []
        self.library_seconds: list[float] = []

    def once(self) -> tuple[list[Instance], list[str]]:
        gc.collect()
        before = self.clock.loop()
        start = time.perf_counter()
        instances, library_s = build(self.workload, self.seed)
        paths = write_instances(instances, self.workdir)
        seconds = time.perf_counter() - start
        after = self.clock.loop()
        self.seconds.append(self.clock.scale(seconds, before, after))
        self.library_seconds.append(self.clock.scale(library_s, before, after))
        return instances, paths

    def repeat_for(self, seconds: float) -> None:
        """Set up again, at least once, until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        self.once()
        while time.perf_counter() < deadline:
            self.once()


def run_pass(command: str, paths: list[str], checker: Checker,
             clock: ReferenceClock,
             profilers: list[cProfile.Profile] | None = None) -> list[float]:
    """One operation per instance; the seconds of each operation on the
    reference machine.  A reference loop runs between operations, so each
    operation has one just before it and one just after it."""
    seconds = []
    before = clock.loop()
    for i, path in enumerate(paths):
        profiler = None if profilers is None else profilers[i]
        gc.collect()  # each operation starts on a clean heap, as a new CLI process does
        outcome = run_command(command, path, profiler)
        after = clock.loop()
        seconds.append(clock.scale(outcome.seconds, before, after))
        before = after
        checker.record(i, outcome)
    return seconds


def median_of(values) -> float:
    return statistics.median(list(values))


def end_to_end(command, paths, checker, seconds, set_up: SetUp,
               clock: ReferenceClock) -> dict:
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(command, paths, checker, clock))
        set_up.repeat_for(SETUP_SHARE * sum(passes[-1]))
    # Each instance is timed by the median of its scaled operation times.
    op_s = [median_of(p[i] for p in passes) for i in range(len(paths))]
    rungs: dict[str, list[float]] = {}
    for inst, op_seconds in zip(checker.instances, op_s):
        print(f"op {inst.label} median_s {op_seconds:.6f}")
        rungs.setdefault(inst.rung, []).append(op_seconds)
    print(f"passes {len(passes)} setups {len(set_up.seconds)}")
    print_reference(clock)
    return {
        "setup_s": statistics.median(set_up.seconds),
        "pass_s": sum(op_s),
        "op_max_s": max(statistics.fmean(times) for times in rungs.values()),
        "ok_frac": (checker.attempted - checker.failed) / checker.attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pass(command: str, paths: list[str],
                clock: ReferenceClock) -> list[dict]:
    """One traced row per instance, its spans scaled like an operation."""
    rows = []
    before = clock.loop()
    for path in paths:
        gc.collect()
        row = traced_instance(command, path)
        after = clock.loop()
        row["spans"] = {name: clock.scale(value, before, after)
                        for name, value in row["spans"].items()}
        row["pipeline_s"] = clock.scale(row["pipeline_s"], before, after)
        before = after
        rows.append(row)
    return rows


def per_layer(command, paths, checker, seconds, gen_s,
              clock: ReferenceClock) -> tuple[dict, dict]:
    profilers = [cProfile.Profile() for _ in paths]
    run_pass(command, paths, checker, clock, profilers)
    counts = [call_counts(p) for p in profilers]

    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(sum(run_pass(command, paths, checker, clock)))
        traced.append(traced_pass(command, paths, clock))

    metrics = {name: median_of(sum(r["spans"][name] for r in rows)
                               for rows in traced) for name in SPANS}
    units = dict.fromkeys(SPANS, "s")
    metrics["decomposition.self_s"] = median_of(
        sum(r["spans"]["decomposition.build_s"]
            - r["spans"]["distances.f_distances_s"] for r in rows)
        for rows in traced)
    units["decomposition.self_s"] = "s"
    for name in counts[0]:
        metrics[name] = sum(c[name] for c in counts)
        units[name] = "count"
    for key in SHAPE_COUNTS:
        metrics[f"decomposition.{key}"] = sum(r.get(key, 0) for r in traced[0])
        units[f"decomposition.{key}"] = "count"
    metrics["constructive.gen_s"] = gen_s
    units["constructive.gen_s"] = "s"
    metrics["trace.overhead_frac"] = (
        median_of(sum(r["pipeline_s"] for r in rows) for rows in traced)
        / median_of(untraced) - 1)
    units["trace.overhead_frac"] = "frac"

    for i, inst in enumerate(checker.instances):
        first = traced[0][i]
        row = {"instance": inst.label,
               **{key: first.get(key) for key in ("n", "m", "k", *SHAPE_COUNTS)},
               **counts[i], "error": first["error"],
               **{name: median_of(rows[i]["spans"][name] for rows in traced)
                  for name in SPANS}}
        print("row " + json.dumps(row))
    print(f"traced_passes {len(traced)}")
    print_reference(clock)
    return metrics, units


def print_reference(clock: ReferenceClock) -> None:
    """The run's reference loops, from which its raw seconds follow."""
    print(f"reference_loops {len(clock.loops)} "
          f"median_s {median_of(clock.loops):.6f} min_s {min(clock.loops):.6f}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work_root: Path) -> None:
    """One benchmark run; prints the result as the last line of stdout."""
    command, _ = WORKLOADS[workload]
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        clock = ReferenceClock()
        set_up = SetUp(workload, seed, workdir, clock)
        for _ in range(SETUP_REPEATS):
            instances, paths = set_up.once()
        checker = Checker(command, instances,
                          recorded_keys(workload, len(instances)))
        # The harness's own long-lived objects are left out of the cyclic
        # collector's scans, which a CLI process would not make either.
        gc.collect()
        gc.freeze()
        run_pass(command, paths, checker, clock)  # warm-up: checked, not in the metrics
        if trace:
            metrics, units = per_layer(command, paths, checker, seconds,
                                       statistics.median(set_up.library_seconds),
                                       clock)
        else:
            metrics = end_to_end(command, paths, checker, seconds, set_up, clock)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # not empty: another run is using it

    for label, error in checker.errors.items():
        print(f"failed {label}: {error}")
    for label, problem in checker.wrong.items():
        print(f"wrong {label}: {problem}")
    print(f"answers_digest {checker.digest()}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": not checker.wrong,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
