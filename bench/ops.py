"""One operation: a ``connjoin`` subcommand run in-process, capped and captured;
and the reference loop that its seconds are scaled by."""

from __future__ import annotations

import contextlib
import cProfile
import io
import pstats
import signal
import time
from dataclasses import dataclass

from connjoin import cli

# A hit on this cap counts as a failed operation; it never aborts the run.
OP_CAP_S = 10.0

# The reference loop: a fixed pure-Python dict-and-sort loop, and the seconds
# it is taken to last on the reference machine.  It is the benchmark's own
# code, so it stays the same from commit to commit.
REFERENCE_ITERATIONS = 60_000
REFERENCE_S = 0.010

# (module file, function) whose profiler call counts are the work counters.
COUNTED = {
    "matching.solves": ("matching.py", "max_weight_matching"),
    "tjoin.bfs_runs": ("tjoin.py", "_hop_distances"),
}


class TimeCapHit(Exception):
    """Raised inside an operation that ran past its cap."""


def _on_alarm(signum, frame):
    raise TimeCapHit()


@contextlib.contextmanager
def capped(seconds: float):
    """Raise TimeCapHit in the body once ``seconds`` of wall time pass."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    seconds: float
    code: int | None  # CLI exit status; None when the call raised
    stdout: str
    error: str | None  # why the operation failed, or None


def run_command(command: str, path: str,
                profiler: cProfile.Profile | None = None) -> Outcome:
    """``connjoin <command> <path> --format json``; only the call is timed."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            with capped(OP_CAP_S):
                if profiler is not None:
                    profiler.enable()
                try:
                    code = cli.main([command, path, "--format", "json"])
                finally:
                    if profiler is not None:
                        profiler.disable()
        except TimeCapHit:
            error = "time-cap"
        except Exception as exc:  # RecursionError included: a failure, not an abort
            error = type(exc).__name__
        seconds = time.perf_counter() - start
    if code == 2:  # a guard or internal error, reported on stderr
        error = f"exit status 2: {err.getvalue().strip()}"
    return Outcome(seconds, code, out.getvalue(), error)


class ReferenceClock:
    """Scales the seconds of a piece of work to the reference machine.

    The speed of a shared machine drifts by a third over minutes, and the
    drift slows the reference loop as much as the program.  A piece of work
    is timed between a reference loop run just before it and one run just
    after it; its seconds times ``REFERENCE_S`` over the mean of the two
    loops are its seconds on a machine where the loop takes ``REFERENCE_S``.
    """

    def __init__(self) -> None:
        self.loops: list[float] = []  # seconds of every loop run

    def loop(self) -> float:
        """Run the reference loop once; its seconds."""
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(REFERENCE_ITERATIONS):
            counts[i % 977] = counts.get(i % 977, 0) + i
        sorted(counts.values())
        seconds = time.perf_counter() - start
        self.loops.append(seconds)
        return seconds

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """``seconds`` of work timed between loops of ``before`` and
        ``after`` seconds, on the reference machine."""
        return seconds * 2 * REFERENCE_S / (before + after)


def call_counts(profiler: cProfile.Profile) -> dict[str, int]:
    """Exact calls of each COUNTED function seen by ``profiler``."""
    stats = pstats.Stats(profiler).stats
    counts = dict.fromkeys(COUNTED, 0)
    for (filename, _, func), (_, calls, _, _, _) in stats.items():
        for name, (file_end, func_name) in COUNTED.items():
            if func == func_name and filename.endswith(file_end):
                counts[name] += calls
    return counts
