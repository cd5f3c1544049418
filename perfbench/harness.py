"""Measurement loop: units run in seeded order until the time is up.

A pass runs every unit of the workload once, in an order drawn from the
seed. Passes repeat, unit by unit, until the next unit would end past the
run's time budget; the first pass always runs whole. Set-up
(``Unit.build``) is timed apart from the work (``Unit.run``).

``wall_s`` is the sum over groups of each group's median time: it
estimates the time one pass over the input set takes, without letting a
slow spell of the machine in one pass decide the figure. A traced run
spends the first half of its budget on untraced whole passes and the rest
on traced whole passes, so that the counters are exact per pass and the
tracing overhead is measured in the same process.

Times are reported at a reference machine speed. On a machine shared with
other tenants the speed of one core drifts by 15-60% within minutes
(measured on 2 shared x86_64 cores), which moves every run of a workload
alike. A short fixed pure-Python reference loop therefore runs before every
group and once at the end of each phase. Each group's time is multiplied by
``REFERENCE_S`` over the mean time of the two loops around it, and set-up
times by ``REFERENCE_S`` over the median loop time of the phase. The loop
does not touch filterlab, so no change to the program moves it. Raw times,
the loop times and the scale factors are kept in the run record.
"""

from __future__ import annotations

import bisect
import random
import resource
import statistics
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from tracing import Tracer
from workloads import GroupOutcome, Unit

# Extra set-up-only builds before each unit of an untraced run, so that
# setup_s is a median of many builds spread over the whole run.
EXTRA_BUILDS = 6
REFERENCE_ITERATIONS = 15000
# The reference loop's median time on the machine the bounds were set on
# (2 shared x86_64 cores, Python 3.11): scaled figures are close to raw
# seconds there.
REFERENCE_S = 0.022


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> float:
    """Time a fixed loop of tuple and dict work, like collection's."""
    t0 = time.perf_counter()
    seen: Dict[tuple, int] = {}
    x = (0,) * 8
    for i in range(iterations):
        x = tuple((a + i) % 3 for a in x)
        seen[x] = seen.get(x, 0) + 1
    return time.perf_counter() - t0


@dataclass
class UnitRun:
    unit: str
    builds: List[float]  # set-up times, the measured build last
    wall_s: float
    outcomes: List[GroupOutcome]
    traced: bool = False
    scale: float = 1.0  # set-up time scale: reference speed over the phase's speed


@dataclass
class RunResult:
    runs: List[UnitRun]
    metrics: Dict[str, float]
    tracer: Optional[Tracer]
    failures: List[str]
    references: List[Tuple[float, float]]  # (start, seconds) of each reference loop

    @property
    def attempted(self) -> int:
        return sum(len(r.outcomes) for r in self.runs)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs for o in r.outcomes if o.problems)


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def timed_build(u: Unit) -> float:
    """Build the unit's inputs and discard them; returns the time taken."""
    t0 = time.perf_counter()
    try:
        u.build()
    except Exception:
        pass  # the measured build that follows records the failure
    return time.perf_counter() - t0


def run_unit(
    u: Unit,
    tracer: Optional[Tracer],
    extra_builds: int,
    before_group: Callable[[], None],
) -> UnitRun:
    """Build and run one unit; a raising unit fails every group it covers."""
    builds = [timed_build(u) for _ in range(extra_builds)]
    t0 = time.perf_counter()
    try:
        inputs = u.build()
    except Exception as exc:
        builds.append(time.perf_counter() - t0)
        failed = [GroupOutcome(g, 0.0, [f"set-up raised {_describe(exc)}"]) for g in u.groups()]
        return UnitRun(u.name, builds, 0.0, failed, tracer is not None)
    t1 = time.perf_counter()
    builds.append(t1 - t0)
    if tracer is not None:
        tracer.enabled = True
    try:
        outcomes = u.run(inputs, before_group)
    except Exception as exc:
        outcomes = [GroupOutcome(g, 0.0, [f"raised {_describe(exc)}"]) for g in u.groups()]
    finally:
        if tracer is not None:
            tracer.enabled = False
            tracer.end_unit()
    return UnitRun(u.name, builds, time.perf_counter() - t1, outcomes, tracer is not None)


def _schedule(units, rng, end, whole_passes, last):
    """Units of passes in a fresh seeded order each, until the next unit (or,
    with ``whole_passes``, the next pass) would end past ``end``, judged by
    ``last``, the latest time of each unit. The first pass always runs whole."""
    while True:
        if last and whole_passes and time.perf_counter() + sum(last.values()) > end:
            return
        for u in rng.sample(list(units), len(units)):
            if len(last) == len(units) and not whole_passes:
                if time.perf_counter() + last[u.name] > end:
                    return
            yield u


def run_until(
    units: Sequence[Unit],
    rng: random.Random,
    end: float,
    tracer: Optional[Tracer] = None,
    whole_passes: bool = False,
    extra_builds: int = 0,
) -> Tuple[List[UnitRun], List[Tuple[float, float]]]:
    """Run units as ``_schedule`` picks them, until ``end``, with a reference
    loop before every group; returns the unit runs and the (start, seconds)
    of every reference loop."""
    runs: List[UnitRun] = []
    refs: List[Tuple[float, float]] = []  # (start, seconds) of each reference loop

    def sample() -> None:
        refs.append((time.perf_counter(), reference_loop()))

    last: Dict[str, float] = {}
    for u in _schedule(units, rng, end, whole_passes, last):
        t0 = time.perf_counter()
        runs.append(run_unit(u, tracer, extra_builds, sample))
        last[u.name] = time.perf_counter() - t0
    sample()
    scale = REFERENCE_S / statistics.median(d for _, d in refs)
    starts = [t for t, _ in refs]
    for r in runs:
        r.scale = scale
        for o in r.outcomes:
            # refs[i - 1] ran right before the group and refs[i] right after it
            i = min(max(bisect.bisect_right(starts, o.start), 1), len(refs) - 1)
            o.scale = REFERENCE_S / ((refs[i - 1][1] + refs[i][1]) / 2)
    return runs, refs


def _medians(values: Dict[str, List[float]]) -> Dict[str, float]:
    return {k: statistics.median(v) for k, v in values.items()}


def group_medians(runs: Sequence[UnitRun]) -> Dict[str, float]:
    """Each group's median scaled time."""
    per_group: Dict[str, List[float]] = {}
    for r in runs:
        for o in r.outcomes:
            per_group.setdefault(o.group, []).append(o.seconds * o.scale)
    return _medians(per_group)


def pass_time(runs: Sequence[UnitRun]) -> float:
    """Sum over groups of each group's median scaled time."""
    return sum(group_medians(runs).values())


def end_to_end(runs: Sequence[UnitRun]) -> Dict[str, float]:
    builds: Dict[str, List[float]] = {}
    for r in runs:
        builds.setdefault(r.unit, []).extend(b * r.scale for b in r.builds)
    return {
        "wall_s": pass_time(runs),
        "slowest_group_s": max(group_medians(runs).values()),
        "setup_s": sum(_medians(builds).values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure(units: Sequence[Unit], seed: int, seconds: float, trace: bool) -> RunResult:
    """One run of ``seconds`` seconds; end-to-end metrics, or per-layer ones
    when ``trace`` is set."""
    start = time.perf_counter()
    rng = random.Random(seed)
    tracer = None
    if not trace:
        runs, refs = run_until(units, rng, start + seconds, extra_builds=EXTRA_BUILDS)
        metrics = end_to_end(runs)
    else:
        plain, refs = run_until(units, rng, start + seconds / 2, whole_passes=True)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_refs = run_until(units, rng, start + seconds, tracer, whole_passes=True)
        finally:
            tracer.uninstall()
        runs, refs = plain + traced, refs + traced_refs
        metrics = tracer.per_layer(len(traced) // len(units), pass_time(traced) / pass_time(plain))
    failures = [f"{o.group}: {msg}" for r in runs for o in r.outcomes for msg in o.problems]
    return RunResult(runs, metrics, tracer, failures, refs)
