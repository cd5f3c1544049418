"""The benchmark's three workloads: census, ladder and verify.

A workload is a list of units run one after another in one process
(closed loop, one client). A unit builds its own inputs (set-up, timed
apart from the work), runs the workload's computation and checks the
output. The result of a unit is one ``GroupOutcome`` per group it covers;
a group fails if its computation raises, gives a wrong output or reports
any violation.

- ``census`` units are corpus directories, each run through
  ``census.run_census`` and compared byte for byte with the shipped
  artifact.
- ``ladder`` units are direct products refined by
  ``refine.refine_to_fixpoint`` and compared with a recorded reference.
- ``verify`` units are corpus groups put through the checks of
  ``filterlab verify`` plus the ``aut`` report stage.

The workload seed orders the units and draws the random samples of
``verify``; the groups themselves are fixed.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from filterlab import autfilter, census, lie, oracle, pcgroup, refine, series

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference"
HALL_WITT_TRIPLES = 100
INTEGRAL_TRIALS = 200  # the trial count `filterlab verify` uses
ORACLE_LIMIT = 2 ** 10  # the order cap `filterlab verify` uses


@dataclass
class GroupOutcome:
    group: str
    seconds: float
    problems: List[str] = field(default_factory=list)
    start: float = 0.0  # perf_counter() when the group started
    scale: float = 1.0  # set by the harness: reference speed over the machine's speed


def _nothing() -> None:
    pass


class Unit:
    """One step of a pass: ``build`` is set-up, ``run`` is the measured work.

    ``build`` returns the inputs of ``run`` and raises on bad input; ``run``
    returns one outcome per group and calls ``before_group`` right before it
    starts timing each group. If either raises, every group named by
    ``groups`` fails.
    """

    name: str

    def build(self):
        raise NotImplementedError

    def run(self, inputs, before_group: Callable[[], None] = _nothing) -> List[GroupOutcome]:
        raise NotImplementedError

    def groups(self) -> List[str]:
        return [self.name]


# -- census ----------------------------------------------------------------


class CensusUnit(Unit):
    """``run_census`` over one directory; output must equal ``expected``."""

    def __init__(self, directory: Path, expected: Path):
        self.directory = Path(directory)
        self.expected = Path(expected)
        self.name = self.directory.name

    def groups(self) -> List[str]:
        return sorted(p.stem for p in self.directory.glob("**/*.pcg"))

    def build(self):
        # run_census parses every file itself; set-up validates the inputs
        # (parse plus consistency check) and loads the expected bytes.
        for path in sorted(self.directory.glob("**/*.pcg")):
            pcgroup.parse_pcg_file(path)
        return self.expected.read_text()

    def run(self, expected_text: str, before_group=_nothing) -> List[GroupOutcome]:
        times: Dict[str, Tuple[float, float]] = {}
        errors: Dict[str, str] = {}
        analyze = census.analyze_file

        def timed_analyze(path_str):
            before_group()
            t0 = time.perf_counter()
            try:
                return analyze(path_str)
            except Exception as exc:  # one bad group must not hide the rest
                errors[Path(path_str).stem] = f"{type(exc).__name__}: {exc}"
                return census.GroupResult(Path(path_str).stem, 0, "", [], [], error=str(exc))
            finally:
                times[Path(path_str).stem] = (t0, time.perf_counter() - t0)

        census.analyze_file = timed_analyze
        try:
            summary = census.run_census(self.directory, jobs=1)
        finally:
            census.analyze_file = analyze
        got = summary.to_json()
        want = json.loads(expected_text)
        # the bytes scripts/run_census.py writes
        whole_ok = json.dumps(got, sort_keys=True, indent=2) + "\n" == expected_text
        out = []
        for g in sorted(set(self.groups()) | set(want["groups"])):
            problems = []
            if g in errors:
                problems.append(f"raised {errors[g]}")
            elif got["groups"].get(g) != want["groups"].get(g):
                problems.append("group entry differs from the expected census")
            start, seconds = times.get(g, (0.0, 0.0))
            out.append(GroupOutcome(g, seconds, problems, start))
        if not whole_ok and not any(o.problems for o in out):
            # every group is right but the summary is not: all of them fail
            for o in out:
                o.problems.append("census JSON differs from the expected bytes")
        return out


def census_units(
    sets: Sequence[Tuple[Path, Path]] = (
        (ROOT / "corpus" / "order16", ROOT / "artifacts" / "census_order16.json"),
        (ROOT / "corpus" / "order81", ROOT / "artifacts" / "census_order81.json"),
    ),
) -> List[Unit]:
    return [CensusUnit(d, e) for d, e in sets]


# -- ladder ----------------------------------------------------------------

LADDER = (
    ("maxclass1xc3", ("order81/g81_12_maxclass1", "basic/c3")),
    ("d8xq8xd8", ("basic/d8", "basic/q8", "basic/d8")),
    ("h27xh27", ("basic/h27", "basic/h27")),
    ("h27xh27xc3", ("basic/h27", "basic/h27", "basic/c3")),
)
# Small products recorded with the ladder so that tests can run a ladder unit
# in a fraction of a second.
LADDER_SMOKE = (("d8xc2", ("basic/d8", "basic/c2")),)


def build_product(factors: Sequence[str]) -> pcgroup.PcGroup:
    parts = [pcgroup.parse_pcg_file(ROOT / "corpus" / f"{f}.pcg") for f in factors]
    G = parts[0]
    for H in parts[1:]:
        G = pcgroup.direct_product(G, H)
    return G


def ladder_report(G: pcgroup.PcGroup, name: str) -> dict:
    """The refinement report of G, without its run time."""
    report = refine.report_to_json(refine.refine_to_fixpoint(G, group_id=name))
    del report["runtime_ms"]
    return report


class LadderUnit(Unit):
    def __init__(self, name: str, factors: Sequence[str], expected: dict):
        self.name = name
        self.factors = tuple(factors)
        self.expected = expected

    def build(self):
        G = build_product(self.factors)
        bad = G.consistency_violations()
        if bad:
            raise pcgroup.PcgError("inconsistent product: " + bad[0])
        return G

    def run(self, G, before_group=_nothing) -> List[GroupOutcome]:
        before_group()
        t0 = time.perf_counter()
        report = ladder_report(G, self.name)
        elapsed = time.perf_counter() - t0
        problems = []
        if report != self.expected:
            problems.append("refinement report differs from the reference")
        return [GroupOutcome(self.name, elapsed, problems, t0)]


def load_ladder_reference() -> dict:
    return json.loads((REFERENCE / "ladder.json").read_text())


def ladder_units(entries=LADDER, reference: Optional[dict] = None) -> List[Unit]:
    reference = load_ladder_reference() if reference is None else reference
    return [LadderUnit(name, factors, reference.get(name)) for name, factors in entries]


# -- verify ----------------------------------------------------------------


def _hall_witt(G, rng) -> List[str]:
    pool = list(G.elements()) if G.order <= 512 else None
    for _ in range(HALL_WITT_TRIPLES):
        if pool is not None:
            x, y, z = (rng.choice(pool) for _ in range(3))
        else:
            x, y, z = (tuple(rng.randrange(G.p) for _ in range(G.n)) for _ in range(3))
        a = G.conjugate(G.commutator(G.commutator(x, G.inverse(y)), z), y)
        b = G.conjugate(G.commutator(G.commutator(y, G.inverse(z)), x), z)
        c = G.conjugate(G.commutator(G.commutator(z, G.inverse(x)), y), x)
        if G.multiply(G.multiply(a, b), c) != G.identity:
            return [f"hall-witt fails at {x},{y},{z}"]
    return []


def verify_checks(G, seed: int) -> List[Tuple[str, List[str]]]:
    """The suite of ``filterlab verify`` (after its consistency check) plus
    the ``aut`` report stage, with the random draws taken from ``seed``."""
    out: List[Tuple[str, List[str]]] = []
    if G.order <= ORACLE_LIMIT:
        T = oracle.cayley_from_pc(G)
        out.append(("oracle-equivalence", oracle.check_equiv(G, T).discrepancies))
    out.append(("hall-witt", _hall_witt(G, random.Random(seed))))
    lc = series.lower_central(G)
    ep = series.exponent_p_lcs(G)
    uc = series.upper_central(G)
    out += [
        ("filter-axioms (lower central)", [str(v) for v in series.verify_filter(lc)]),
        ("filter-axioms (exponent-p)", [str(v) for v in series.verify_filter(ep)]),
        ("layering-axioms (upper central)", [str(v) for v in series.verify_layering(uc)]),
        ("sift (gamma, zeta)", [str(v) for v in series.verify_sift(lc, uc)]),
        ("sift (eta, zeta)", [str(v) for v in series.verify_sift(ep, uc)]),
    ]
    L = lie.graded_lie_ring(ep)
    out.append(("jacobi", lie.check_jacobi(L)))
    out.append(("alternating", lie.check_alternating(L)))
    try:
        M = lie.graded_module(ep, uc, L)
    except lie.NonElementaryAbelianError:
        pass  # verify skips the matrix law for such groups
    else:
        out.append(("module-law (matrix)", lie.check_module_law(L, M)))
    out.append(
        (
            "module-law (integral)",
            lie.check_module_law_integral(lc, uc, trials=INTEGRAL_TRIALS, seed=seed),
        )
    )
    gens = autfilter.central_automorphisms(G)
    if gens:
        rep = autfilter.delta_layer_dims(gens, ep)
        out.append(("aut pair law", rep.pair_violations))
    return out


class VerifyUnit(Unit):
    def __init__(self, path: Path, seed: int):
        self.path = Path(path)
        self.name = self.path.stem
        self.seed = seed

    def build(self):
        # verify parses without the consistency gate and checks it itself
        G = pcgroup.parse_pcg_file(self.path, check=False)
        bad = G.consistency_violations(limit=3)
        if bad:
            raise pcgroup.PcgError("inconsistent presentation: " + bad[0])
        return G

    def run(self, G, before_group=_nothing) -> List[GroupOutcome]:
        before_group()
        t0 = time.perf_counter()
        checks = verify_checks(G, self.seed)
        elapsed = time.perf_counter() - t0
        problems = [f"{name}: {msg}" for name, bad in checks for msg in bad[:3]]
        return [GroupOutcome(self.name, elapsed, problems, t0)]


# The maximal-class groups of both orders: a full pass over the 29 groups of
# the census takes about 26 s, too long for several passes in one run, and
# these carry most of the meet cost of the integral module law.
VERIFY_GROUPS = (
    "order16/g16_07_d16",
    "order16/g16_08_sd16",
    "order16/g16_09_q16",
    "order81/g81_12_maxclass1",
    "order81/g81_13_maxclass2",
    "order81/g81_14_maxclass3",
    "order81/g81_15_maxclass4",
)


def group_seed(seed: int, name: str) -> int:
    """Per-group seed for the random draws; the same for every pass."""
    return random.Random(f"{seed}:{name}").randrange(2 ** 31)


def verify_units(seed: int, paths: Optional[Sequence[Path]] = None) -> List[Unit]:
    if paths is None:
        paths = [ROOT / "corpus" / f"{g}.pcg" for g in VERIFY_GROUPS]
    return [VerifyUnit(p, group_seed(seed, Path(p).stem)) for p in paths]


WORKLOADS: Dict[str, Callable[[int], List[Unit]]] = {
    "census": lambda seed: census_units(),
    "ladder": lambda seed: ladder_units(),
    "verify": verify_units,
}
