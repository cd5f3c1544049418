"""Smoke tests of the benchmark itself: each workload on one small group.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

CORPUS = ROOT / "corpus"
CENSUS_GROUP = "g16_03_c2sq_rtimes_c4"  # flagged by Der, refined twice


def census_expectation(entry: dict, name: str) -> str:
    """The census JSON of a directory holding only the group ``name``."""
    flagged = entry["flagged"]
    bucket = {
        "total": 1,
        "flagged": int(flagged),
        "proportion": float(flagged),
        "by_ring": {r: int(flagged and r in entry["flagged_by"]) for r in ("Der", "Mid", "Cent")},
    }
    summary = {"orders": {str(entry["order"]): bucket}, "groups": {name: entry}, "skipped": []}
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


def one_group_census(tmp_path, corrupt=False):
    entry = json.loads((ROOT / "artifacts" / "census_order16.json").read_text())["groups"][CENSUS_GROUP]
    if corrupt:
        entry = dict(entry, classification="classical")
    directory = tmp_path / "order16"
    directory.mkdir(parents=True)
    shutil.copy(CORPUS / "order16" / f"{CENSUS_GROUP}.pcg", directory)
    expected = tmp_path / "expected.json"
    expected.write_text(census_expectation(entry, CENSUS_GROUP))
    return workloads.census_units([(directory, expected)])


def small_units(name, tmp_path):
    if name == "census":
        return one_group_census(tmp_path)
    if name == "ladder":
        return workloads.ladder_units(workloads.LADDER_SMOKE)
    return workloads.verify_units(5, [CORPUS / "basic" / "d8.pcg"])


@pytest.mark.parametrize("name", ["census", "ladder", "verify"])
def test_workload_on_one_group_reports_every_metric(name, tmp_path):
    plain = harness.measure(small_units(name, tmp_path / "plain"), seed=1, seconds=0, trace=False)
    assert plain.failures == []
    assert plain.failed == 0 and plain.attempted == 1
    for m in metrics.END_TO_END:
        assert plain.metrics[m.name] > 0, m.name
    traced = harness.measure(small_units(name, tmp_path / "traced"), seed=1, seconds=0, trace=True)
    assert traced.failed == 0 and traced.attempted == 2
    assert {m.name for m in metrics.PER_LAYER} <= set(traced.metrics)
    assert traced.metrics["trace.overhead_ratio"] > 0
    if name == "verify":
        assert traced.metrics["series.Layering.boundary_at.calls"] > 0
        assert traced.metrics["pcgroup.enumerated_elements"] > 0
        assert traced.metrics["scalars.all_rings.calls"] == 0
    else:
        assert traced.metrics["refine.refine_to_fixpoint.calls"] > 0


def fail_ratio(result) -> float:
    return result.failed / result.attempted


def test_wrong_census_expectation_fails(tmp_path):
    result = harness.measure(one_group_census(tmp_path, corrupt=True), seed=1, seconds=0, trace=False)
    assert fail_ratio(result) > 0


def test_wrong_ladder_reference_fails():
    reference = workloads.load_ladder_reference()
    name = workloads.LADDER_SMOKE[0][0]
    reference[name] = dict(reference[name], classification="classical")
    units = workloads.ladder_units(workloads.LADDER_SMOKE, reference)
    assert fail_ratio(harness.measure(units, seed=1, seconds=0, trace=False)) > 0


def test_verify_reports_a_broken_group(tmp_path):
    bad = tmp_path / "bad.pcg"
    bad.write_text("p 2\nn 3\npow 1 = g2\ncomm 2 1 = g3\n")  # g1 and g1^2 do not commute
    units = workloads.verify_units(5, [CORPUS / "basic" / "d8.pcg", bad])
    result = harness.measure(units, seed=1, seconds=0, trace=False)
    assert result.attempted == 2 and result.failed == 1
    assert any("bad" in f for f in result.failures)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = ["--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable if c == "python3" else c for c in spec["command"]] + args,
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
