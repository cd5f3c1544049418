"""The shipped census JSON, the recorded ladder refinement reports and the
recorded ``report --stages scalars`` payloads, checked byte for byte or field
for field against a fresh run."""

import json
import subprocess
import sys

import pytest

from filterlab import cli
from filterlab.pcgroup import direct_product, parse_pcg_file
from filterlab.refine import refine_to_fixpoint, report_to_json

from conftest import CORPUS, ROOT


def test_census_script_output_matches_artifacts(tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_census.py"), "--out", str(tmp_path)],
        check=True,
        capture_output=True,
    )
    for name in ("order16", "order81"):
        got = (tmp_path / f"census_{name}.json").read_bytes()
        assert got == (ROOT / "artifacts" / f"census_{name}.json").read_bytes(), name


@pytest.mark.parametrize(
    "name, factors",
    [
        ("h27xh27", ("h27", "h27")),
        ("maxclass1xc3", ("g81_12_maxclass1", "c3")),
        ("d8xc2", ("d8", "c2")),
        ("d8xq8xd8", ("d8", "q8", "d8")),
        ("h27xh27xc3", ("h27", "h27", "c3")),
    ],
)
def test_ladder_reports_match_reference(name, factors):
    reference = json.loads((ROOT / "perfbench" / "reference" / "ladder.json").read_text())
    parts = [parse_pcg_file(next(CORPUS.glob(f"**/{f}.pcg"))) for f in factors]
    G = parts[0]
    for H in parts[1:]:
        G = direct_product(G, H)
    report = report_to_json(refine_to_fixpoint(G, group_id=name))
    del report["runtime_ms"]
    assert report == reference[name]


def test_scalars_stage_matches_reference():
    """``scalars_stage_reference.json`` holds the scalars payload of every
    file in corpus/{basic,order16,order81,products}, recorded before the
    emissions of all rings were merged into one deduplicated list; the
    ``emitted`` counts depend on that deduplication."""
    reference = json.loads((ROOT / "tests" / "scalars_stage_reference.json").read_text())
    got = {}
    for d in ("basic", "order16", "order81", "products"):
        for path in sorted((CORPUS / d).glob("*.pcg")):
            G = parse_pcg_file(path)
            got[f"{d}/{path.stem}"] = cli._stage_payloads(G, ["scalars"])["scalars"]
    assert len(got) == 46
    assert got == reference
