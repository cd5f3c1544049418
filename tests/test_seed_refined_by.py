"""The census ring breakdown read off the seed table, checked against the
ring-restricted refinement it replaces, run to its fixpoint on every corpus
file."""

from types import SimpleNamespace

import pytest

from filterlab import census, refine, scalars
from filterlab.lie import graded_lie_ring
from filterlab.pcgroup import parse_pcg_file
from filterlab.series import exponent_p_lcs

from conftest import CORPUS, reference_candidates

PATHS = sorted(
    p for d in ("basic", "order16", "order81", "products") for p in (CORPUS / d).glob("*.pcg")
)

RING_PROVENANCES = {
    "Der": {"der"},
    "Mid": {"mid", "mid-idem"},
    "Cent": {"cent", "cent-idem"},
}


def _restricted_refinement_flagged(G, ring: str, gathered: dict) -> bool:
    """Refine with the candidates ``ring`` emits, without the bimap radicals,
    in the order of a run that emits for ``ring`` alone; insert the first that
    lifts, repeat until nothing inserts, then classify.  ``gathered`` maps a
    filter table to its candidates and its ring's components, for the three
    rings of one group."""
    provs = RING_PROVENANCES[ring]
    rank = scalars.PROVENANCE_RANK[ring.lower()]
    f = exponent_p_lcs(G)
    steps = []
    while len(steps) < refine.CAP:
        key = (f.monoid, tuple((m, f.value(m).igs) for m in f.grades()))
        if key not in gathered:
            L = graded_lie_ring(f)
            gathered[key] = reference_candidates(L)[0], L.comps
        candidates, comps = gathered[key]
        own = sorted(
            (c for c in candidates if provs & set(c[3])),
            key=lambda c: refine._candidate_sort_key(rank, c[1], c[2]),
        )
        for _, grade, basis, _ in own:
            try:
                H = refine.lift_subspace(comps[grade], basis)
                f = refine.insert_refinement(f, grade, H)
            except refine.RefinementError:
                continue
            steps.append(SimpleNamespace(igs=H.igs))
            break
        else:
            break
    return refine.classify(SimpleNamespace(steps=steps), G) == "non-semi-classical"


@pytest.mark.parametrize("path", PATHS, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_seed_refined_by_matches_restricted_refinement(path):
    G = parse_pcg_file(path)
    report = refine.refine_to_fixpoint(G, group_id=path.stem)
    gathered = {}
    for ring in census.BREAKDOWN_RINGS:
        want = _restricted_refinement_flagged(G, ring, gathered)
        assert refine.seed_refined_by(report, ring) == want, ring
