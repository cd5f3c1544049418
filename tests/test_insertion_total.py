"""Every candidate inserts.  ``refine_to_fixpoint`` inserts the first
candidate of each table with no trial, and the census breakdown reads the
seed candidates with no insertion, on the strength of that lemma (proof in
the ``refine_to_fixpoint`` docstring).  Here every candidate of every table
on the first-candidate chain is lifted and inserted, for every corpus file
and every ladder product of the benchmark."""

import pytest

from filterlab import refine
from filterlab.lie import graded_lie_ring
from filterlab.pcgroup import parse_pcg_file
from filterlab.series import exponent_p_lcs, verify_filter

from conftest import corpus_paths, perfbench_workloads

workloads = perfbench_workloads()

CASES = [
    pytest.param(lambda p=p: parse_pcg_file(p), id=f"{p.parent.name}/{p.stem}")
    for p in corpus_paths()
] + [
    pytest.param(lambda f=factors: workloads.build_product(f), id=name)
    for name, factors in workloads.LADDER
]


def _first_candidate_chain(G):
    """The steps of the first-candidate chain; on the way, every candidate
    of every table is lifted and inserted, and each insertion verified."""
    f = exponent_p_lcs(G)
    steps = []
    while len(steps) < refine.CAP:
        candidates, _ = refine._gather_candidates(graded_lie_ring(f))
        if not candidates:
            break
        inserted = []
        for _, grade, basis, provs in candidates:
            H = refine.lift_subspace(G, f, grade, basis)
            out = refine.insert_refinement(f, grade, H)
            assert verify_filter(out) == []
            step = refine.RefinementStep(grade, provs[0], f.value(grade).order // H.order, H.igs)
            inserted.append((step, out))
        steps.append(inserted[0][0])
        f = inserted[0][1]
    return steps


@pytest.mark.parametrize("build", CASES)
def test_every_candidate_inserts(build):
    G = build()
    assert _first_candidate_chain(G) == refine.refine_to_fixpoint(G).steps
