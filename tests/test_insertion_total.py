"""Every candidate inserts.  ``refine_to_fixpoint`` inserts the first
candidate of each table with no trial, and the census breakdown reads the
seed candidates with no insertion, on the strength of that lemma (proof in
the ``refine_to_fixpoint`` docstring).  Here every candidate of every table
on the first-candidate chain is lifted and inserted, for every corpus file
and every ladder product of the benchmark, and each insertion's chain is
checked against the box closure it replaced (``box_reference``), with the
box grown by a retry loop until one larger adds nothing, as it was sized
before the degree bound."""

import collections

import pytest

from filterlab import census, refine
from filterlab import monoid as mon
from filterlab.lie import graded_lie_ring
from filterlab.pcgroup import SubgroupOps, parse_pcg_file, subgroup_from_gens
from filterlab.series import exponent_p_lcs, verify_filter

from box_reference import box_closure, chain_mismatches
from conftest import CORPUS, corpus_paths, perfbench_workloads, reference_candidates

workloads = perfbench_workloads()

CASES = [
    pytest.param(lambda p=p: parse_pcg_file(p), id=f"{p.parent.name}/{p.stem}")
    for p in corpus_paths()
] + [
    pytest.param(lambda f=factors: workloads.build_product(f), id=name)
    for name, factors in workloads.LADDER
]


def _retry_insertion(box, table, s, H):
    """Box and table of the insertion into the box table (box, table) as it
    was: closures on (B, extra) and on the box one larger in every
    coordinate, with extra raised from 1 until the two agree under the
    clamp."""
    G = H.group
    ops = SubgroupOps(G)
    seeds = {m + (0,): table[m] for m in mon.box_enumerate(box)}
    seeds[s + (1,)] = subgroup_from_gens(G, H.igs)
    for extra in range(1, 2 * len(bin(G.order)) + 1):
        new = box + (extra,)
        out = box_closure(G, new, seeds, ops)
        big_box = tuple(b + 1 for b in new)
        big = box_closure(G, big_box, seeds, ops)
        if all(big[w] == out[mon.clamp(w, new)] for w in mon.box_enumerate(big_box)):
            return new, out
    raise AssertionError("refined filter does not stabilise in the new grade")


def _first_candidate_chain(G):
    """The steps of the first-candidate chain; on the way, every candidate
    of every table is lifted and inserted, and each insertion verified and
    compared with the box closure."""
    f = exponent_p_lcs(G)
    box, table = f.box, f.table
    steps = []
    while len(steps) < refine.CAP:
        L = graded_lie_ring(f)
        candidates, _ = reference_candidates(L)
        if not candidates:
            break
        inserted = []
        for _, grade, basis, provs in candidates:
            H = refine.lift_subspace(L.comps[grade], basis)
            out = refine.insert_refinement(f, grade, H)
            assert verify_filter(out) == []
            reference = _retry_insertion(box, table, grade, H)
            assert not chain_mismatches(out, *reference), grade
            step = refine.RefinementStep(grade, provs[0], f.value(grade).order // H.order, H.igs)
            inserted.append((step, out, reference))
        step, f, (box, table) = inserted[0]
        steps.append(step)
    return steps


@pytest.mark.parametrize("build", CASES)
def test_every_candidate_inserts(build):
    G = build()
    assert _first_candidate_chain(G) == refine.refine_to_fixpoint(G).steps


def test_one_closure_per_insertion(monkeypatch):
    """The chain closure needs no box to size: a census over order 16 runs
    one closure per insertion, with no retry and no check closure."""
    calls = collections.Counter()

    def count(name):
        original = getattr(refine, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(refine, name, counted)

    count("_close")
    count("insert_refinement")
    census.run_census(CORPUS / "order16")
    assert calls["insert_refinement"] > 0
    assert calls["_close"] == calls["insert_refinement"]
