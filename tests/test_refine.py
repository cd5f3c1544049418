import json

import numpy as np
import pytest

from filterlab import census, refine, series
from filterlab.autfilter import central_automorphisms
from filterlab.lie import graded_lie_ring
from filterlab.monoid import GradedMonoid
from filterlab.pcgroup import (
    Subgroup,
    direct_product,
    full_subgroup,
    parse_pcgroup,
    subgroup_from_gens,
    trivial_subgroup,
)
from filterlab.refine import (
    RefinementError,
    classify,
    insert_refinement,
    lift_subspace,
    refine_to_fixpoint,
    report_to_json,
    seed_refined_by,
)
from filterlab.series import Filter, exponent_p_lcs, verify_filter

from conftest import load


def test_lift_rejects_trivial_input():
    G = load("g16_11_d8xc2")
    comp = graded_lie_ring(exponent_p_lcs(G)).comps[(1,)]
    with pytest.raises(RefinementError):
        lift_subspace(comp, np.zeros((1, 3), dtype=np.int64))
    with pytest.raises(RefinementError):
        lift_subspace(comp, np.eye(3, dtype=np.int64))


def test_lift_codim_one():
    d8 = load("d8")
    c4 = load("c4")
    G = direct_product(d8, c4)
    f = exponent_p_lcs(G)
    # grade-1 component of d8xc4 has dim 3; a 2-dim subspace lifts to index p
    from filterlab.lie import CosetBasis

    comp = CosetBasis(f.value((1,)), f.boundary_at((1,)))
    assert comp.dim == 3
    H = lift_subspace(comp, np.array([[1, 0, 0], [0, 1, 0]]))
    assert f.value((1,)).order // H.order == 2
    assert f.boundary_at((1,)).is_subset(H)
    assert H.is_subset(f.value((1,)))


def test_insert_on_elementary_abelian():
    G = parse_pcgroup("p 3\nn 2\n", name="c3sq")
    F, T = full_subgroup(G), trivial_subgroup(G)
    f = Filter(G, GradedMonoid(1), (2,), {(0,): F, (1,): F, (2,): T})
    H = subgroup_from_gens(G, [G.generator(1)])
    out = insert_refinement(f, (1,), H)
    assert out.monoid.dim == 2 and out.monoid.order_kind == "lex"
    assert not verify_filter(out)
    chain = [out.value(m).order for m in out.grades()]
    assert H.order in chain
    # the refined series threads H strictly between G and 1
    assert out.value((1, 0)).order == 9
    assert out.value((1, 1)).order == 3
    assert out.value((2, 0)).order == 1


def test_insert_rejects_non_strict():
    G = load("g16_11_d8xc2")
    f = exponent_p_lcs(G)
    with pytest.raises(RefinementError):
        insert_refinement(f, (1,), f.value((1,)))
    with pytest.raises(RefinementError):
        insert_refinement(f, (1,), f.boundary_at((1,)))


def test_refine_classifications(corpus_groups):
    assert refine_to_fixpoint(corpus_groups["g16_14_c2_4"]).classification == "classical"
    assert refine_to_fixpoint(corpus_groups["d8"]).classification == "classical"
    assert refine_to_fixpoint(corpus_groups["h27"]).classification == "classical"
    r = refine_to_fixpoint(corpus_groups["g16_11_d8xc2"])
    assert r.classification == "non-semi-classical"
    assert len(r.steps) >= 1
    assert r.steps[0].provenance in ("der", "mid", "left", "right", "cent",
                                     "mid-idem", "cent-idem", "bimap-radical")
    # the inserted subgroup is the centre: index 4 in G, containing eta_2
    assert r.steps[0].new_index == 4


def test_refine_final_filter_verifies(corpus_groups):
    for name in ("g16_03_c2sq_rtimes_c4", "g16_07_d16", "g81_12_maxclass1"):
        r = refine_to_fixpoint(corpus_groups[name])
        assert len(r.steps) >= 1
        assert not verify_filter(r.final)
        # every inserted subgroup strictly refines: lengths increase by one
        assert r.final.monoid.dim == 1 + len(r.steps)


def test_declared_products_semi_classical():
    d8 = load("d8")
    q8 = load("q8")
    c4 = load("c4")
    r1 = refine_to_fixpoint(direct_product(d8, q8))
    assert r1.classification == "semi-classical"
    r2 = refine_to_fixpoint(direct_product(d8, c4))
    assert r2.classification == "semi-classical"
    assert len(r2.steps) == 2


def _presentation_symmetries(G, limit=20):
    """Automorphism candidates from generator permutations that validate."""
    import itertools

    from filterlab.autfilter import AutMap
    from filterlab.pcgroup import PcgError

    out = []
    gens = G.generators()
    for perm in itertools.permutations(range(G.n)):
        if len(out) >= limit:
            break
        try:
            out.append(AutMap(G, [gens[i] for i in perm]))
        except PcgError:
            continue
    return out


def test_inserted_subgroups_normal_and_aut_invariant():
    for name in ("g16_11_d8xc2", "g16_12_q8xc2", "g81_06_h27xc3"):
        G = load(name)
        r = refine_to_fixpoint(G)
        autos = central_automorphisms(G) + _presentation_symmetries(G)
        assert autos
        for step in r.steps:
            H = Subgroup(G, step.igs)
            assert H.is_normal()
            for a in autos:
                assert all(H.contains(a.apply(h)) for h in H.igs)


def test_determinism_byte_for_byte(corpus_groups):
    G = corpus_groups["g16_04_c4_rtimes_c4"]
    r1 = report_to_json(refine_to_fixpoint(G, group_id="x"))
    r2 = report_to_json(refine_to_fixpoint(G, group_id="x"))
    r1.pop("runtime_ms")
    r2.pop("runtime_ms")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_cap_records_not_errors(monkeypatch):
    monkeypatch.setattr(refine, "CAP", 1)
    G = load("g16_07_d16")
    r = refine_to_fixpoint(G)
    assert len(r.steps) <= 1
    assert r.cap_hit or len(r.steps) == 1


@pytest.mark.parametrize("cap, hit", [(1, True), (2, False), (3, False)])
def test_cap_hit_means_candidates_left(monkeypatch, cap, hit):
    monkeypatch.setattr(refine, "CAP", cap)
    r = refine_to_fixpoint(load("d8xc4"))  # reaches its fixpoint in 2 steps
    assert len(r.steps) == min(cap, 2)
    assert r.cap_hit is hit


def test_breakdown_only_for_flagged_groups(monkeypatch):
    # a declared product has seed candidates yet is not flagged
    G = direct_product(load("d8"), load("c4"))
    monkeypatch.setattr(census, "parse_pcg_file", lambda path: G)
    res = census.analyze_file("d8xc4_declared.pcg")
    assert res.classification == "semi-classical" and len(res.steps) == 2
    assert res.flagged_by == []


def test_ring_restricted_runs():
    r = refine_to_fixpoint(load("g16_11_d8xc2"))
    assert r.classification == "non-semi-classical"
    assert [seed_refined_by(r, ring) for ring in ("Der", "Mid", "Cent")] == [True, True, False]


def test_report_json_schema():
    G = load("g16_13_pauli")
    blob = report_to_json(refine_to_fixpoint(G, group_id="pauli"))
    assert set(blob) == {
        "group", "order", "seed", "steps", "classification",
        "ring_dims", "cap_hit", "runtime_ms",
    }
    assert blob["group"] == "pauli" and blob["order"] == 16
    assert all(set(s) == {"grade", "provenance", "new_index"} for s in blob["steps"])
    assert "1|1" in blob["ring_dims"]
    assert set(blob["ring_dims"]["1|1"]) == {"Der", "Left", "Mid", "Right", "Cent"}
