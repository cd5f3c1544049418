import random

import numpy as np
import pytest

from filterlab import monoid as mon, series
from filterlab.autfilter import (
    AutMap,
    aut_commutator,
    central_automorphisms,
    check_derivation_law,
    delta_grades,
    delta_layer_dims,
    delta_membership,
    identity_aut,
    induced_derivation,
    inner_automorphism,
    pair_law_escapes,
    parse_aut_lines,
    rerandomized_derivation,
)
from filterlab.lie import graded_lie_ring
from filterlab.pcgroup import PcgError, parse_pcgroup

from conftest import aut_inverse, load


def central_map(G, gen_index, center_index):
    images = list(G.generators())
    images[gen_index - 1] = G.multiply(
        G.generator(gen_index), G.generator(center_index)
    )
    return AutMap(G, images)


def test_validation_accepts_and_rejects(d8):
    a = central_map(d8, 1, 3)
    assert a.is_automorphism()
    # g1 -> g2 cannot extend: the power relation g1^2 = 1 breaks
    with pytest.raises(PcgError):
        AutMap(d8, [d8.generator(2), d8.generator(2), d8.generator(3)])


def test_apply_and_commutator(d8):
    ida = identity_aut(d8)
    for x in d8.elements():
        assert aut_commutator(x, ida) == d8.identity
    a = central_map(d8, 1, 3)
    assert aut_commutator(d8.generator(1), a) == d8.generator(3)
    g = d8.generator(2)
    inn = inner_automorphism(d8, g)
    for x in d8.elements():
        assert aut_commutator(x, inn) == d8.commutator(x, g)


def test_delta_membership_zero_grade(d8, h27):
    for G in (d8, h27):
        f = series.exponent_p_lcs(G)
        for a in central_automorphisms(G):
            assert delta_membership(a, f, (0,))


def test_delta_membership_examples(h27):
    f = series.exponent_p_lcs(h27)
    a = central_map(h27, 1, 3)
    assert delta_membership(a, f, (1,))
    # the generator swap g1 <-> g2 is an automorphism (with g3 -> g3^2) but
    # moves g1 outside gamma_2-cosets, so it fails at grade 1
    swap = AutMap(
        h27,
        [h27.generator(2), h27.generator(1), h27.power(h27.generator(3), 2)],
    )
    assert delta_grades(swap, f, f.grades()) == [(0,)]  # invariant, in Delta_0 only
    assert not delta_membership(swap, f, (1,))


def test_delta_membership_requires_invariance(d8):
    from filterlab.monoid import GradedMonoid
    from filterlab.pcgroup import full_subgroup, subgroup_from_gens, trivial_subgroup
    from filterlab.series import Filter

    # a filter through a normal but non-characteristic Klein subgroup
    klein = subgroup_from_gens(d8, [d8.generator(1), d8.generator(3)])
    f = Filter(
        d8,
        GradedMonoid(1),
        (2,),
        {(0,): full_subgroup(d8), (1,): klein, (2,): trivial_subgroup(d8)},
    )
    assert not series.verify_filter(f)
    outer = AutMap(d8, [d8.multiply(d8.generator(1), d8.generator(2)),
                        d8.generator(2), d8.generator(3)])
    with pytest.raises(PcgError, match="not invariant"):
        delta_grades(outer, f, [])  # raised before any grade is decided
    with pytest.raises(PcgError):
        delta_membership(outer, f, (1,))
    with pytest.raises(PcgError, match="not invariant"):
        delta_layer_dims([identity_aut(d8), outer], f)


def test_delta_layer_dims(d8, h27):
    for G, expected in ((d8, 2), (h27, 2)):
        f = series.exponent_p_lcs(G)
        gens = central_automorphisms(G)
        assert len(gens) == expected
        rep = delta_layer_dims(gens, f)
        assert all(r["max_grade"] == (1,) for r in rep.generator_grades)
        assert rep.dims_by_grade == {(1,): expected}
        assert not rep.pair_violations


def test_delta_layer_dims_forms_each_commutator_once_per_generator(h27, monkeypatch):
    """Per generator a, [x, a] is formed once for each distinct x in the
    igs(phi_t) over the box grades t; those commutators decide invariance
    and every grade."""
    from filterlab import autfilter

    calls = []
    original = autfilter.aut_commutator

    def counting(x, a):
        calls.append(a)
        return original(x, a)

    monkeypatch.setattr(autfilter, "aut_commutator", counting)
    f = series.exponent_p_lcs(h27)
    gens = central_automorphisms(h27) + [identity_aut(h27)]
    rep = delta_layer_dims(gens, f)
    assert len(rep.generator_grades) == 3
    assert sum(len(f.value(t).igs) for t in f.grades()) == 7 and len(f.grades()) == 4
    per_generator = len({x for t in f.grades() for x in f.value(t).igs})
    assert per_generator == 3
    assert calls == [a for a in gens for _ in range(per_generator)]


def _delta_by_elements(a, f):
    """None if a moves some phi_t, else the grades s with [x, a] in
    phi_{t+s} for every element x of every phi_t: Delta_s by definition."""
    grades = f.grades()
    for t in grades:
        H = f.value(t)
        if {a.apply(x) for x in H.elements()} != set(H.elements()):
            return None
    return [
        s
        for s in grades
        if all(
            f.value(mon.add(t, s)).contains(aut_commutator(x, a))
            for t in grades
            for x in f.value(t).elements()
        )
    ]


def test_delta_grades_matches_the_definition(corpus_groups):
    """delta_grades against Delta_s read off every element of phi_t, on the
    groups of order at most 81: the lower central and exponent-p filters and
    G > <x> > 1 for random x where that is a filter, under the central
    automorphisms and the inner ones by the generators."""
    from filterlab.monoid import GradedMonoid
    from filterlab.pcgroup import full_subgroup, subgroup_from_gens, trivial_subgroup
    from filterlab.series import Filter

    rng = random.Random(23)
    raised = decided = 0
    for name, G in sorted(corpus_groups.items()):
        if G.order > 81:
            continue
        full, one = full_subgroup(G), trivial_subgroup(G)
        filters = [series.lower_central(G), series.exponent_p_lcs(G)]
        for _ in range(4):
            N = subgroup_from_gens(G, [full.random_element(rng)])
            f = Filter(G, GradedMonoid(1), (2,), {(0,): full, (1,): N, (2,): one})
            if not series.verify_filter(f):
                filters.append(f)
        maps = central_automorphisms(G) + [inner_automorphism(G, g) for g in G.generators()]
        for f in filters:
            for a in maps:
                want = _delta_by_elements(a, f)
                if want is None:
                    with pytest.raises(PcgError, match="not invariant"):
                        delta_grades(a, f, f.grades())
                    raised += 1
                else:
                    assert delta_grades(a, f, f.grades()) == want, name
                    decided += 1
    assert raised >= 100 and decided >= 1000, (raised, decided)


def test_identity_max_grade_is_box(d8):
    f = series.exponent_p_lcs(d8)
    rep = delta_layer_dims([identity_aut(d8)], f)
    assert rep.generator_grades[0]["max_grade"] == f.box


def test_inner_by_central_acts_trivially(h27):
    f = series.exponent_p_lcs(h27)
    inn = inner_automorphism(h27, h27.generator(3))
    rep = delta_layer_dims([inn], f)
    assert rep.generator_grades[0]["max_grade"] == f.box


def test_subgroup_law_on_generators(d8, h27):
    # if a, b are in Delta_s, so are a b and a^-1
    for G in (d8, h27):
        f = series.exponent_p_lcs(G)
        gens = central_automorphisms(G)
        s = (1,)
        for a in gens:
            assert delta_membership(aut_inverse(a), f, s)
            for b in gens:
                assert delta_membership(a.compose(b), f, s)


def test_induced_derivation_identity_zero(d8):
    f = series.exponent_p_lcs(d8)
    L = graded_lie_ring(f)
    D = induced_derivation(identity_aut(d8), (1,), L)
    assert all(not m.any() for m in D.values())


def test_induced_derivation_h27(h27):
    f = series.exponent_p_lcs(h27)
    L = graded_lie_ring(f)
    a = central_map(h27, 1, 3)
    D = induced_derivation(a, (1,), L)
    m = D[(1,)]
    assert m.shape == (2, 1)
    assert np.count_nonzero(m) == 1  # rank-1 map L_1 -> L_2
    assert not check_derivation_law(L, D, (1,))


def test_derivation_rep_independence(d8, h27):
    for G in (d8, h27):
        f = series.exponent_p_lcs(G)
        L = graded_lie_ring(f)
        for a in central_automorphisms(G):
            D1 = induced_derivation(a, (1,), L)
            D2 = rerandomized_derivation(a, (1,), L, seed=17)
            assert all(np.array_equal(D1[u], D2[u]) for u in D1)


def test_derivation_additive_over_composition(h27):
    # commuting central maps: D_{a b} = D_a + D_b grade by grade
    f = series.exponent_p_lcs(h27)
    L = graded_lie_ring(f)
    a, b = central_automorphisms(h27)
    Dab = induced_derivation(a.compose(b), (1,), L)
    Da = induced_derivation(a, (1,), L)
    Db = induced_derivation(b, (1,), L)
    for u in Dab:
        assert np.array_equal(Dab[u], (Da[u] + Db[u]) % 3)


def test_derivation_membership_precondition(h27):
    f = series.exponent_p_lcs(h27)
    L = graded_lie_ring(f)
    swap = AutMap(
        h27,
        [h27.generator(2), h27.generator(1), h27.power(h27.generator(3), 2)],
    )
    with pytest.raises(PcgError):
        induced_derivation(swap, (1,), L)


def test_central_automorphism_counts():
    # frozen from direct construction: hom(G/Phi, Omega_1(Z)) basis maps that
    # validate as automorphisms
    assert len(central_automorphisms(load("d8"))) == 2
    assert len(central_automorphisms(load("h27"))) == 2
    assert len(central_automorphisms(load("q8"))) == 2
    c3sq = parse_pcgroup("p 3\nn 2\n", name="c3sq")
    assert len(central_automorphisms(c3sq)) == 4  # all of hom(GF(3)^2, GF(3)^2)
    c2sq = parse_pcgroup("p 2\nn 2\n", name="c2sq")
    # at p = 2 the diagonal candidates x -> x^2 = 1 fail bijectivity
    assert len(central_automorphisms(c2sq)) == 2
    cp = parse_pcgroup("p 3\nn 1\n", name="c3")
    assert len(central_automorphisms(cp)) == 1  # x -> x^2 survives validation


def test_faithfulness_contrapositive(d8, h27):
    # an automorphism acting trivially on every component passes Delta at
    # some nonzero grade
    for G in (d8, h27):
        f = series.exponent_p_lcs(G)
        L = graded_lie_ring(f)
        for a in central_automorphisms(G) + [identity_aut(G)]:
            trivial_on_all = all(
                not induced_derivation(a, (1,), L)[u].any()
                for u in induced_derivation(a, (1,), L)
            )
            member_somewhere = any(
                delta_membership(a, f, s)
                for s in f.grades()
                if s != (0,)
            )
            assert member_somewhere or not trivial_on_all


def test_hall_witt_containment_on_pairs(d8, h27):
    # [x, [a,b]] lands in phi_{s+t+u} for generators a at s, b at t
    for G in (d8, h27):
        f = series.exponent_p_lcs(G)
        gens = central_automorphisms(G)
        rep = delta_layer_dims(gens, f)
        assert not rep.pair_violations


def test_pair_law_matches_commutator_automorphism(corpus_groups):
    """pair_law_escapes against the definition it replaced: [x, c] for x in
    igs(phi_u), with c = [a, b] built from test-local inverses.  One boolean
    per (s+t, u) at every box grade s+t, not only the maximal grades that
    delta_layer_dims uses, so that failing grades are compared too."""
    failing = compared = 0
    for name, G in corpus_groups.items():
        if G.order > 2 ** 10:
            continue
        maps = central_automorphisms(G) + [inner_automorphism(G, g) for g in G.generators()]
        for f in (series.exponent_p_lcs(G), series.lower_central(G)):
            grades = f.grades()
            for i, a in enumerate(maps):
                for b in maps[i + 1 :]:
                    c = aut_inverse(a).compose(aut_inverse(b)).compose(a).compose(b)
                    for st in grades:
                        want = {
                            u: all(
                                f.value(mon.add(st, u)).contains(aut_commutator(x, c))
                                for x in f.value(u).igs
                            )
                            for u in grades
                        }
                        escapes = pair_law_escapes(a, b, f, st)
                        got = {u: True for u in grades}
                        for u, y in escapes:
                            got[u] = False
                            assert f.value(u).contains(y)
                            assert not f.value(mon.add(st, u)).contains(aut_commutator(y, c))
                        assert got == want, (name, st)
                        compared += len(grades)
                        failing += sum(not ok for ok in want.values())
    assert compared and failing


def test_aut_inverse_helper(d8, h27):
    for G in (d8, h27):
        for a in central_automorphisms(G) + [inner_automorphism(G, G.generator(1))]:
            assert a.compose(aut_inverse(a)) == identity_aut(G)


def test_sidecar_parsing(d8):
    lines = [
        "# two central maps",
        "aut: g1 -> g1 g3",
        "",
        "aut: g2 -> g2 g3",
    ]
    maps = parse_aut_lines(d8, lines)
    assert len(maps) == 2
    # repeated index also starts a new block
    maps = parse_aut_lines(d8, ["aut: g1 -> g1 g3", "aut: g1 -> g1"])
    assert len(maps) == 2
    with pytest.raises(PcgError):
        parse_aut_lines(d8, ["aut: g9 -> g1"])
    with pytest.raises(PcgError):
        parse_aut_lines(d8, ["aut: g1 -> g2"])  # invalid image map


def test_factor_swap_of_h27xh27_moves_the_refined_filter():
    """Today's behaviour, pinned: the swap of the two h27 factors leaves the
    exponent-p filter invariant but not the refined one.  The one step
    inserts <g3, g4, g5, g6>, the second factor with the centre of the
    first, at grade (1,), and the swap moves it."""
    from filterlab import refine
    from filterlab.pcgroup import parse_pcg_file

    from conftest import CORPUS

    G = parse_pcg_file(CORPUS / "products" / "h27xh27.pcg")
    lines = ["aut: g1 -> g4", "aut: g2 -> g5", "aut: g3 -> g6", "aut: g4 -> g1", "aut: g5 -> g2", "aut: g6 -> g3"]
    (swap,) = parse_aut_lines(G, lines)
    report = refine.refine_to_fixpoint(G)
    assert [step.igs for step in report.steps] == [tuple(G.generator(i) for i in (3, 4, 5, 6))]
    final = report.final
    with pytest.raises(PcgError, match="not invariant"):
        delta_grades(swap, final, [(0,)])
    assert delta_grades(swap, series.exponent_p_lcs(G), [(0,)]) == [(0,)]
