"""Differential tests for the single copies of sift, boundary, matrix power,
idempotent lift and quotient, each against the slow definition it stands
for."""

import random

import numpy as np
import pytest

from filterlab import lie, linalg, scalars, series
from filterlab import monoid as mon
from filterlab.pcgroup import (
    PcGroup,
    Subgroup,
    comm_subgroup,
    direct_product,
    full_subgroup,
    trivial_subgroup,
)

from conftest import load


# -- boundaries ----------------------------------------------------------------


def _full_box_boundary(bm, s):
    """Join (filter) or meet (layering) of the values at s + t over every
    t != 0 in the box, folded from the trivial or the full group."""
    if isinstance(bm, series.Filter):
        acc, op = trivial_subgroup(bm.group), Subgroup.join
    else:
        acc, op = full_subgroup(bm.group), Subgroup.meet
    for t in mon.box_iter(bm.box):
        if t != bm.monoid.zero:
            acc = op(acc, bm.value(mon.add(s, t)))
    return acc


def _box_maps(G):
    C = PcGroup(G.p, 1, name=f"c{G.p}")
    P = direct_product(G, C)
    ep = series.exponent_p_lcs(G)
    uc = series.upper_central(G)
    return {
        "lower central": series.lower_central(G),
        "exponent-p": ep,
        "upper central": uc,
        "product filter": series.product_filter([ep, series.exponent_p_lcs(C)], P),
        "product layering": series.product_layering([uc, series.upper_central(C)], P),
    }


def test_boundary_matches_full_box_fold(corpus_groups):
    bad = []
    for name, G in corpus_groups.items():
        for label, bm in _box_maps(G).items():
            for s in bm.grades():
                if bm.boundary_at(s) != _full_box_boundary(bm, s):
                    bad.append((name, label, s))
    assert not bad


def test_boundary_of_refined_lex_filter():
    from filterlab.refine import refine_to_fixpoint

    f = refine_to_fixpoint(load("g16_03_c2sq_rtimes_c4")).final
    assert f.monoid.dim > 1 and f.monoid.order_kind == mon.LEX
    for s in f.grades():
        assert f.boundary_at(s) == _full_box_boundary(f, s)


def test_boundary_of_trivial_group_box():
    G = PcGroup(2, 0)
    uc = series.upper_central(G)
    assert uc.box == (0,)
    assert uc.boundary_at((0,)) == full_subgroup(G)


def test_clamp():
    assert mon.clamp((3, 5), (2, 5)) == (2, 5)
    assert mon.clamp((1, 7, 0), (2, 5, 4)) == (1, 5, 0)


# -- coset coordinates ---------------------------------------------------------


def _sections(G):
    """(H, N, integral) sections: exponent-p factors in GF(p) mode, lower
    central factors and G over [G, G] in integral mode."""
    ep = series.exponent_p_lcs(G)
    lc = series.lower_central(G)
    full = full_subgroup(G)
    out = [(ep.value(s), ep.boundary_at(s), False) for s in ep.grades() if s != (0,)]
    out += [(lc.value(s), lc.boundary_at(s), True) for s in lc.grades() if s != (0,)]
    out.append((full, comm_subgroup(full, full), True))
    return out


def _class_product(cb, v):
    """The class of prod gens_i^v_i, with exponents taken over Z."""
    G = cb.group
    x = G.identity
    for g, c in zip(cb.gens, v):
        x = G.multiply(x, G.power(g, int(c)))
    return x


def _same_class(N, x, y):
    G = N.group
    return N.contains(G.multiply(G.inverse(x), y))


@pytest.mark.parametrize(
    "name", ["d8", "q8", "h27", "m27", "c9", "g16_05_c8xc2", "g16_08_sd16", "g81_10_m81", "g81_14_maxclass3"]
)
def test_coset_coords_lift_and_additive(name):
    G = load(name)
    rng = random.Random(name)
    for H, N, integral in _sections(G):
        cb = lie.CosetBasis(H, N, integral=integral)
        for _ in range(15):
            x, y = H.random_element(rng), H.random_element(rng)
            cx, cy, cxy = cb.coords(x), cb.coords(y), cb.coords(G.multiply(x, y))
            assert _same_class(N, cb.lift(cx), x)
            if integral:
                assert _same_class(N, _class_product(cb, cx + cy), _class_product(cb, cxy))
            else:
                assert np.array_equal(cxy, (cx + cy) % G.p)


def test_coset_coords_reject_outside_element(d8):
    lc = series.lower_central(d8)
    cb = lie.CosetBasis(lc.value((2,)), lc.boundary_at((2,)))
    with pytest.raises(ValueError, match="not in section subgroup"):
        cb.coords(d8.generator(1))


# -- matrix power --------------------------------------------------------------


@pytest.mark.parametrize("mod", [2, 3, 4, 9, 25])
def test_mat_power_matches_repeated_product(mod):
    rng = np.random.default_rng(mod)
    for n in (1, 3, 5):
        m = rng.integers(0, mod, size=(n, n), dtype=np.int64)
        acc = np.eye(n, dtype=np.int64)
        for e in range(12):
            assert np.array_equal(scalars._mat_power(m, e, mod), acc % mod)
            acc = acc @ m % mod


# -- idempotent lift -----------------------------------------------------------


def _corpus_bimaps(groups):
    for G in groups.values():
        L = lie.graded_lie_ring(series.exponent_p_lcs(G))
        for s in L.comps:
            for t in L.comps:
                if L.dim(s) and L.dim(t) and L.dim(mon.add(s, t)):
                    yield scalars.bimap_from_lie_pair(L, s, t)


def _check_lift(alg, idems, central_mod_radical):
    p = alg.p
    reps = [alg.to_rep(e) for e in idems]
    n = alg.rep_size()
    assert all(alg.contains_tuple(e) for e in idems)
    for i, a in enumerate(reps):
        assert not ((a @ a - a) % p).any()
        for j, b in enumerate(reps):
            if i != j:
                assert not (a @ b % p).any()
    assert not ((sum(reps, np.zeros((n, n), dtype=np.int64)) - np.eye(n, dtype=np.int64)) % p).any()
    if central_mod_radical:
        assoc = alg.assoc()
        rad = assoc.radical()
        for e in reps:
            for a in assoc.basis:
                assert rad.contains((e @ a - a @ e) % p)


def test_single_lift_on_mid_and_cent_rings(corpus_groups):
    multi = {"Mid": 0, "Cent": 0}
    for b in _corpus_bimaps(corpus_groups):
        rings = scalars.all_rings(b)
        cent = scalars.split_idempotents(rings["Cent"])
        mid = scalars._mid_center_idempotents(rings["Mid"])
        _check_lift(rings["Cent"], cent, central_mod_radical=False)
        _check_lift(rings["Mid"], mid, central_mod_radical=True)
        multi["Cent"] += len(cent) > 1
        multi["Mid"] += len(mid) > 1
    # the corpus exercises proper splittings of both rings
    assert multi["Mid"] > 0 and multi["Cent"] > 0


# -- quotient and identity from the stored echelon form -----------------------


def _solve(a, b, p):
    """One solution x of a @ x = b over GF(p) by a fresh elimination, or None."""
    b = np.asarray(b, dtype=np.int64).reshape(-1) % p
    n = a.shape[1]
    r, piv = linalg.rref(np.concatenate([a % p, b.reshape(-1, 1)], axis=1), p)
    if n in piv:
        return None
    x = np.zeros(n, dtype=np.int64)
    for i, c in enumerate(piv):
        x[c] = r[i, n]
    return x


def _solve_quotient(assoc, ideal):
    """A/ideal with one solve per product over the complement + ideal rows."""
    p, n = assoc.p, assoc.n
    lift_rows, span = [], ideal.flat
    for v in assoc.flat:
        if _solve(span.T, v, p) is None:
            lift_rows.append(v)
            span = linalg.sum_spaces(span, v.reshape(1, -1), p)
    q = len(lift_rows)
    lift_mats = [v.reshape(n, n) for v in lift_rows]
    combined = np.concatenate([np.stack(lift_rows), ideal.flat], axis=0) if q else ideal.flat

    def project(m):
        c = _solve(combined.T, m.reshape(-1), p)
        assert c is not None, "element not in algebra"
        return c[:q] % p

    reg = []
    for i in range(q):
        mat = np.zeros((q, q), dtype=np.int64)
        for j in range(q):
            mat[j] = project(lift_mats[i] @ lift_mats[j] % p)
        reg.append(mat.T)

    def lift(coords):
        out = np.zeros((n, n), dtype=np.int64)
        for c, m in zip(coords, lift_mats):
            out = (out + int(c) * m) % p
        return out

    return scalars.AssocAlgebra(p, q, reg), lift


def _solve_identity(assoc):
    """The e in A with e @ b = b = b @ e for every basis b, by one solve."""
    p = assoc.p
    rows, rhs = [], []
    for b in assoc.basis:
        rows.append(np.stack([(x @ b % p).reshape(-1) for x in assoc.basis], axis=1))
        rows.append(np.stack([(b @ x % p).reshape(-1) for x in assoc.basis], axis=1))
        rhs += [b.reshape(-1), b.reshape(-1)]
    c = _solve(np.concatenate(rows, axis=0), np.concatenate(rhs), p)
    assert c is not None, "algebra has no identity element"
    out = np.zeros((assoc.n, assoc.n), dtype=np.int64)
    for ci, m in zip(c, assoc.basis):
        out = (out + int(ci) * m) % p
    return out


def _solve_lift(alg, assoc, rad, monkeypatch):
    """The idempotent lift run on the solve-based quotient and identity."""
    made = []

    def quotient(self, ideal):
        made.append(_solve_quotient(self, ideal))
        return made[-1]

    split = scalars._split_primitive
    with monkeypatch.context() as m:
        m.setattr(scalars.AssocAlgebra, "quotient", quotient)
        m.setattr(scalars, "_split_primitive", lambda zq, unit: split(zq, _solve_identity(made[-1][0])))
        return scalars._lift_central_idempotents(alg, assoc, rad)


def test_quotient_identity_and_lift_match_solve_references(corpus_groups, monkeypatch):
    checked = 0
    for b in _corpus_bimaps(corpus_groups):
        rings = scalars.all_rings(b)
        for kind in ("Mid", "Cent"):
            alg = rings[kind]
            assoc = alg.assoc()
            rad = assoc.radical()
            quot, lift = assoc.quotient(rad)
            ref, ref_lift = _solve_quotient(assoc, rad)
            assert np.array_equal(quot.flat, ref.flat)
            for c in linalg.identity(quot.n):
                assert np.array_equal(lift(c), ref_lift(c))
            if quot.dim:
                assert np.array_equal(_solve_identity(ref), linalg.identity(quot.n))
            got = scalars._lift_central_idempotents(alg, assoc, rad)
            want = _solve_lift(alg, assoc, rad, monkeypatch)
            assert len(got) == len(want)
            for e, f in zip(got, want):
                assert all(np.array_equal(x, y) for x, y in zip(e, f))
            checked += quot.dim > 1
    assert checked


# -- boundaries from the unit successors ---------------------------------------


def test_boundary_of_refined_lex_filters_up_to_order_81(corpus_groups):
    from filterlab.refine import refine_to_fixpoint

    dims, bad = set(), []
    for name, G in corpus_groups.items():
        if G.order > 81:
            continue
        f = refine_to_fixpoint(G, group_id=name).final
        dims.add(f.monoid.dim)
        bad += [(name, s) for s in f.grades() if f.boundary_at(s) != _full_box_boundary(f, s)]
    assert not bad
    assert {2, 3} <= dims


def test_boundary_of_three_factor_products():
    parts = [load("d8"), load("q8"), load("c2")]
    P = direct_product(direct_product(parts[0], parts[1]), parts[2])
    pf = series.product_filter([series.lower_central(G) for G in parts], P)
    pl = series.product_layering([series.upper_central(G) for G in parts], P)
    for bm in (pf, pl):
        assert bm.monoid.dim == 3 and bm.monoid.order_kind == mon.POINTWISE
        for s in bm.grades():
            assert bm.boundary_at(s) == _full_box_boundary(bm, s)
        # off-box grades have the boundary of their clamp
        for s in ((5, 0, 1), (0, 9, 9)):
            assert bm.boundary_at(s) == bm.boundary_at(mon.clamp(s, bm.box))


def test_n_graded_layering_paths_never_meet(corpus_groups, monkeypatch):
    def no_meet(self, other):
        raise AssertionError("Subgroup.meet called")

    monkeypatch.setattr(Subgroup, "meet", no_meet)
    for G in corpus_groups.values():
        lc, ep, uc = series.lower_central(G), series.exponent_p_lcs(G), series.upper_central(G)
        assert not series.verify_layering(uc)
        try:
            lie.graded_module(ep, uc)
        except lie.NonElementaryAbelianError:
            pass
        assert not lie.check_module_law_integral(lc, uc, trials=20)


# -- integral coset lifts ------------------------------------------------------


def test_integral_lift_takes_exponents_over_z():
    G = load("c4")
    cb = lie.CosetBasis(full_subgroup(G), trivial_subgroup(G), integral=True)
    g1, g2 = G.generator(1), G.generator(2)
    assert cb.lift(2 * cb.coords(g1)) == g2
    assert cb.lift(-1 * cb.coords(g1)) == G.inverse(g1)


def test_integral_lift_of_multiples(corpus_groups):
    rng = random.Random(3)
    for G in corpus_groups.values():
        for H, N, integral in _sections(G):
            if not integral:
                continue
            cb = lie.CosetBasis(H, N, integral=True)
            for y in (H.random_element(rng) for _ in range(2)):
                c = cb.coords(y)
                for k in range(-1, G.p**2 + 1):
                    assert _same_class(N, cb.lift(k * c), G.power(y, k))


# -- one radical per ring ------------------------------------------------------


def test_characteristic_subspaces_build_each_radical_once(monkeypatch):
    L = lie.graded_lie_ring(series.exponent_p_lcs(load("g81_12_maxclass1")))
    b = scalars.bimap_from_lie_pair(L, (1,), (1,))
    rings = scalars.all_rings(b)
    calls = []
    original = scalars.AssocAlgebra.radical

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(scalars.AssocAlgebra, "radical", counting)
    scalars.characteristic_subspaces(b, rings)
    assert len(calls) == 7  # Der on U, V, W; Mid, Left, Right, Cent
