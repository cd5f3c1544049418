"""Differential tests for the single copies of sift, boundary, matrix power,
idempotent lift and quotient, each against the slow definition it stands
for."""

import random

import numpy as np
import pytest

from filterlab import autfilter, lie, linalg, pcgroup, refine, scalars, series
from filterlab import monoid as mon
from filterlab.pcgroup import (
    PcGroup,
    Subgroup,
    depth,
    direct_product,
    full_subgroup,
    sift,
    subgroup_from_gens,
    trivial_subgroup,
)

from conftest import load, perfbench_workloads
from test_centralizer_layers import _ref_meet


# -- boundaries ----------------------------------------------------------------


def _box(bm):
    """The box of a box map; for a chain, the least box that holds its ends
    (past it, every grade reads the value of a grade on its edge or 1)."""
    if isinstance(bm, series.LexFilter):
        return tuple(max(c) for c in zip(*bm.grades()))
    return bm.box


def _full_box_boundary(bm, s):
    """Join (filter) or meet (layering, by enumeration) of the values at
    s + t over every t != 0 in the box, folded from the trivial or the full
    group."""
    if isinstance(bm, (series.Filter, series.LexFilter)):
        acc, op = trivial_subgroup(bm.group), Subgroup.join
    else:
        acc, op = full_subgroup(bm.group), _ref_meet
    for t in mon.box_enumerate(_box(bm)):
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


def _chain_rings(G):
    """(f, graded_lie_ring(f)) for every filter of G's refinement chain: the
    exponent-p seed and each output of ``insert_refinement``."""
    got = []
    build = lie.graded_lie_ring

    def recording(f):
        got.append((f, build(f)))
        return got[-1][1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(refine, "graded_lie_ring", recording)
        refine.refine_to_fixpoint(G)
    return got


@pytest.fixture(scope="module")
def chains(corpus_groups):
    """The refinement chains of the corpus and of the smoke ladder products."""
    workloads = perfbench_workloads()
    groups = dict(corpus_groups)
    groups.update((name, workloads.build_product(f)) for name, f in workloads.LADDER_SMOKE)
    return {name: _chain_rings(G) for name, G in groups.items()}


def test_boundary_of_refined_lex_filter(chains):
    lex, dims, bad = 0, set(), []
    for name, chain in chains.items():
        for f, _ in chain:
            lex += f.monoid.order_kind == mon.LEX
            dims.add(f.monoid.dim)
            units = [tuple(int(i == j) for j in range(f.monoid.dim)) for i in range(f.monoid.dim)]
            grid = mon.box_enumerate(_box(f))
            off_box = {mon.add(s, e) for s in grid for e in units} - set(grid)
            bad += [
                (name, _box(f), s)
                for s in grid + sorted(off_box)
                if f.boundary_at(s) != _full_box_boundary(f, s)
            ]
    assert not bad
    # every filter past each chain's seed is lex, and the corpus refines
    assert lex == sum(len(chain) - 1 for chain in chains.values()) > 0
    assert {2, 3} <= dims


def test_boundary_of_trivial_group_box():
    G = PcGroup(2, 0)
    uc = series.upper_central(G)
    assert uc.box == (0,)
    assert uc.boundary_at((0,)) == full_subgroup(G)


def test_clamp():
    assert mon.clamp((3, 5), (2, 5)) == (2, 5)
    assert mon.clamp((1, 7, 0), (2, 5, 4)) == (1, 5, 0)


# -- the graded Lie ring against its every-grade build -----------------------


def _every_grade_ring(f):
    """The graded Lie ring by definition: a component at every nonzero box
    grade, zero ones included, from the full-box boundary, and the bracket
    tensor of every grade pair."""
    G = f.group
    comps = {
        s: lie.CosetBasis(f.value(s), _full_box_boundary(f, s))
        for s in mon.box_enumerate(_box(f))
        if s != f.monoid.zero
    }
    brackets = {}
    for s, cs in comps.items():
        for t, ct in comps.items():
            cu = comps.get(mon.add(s, t))
            T = np.zeros((cs.dim, ct.dim, cu.dim if cu else 0), dtype=np.int64)
            if T.size:
                for a, x in enumerate(cs.reps):
                    for b, y in enumerate(ct.reps):
                        T[a, b] = cu.coords(G.commutator(x, y))
            brackets[(s, t)] = T
    return comps, brackets


def test_lie_ring_matches_the_every_grade_build(chains):
    zero = 0
    for name, chain in chains.items():
        for f, L in chain:
            comps, brackets = _every_grade_ring(f)
            assert set(L.comps) == {s for s, c in comps.items() if c.dim}, name
            for s, c in comps.items():
                assert L.dim(s) == c.dim
                if c.dim:
                    assert L.comps[s].reps == c.reps
            for (s, t), T in brackets.items():
                assert np.array_equal(L.bracket_tensor(s, t), T), (name, s, t)
            zero += sum(c.dim == 0 for c in comps.values())
    assert zero  # there are zero components for the ring to leave out


def test_lie_ring_builds_only_the_nonzero_components(monkeypatch):
    workloads = perfbench_workloads()
    indices = []

    class Counting(lie.CosetBasis):
        def __init__(self, H, N):
            indices.append(H.order // N.order)
            super().__init__(H, N)

    # refine_to_fixpoint builds lie's coset bases in graded_lie_ring only
    monkeypatch.setattr(lie, "CosetBasis", Counting)
    for _, factors in workloads.LADDER:
        refine.refine_to_fixpoint(workloads.build_product(factors))
    assert len(indices) == 40  # one per chain end
    assert min(indices) > 1


# -- coset coordinates ---------------------------------------------------------


def _sections(G):
    """(H, N) sections: the factors of the exponent-p central series."""
    ep = series.exponent_p_lcs(G)
    return [(ep.value(s), ep.boundary_at(s)) for s in ep.grades() if s != (0,)]


def _same_class(N, x, y):
    G = N.group
    return N.contains(G.multiply(G.inverse(x), y))


@pytest.mark.parametrize(
    "name", ["d8", "q8", "h27", "m27", "c9", "g16_05_c8xc2", "g16_08_sd16", "g81_10_m81", "g81_14_maxclass3"]
)
def test_coset_coords_lift_and_additive(name):
    G = load(name)
    rng = random.Random(name)
    for H, N in _sections(G):
        cb = lie.CosetBasis(H, N)
        for _ in range(15):
            x, y = H.random_element(rng), H.random_element(rng)
            cx, cy, cxy = cb.coords(x), cb.coords(y), cb.coords(G.multiply(x, y))
            assert _same_class(N, cb.lift(cx), x)
            assert np.array_equal(cxy, (cx + cy) % G.p)


def _greedy_basis(H, N):
    """A test-local copy of the greedy-join build of CosetBasis: one join
    per representative, then the representatives and the igs of N sifted
    and tagged."""
    G = H.group
    cb = object.__new__(lie.CosetBasis)
    cb.group, cb.p, cb.H, cb.N = G, G.p, H, N
    reps, cur = [], N
    for h in H.igs:
        if not cur.contains(h):
            reps.append(h)
            cur = cur.join(subgroup_from_gens(G, [h]))
    cb.reps, cb.dim = reps, len(reps)
    cb._by_depth, cb._vecs = {}, {}
    tagged = list(zip(reps, np.eye(cb.dim, dtype=np.int64)))
    tagged += [(x, np.zeros(cb.dim, dtype=np.int64)) for x in N.igs]
    for x, v in tagged:
        steps = []
        r = sift(G, cb._by_depth, x, steps)
        if r != G.identity:
            cb._by_depth[depth(r)] = r
            cb._vecs[depth(r)] = (v - cb._combine(steps)) % G.p
    return cb


def _assert_greedy_basis(H, N, rng):
    """reps, dim, coords and lift of CosetBasis(H, N) equal the greedy
    build's: coords on every element of H up to order 243, else on a
    sample."""
    got, want = lie.CosetBasis(H, N), _greedy_basis(H, N)
    assert got.reps == want.reps and got.dim == want.dim
    members = H.elements() if H.order <= 243 else [H.random_element(rng) for _ in range(60)]
    for y in members:
        v = got.coords(y)
        assert np.array_equal(v, want.coords(y)), y
        assert got.lift(v) == want.lift(v)


def test_coset_basis_matches_the_greedy_build_on_ring_components(chains):
    rng = random.Random(17)
    multi = sampled = 0
    for name, chain in chains.items():
        for f, L in chain:
            for comp in L.comps.values():
                _assert_greedy_basis(comp.H, comp.N, rng)
                multi += comp.dim > 1 and comp.N.order > 1
                sampled += comp.H.order > 243
    assert multi and sampled


def test_coset_basis_matches_the_greedy_build_on_upper_central_strata(corpus_groups):
    rng = random.Random(19)
    raised = 0
    for name, G in corpus_groups.items():
        uc = series.upper_central(G)
        for s in uc.grades():
            H, N = uc.boundary_at(s), uc.value(s)
            if lie.exponent_p(H, N):
                _assert_greedy_basis(H, N, rng)
            else:
                with pytest.raises(ValueError):
                    lie.CosetBasis(H, N)
                raised += 1
    assert raised  # cyclic strata of order p^2 occur


def test_coset_basis_matches_the_greedy_build_on_frattini_sections(corpus_groups, monkeypatch):
    sections = []

    class Recording(lie.CosetBasis):
        def __init__(self, H, N):
            sections.append((H, N))
            super().__init__(H, N)

    monkeypatch.setattr(autfilter, "CosetBasis", Recording)
    for G in corpus_groups.values():
        autfilter.central_automorphisms(G)
    assert len(sections) == len(corpus_groups)
    rng = random.Random(23)
    for H, N in sections:
        _assert_greedy_basis(H, N, rng)


def test_coset_basis_rejects_a_section_not_of_exponent_p():
    c4 = load("c4")
    with pytest.raises(ValueError):
        lie.CosetBasis(full_subgroup(c4), trivial_subgroup(c4))


def test_ladder_refinement_builds_each_coset_basis_by_one_sift_pass(monkeypatch):
    """A ladder refinement builds the ring components only: refinement lifts
    through them.  No build closes a subgroup, by a join or otherwise: both
    go through ``pcgroup.subgroup_from_gens``."""
    workloads = perfbench_workloads()
    builds, inside, closures = [], [], []
    init, close = lie.CosetBasis.__init__, pcgroup.subgroup_from_gens

    def counting(self, H, N):
        builds.append(H.order // N.order)
        inside.append(True)
        try:
            init(self, H, N)
        finally:
            inside.pop()

    def closing(G, gens):
        if inside:
            closures.append(gens)
        return close(G, gens)

    monkeypatch.setattr(lie.CosetBasis, "__init__", counting)
    monkeypatch.setattr(pcgroup, "subgroup_from_gens", closing)
    for _, factors in workloads.LADDER:
        refine.refine_to_fixpoint(workloads.build_product(factors))
    assert len(builds) == 40
    assert not closures


def test_ladder_pass_checks_exponent_p_once_per_coset_basis(monkeypatch):
    """``CosetBasis`` checks h^p in N, and the graded builders only re-raise
    its error with their grade: one check per build, 40 builds per pass."""
    workloads = perfbench_workloads()
    calls = []
    check = lie.exponent_p

    def counting(H, N):
        calls.append(None)
        return check(H, N)

    monkeypatch.setattr(lie, "exponent_p", counting)
    for _, factors in workloads.LADDER:
        refine.refine_to_fixpoint(workloads.build_product(factors))
    assert len(calls) == 40


def test_graded_builders_name_the_grade_of_a_section_not_of_exponent_p():
    c4 = load("c4")
    with pytest.raises(lie.NonElementaryAbelianError) as err:
        lie.CosetBasis(full_subgroup(c4), trivial_subgroup(c4))
    assert err.value.grade is None
    assert str(err.value) == "section H/N is not elementary abelian"
    uc = series.upper_central(c4)
    with pytest.raises(lie.NonElementaryAbelianError) as err:
        lie.graded_module(series.exponent_p_lcs(c4), uc)
    assert str(err.value) == f"stratum at grade {err.value.grade} is not elementary abelian"


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
    n = alg.n
    assert all(alg.contains(r) for r in reps)
    for i, a in enumerate(reps):
        assert not ((a @ a - a) % p).any()
        for j, b in enumerate(reps):
            if i != j:
                assert not (a @ b % p).any()
    assert not ((sum(reps, np.zeros((n, n), dtype=np.int64)) - np.eye(n, dtype=np.int64)) % p).any()
    if central_mod_radical:
        rad = alg.radical()
        for e in reps:
            for a in alg.basis:
                assert rad.contains((e @ a - a @ e) % p)


def test_single_lift_on_mid_and_cent_rings(corpus_groups):
    multi = {"Mid": 0, "Cent": 0}
    for b in _corpus_bimaps(corpus_groups):
        rings = scalars.all_rings(b)
        cent = scalars.split_idempotents(rings["Cent"])
        mid = scalars._lift_central_idempotents(rings["Mid"], *rings["Mid"].radical_quotient()[1:])
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
            span = linalg.row_space(np.concatenate([span, v.reshape(1, -1)]), p)
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


def _solve_lift(alg, rad, monkeypatch):
    """The idempotent lift run on the solve-based quotient and identity."""
    quot, lift = _solve_quotient(alg, rad)
    split = scalars._split_primitive
    with monkeypatch.context() as m:
        m.setattr(scalars, "_split_primitive", lambda zq, unit: split(zq, _solve_identity(quot)))
        return scalars._lift_central_idempotents(alg, quot, lift)


def test_quotient_identity_and_lift_match_solve_references(corpus_groups, monkeypatch):
    checked = 0
    for b in _corpus_bimaps(corpus_groups):
        rings = scalars.all_rings(b)
        for kind in ("Mid", "Cent"):
            alg = rings[kind]
            rad, quot, lift = alg.radical_quotient()
            ref, ref_lift = _solve_quotient(alg, rad)
            assert np.array_equal(quot.flat, ref.flat)
            # the complement is the greedy choice, one elimination per row
            greedy, span = [], rad.flat
            for v in alg.flat:
                if not linalg.in_row_space(v, span, alg.p):
                    greedy.append(v.reshape(alg.n, alg.n))
                    span = linalg.row_space(np.concatenate([span, v.reshape(1, -1)]), alg.p)
            assert len(greedy) == quot.dim
            for c, m in zip(linalg.identity(quot.dim), greedy):
                assert np.array_equal(lift(c), m)
            for c in linalg.identity(quot.n):
                assert np.array_equal(lift(c), ref_lift(c))
            if quot.dim:
                assert np.array_equal(_solve_identity(ref), linalg.identity(quot.n))
            got = scalars._lift_central_idempotents(alg, quot, lift)
            want = _solve_lift(alg, rad, monkeypatch)
            assert len(got) == len(want)
            for e, f in zip(got, want):
                assert all(np.array_equal(x, y) for x, y in zip(e, f))
            checked += quot.dim > 1
    assert checked


# -- boundaries from the atoms -------------------------------------------------


def test_boundary_of_refined_lex_filters_up_to_order_81(corpus_groups):
    dims, bad = set(), []
    for name, G in corpus_groups.items():
        if G.order > 81:
            continue
        f = refine.refine_to_fixpoint(G, group_id=name).final
        dims.add(f.monoid.dim)
        grid = mon.box_enumerate(_box(f))
        bad += [(name, s) for s in grid if f.boundary_at(s) != _full_box_boundary(f, s)]
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


# -- one radical per ring ------------------------------------------------------


def test_characteristic_subspaces_build_each_radical_once(monkeypatch):
    L = lie.graded_lie_ring(series.exponent_p_lcs(load("g81_12_maxclass1")))
    b = scalars.bimap_from_lie_pair(L, (1,), (1,))
    rings = scalars.BimapRings(b)
    for kind in scalars.KINDS:
        rings.ring(kind)
    calls = []
    original = scalars.AssocAlgebra.radical_quotient

    def counting(self):
        calls.append(self)
        return original(self)

    # radical() goes through radical_quotient, so this counts every radical
    monkeypatch.setattr(scalars.AssocAlgebra, "radical_quotient", counting)
    scalars.characteristic_subspaces(b, rings)
    assert len(calls) == 7  # Der on U, V, W; Mid, Left, Right, Cent


def test_report_scalars_stage_builds_each_radical_once(monkeypatch):
    from filterlab.cli import _stage_payloads

    calls = []
    original = scalars.AssocAlgebra.radical_quotient

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(scalars.AssocAlgebra, "radical_quotient", counting)
    payload = _stage_payloads(load("g81_12_maxclass1"), ["scalars"])
    assert len(payload["scalars"]) == 3
    assert len(calls) == 21  # per bimap: Der on U, V, W; Mid, Left, Right, Cent


def test_report_scalars_stage_lifts_the_cent_idempotents_once(monkeypatch):
    from filterlab.cli import _stage_payloads

    calls = []
    original = scalars._lift_central_idempotents

    def counting(alg, *args):
        calls.append(alg.kind)
        return original(alg, *args)

    monkeypatch.setattr(scalars, "_lift_central_idempotents", counting)
    payload = _stage_payloads(load("g81_12_maxclass1"), ["scalars"])
    assert len(payload["scalars"]) == 3
    assert len(calls) == 6 and calls.count("Cent") == 3  # per bimap: Cent, Mid
