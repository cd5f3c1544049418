"""The scalar stage skipped where Der's envelope is the full matrix algebra.

``refine._gather_candidates`` computes no emissions for a bimap on which
``scalars.der_envelopes_full`` holds.  It is checked against a test-local
copy of the unpruned loop on every table met while refining the corpus, and
the lemma behind it (a Der-invariant subspace of a side on which Der's
envelope is M_d is 0 or the whole side) on random bimaps.  The quotient lift
that the idempotent emissions use is checked to be multiplicative modulo the
radical, which the random bimaps need.
"""

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from filterlab import linalg, monoid as mon, refine, scalars
from filterlab.scalars import Bimap


# -- the quotient lift ---------------------------------------------------------


@st.composite
def _bimaps(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    dims = draw(st.tuples(*[st.integers(1, 3)] * 3))
    size = dims[0] * dims[1] * dims[2]
    data = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    return Bimap(p, np.array(data, dtype=np.int64).reshape(dims))


# the Mid quotient of this bimap stores its regular matrices in another order
# than it builds them: lifting coordinates over the stored basis used to fail
REORDERED = Bimap(3, np.array([[[1], [1]], [[0], [2]], [[1], [2]]]))


def _assert_lift_multiplicative(b):
    rings = scalars.all_rings(b)
    for kind in ("Mid", "Left", "Right", "Cent"):
        A = rings[kind].assoc()
        J, quot, lift = A.radical_quotient()
        p = A.p
        lifts = [lift(quot.coords(x)) for x in quot.basis]
        for x, lx in zip(quot.basis, lifts):
            for y, ly in zip(quot.basis, lifts):
                lxy = lift(quot.coords(x @ y % p))
                assert J.contains((lxy - lx @ ly) % p), (kind, b.tensor.tolist())


def test_lift_of_a_reordered_quotient_basis():
    _assert_lift_multiplicative(REORDERED)
    ems = scalars.characteristic_subspaces(REORDERED)
    assert ("V", ((1, 0), (0, 1))) in [e.key() for e in ems]


@given(_bimaps())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_lift_is_multiplicative_modulo_the_radical(b):
    _assert_lift_multiplicative(b)


# -- the predicate ---------------------------------------------------------------


def _full(p, tensor):
    b = Bimap(p, np.array(tensor, dtype=np.int64))
    return scalars.der_envelopes_full(scalars.derivation_algebra(b))


def test_predicate_on_one_dimensional_and_nondegenerate_bimaps():
    assert _full(3, [[[2]]])
    assert _full(3, [[[0], [1]], [[2], [0]]])  # symplectic form on GF(3)^2
    assert _full(2, [[[1], [0]], [[0], [1]]])  # dot product on GF(2)^2


def test_predicate_fails_on_a_degenerate_form():
    # Der keeps each radical line: the envelope on U and on V is the 3-dim
    # algebra of triangular matrices, one short of M_2
    b = Bimap(3, np.array([[[1], [0]], [[0], [0]]]))
    der = scalars.derivation_algebra(b)
    assert [scalars.envelope(3, 2, list(s)).dim for s in der.side_stacks()[:2]] == [3, 3]
    assert not scalars.der_envelopes_full(der)


def test_predicate_reads_every_side():
    # U and W are lines, V holds the radical line of u o v = u v_1
    assert not _full(3, [[[1], [0]]])
    assert not _full(3, np.transpose([[[1], [0]]], (1, 0, 2)))  # the same, V and U swapped
    assert not _full(3, [[[1, 0]]])  # Der keeps the image line of W


@given(_bimaps())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_full_envelope_leaves_no_proper_emission(b):
    rings = scalars.all_rings(b)
    if scalars.der_envelopes_full(rings["Der"]):
        dims = dict(zip("UVW", b.dims))
        for e in scalars.characteristic_subspaces(b, rings):
            assert e.dim in (0, dims[e.side])


# -- pruned against the unpruned loop -------------------------------------------


def _unpruned_gather_candidates(L):
    """``_gather_candidates`` as it was: every bimap's emissions computed."""
    out = []
    ring_dims = {}
    grades = [s for s in L.comps if L.dim(s) > 0]
    for s in grades:
        for t in grades:
            u = mon.add(s, t)
            if L.dim(u) == 0:
                continue
            b = scalars.bimap_from_lie_pair(L, s, t)
            rings = scalars.all_rings(b)
            key = ",".join(str(x) for x in s) + "|" + ",".join(str(x) for x in t)
            ring_dims[key] = {k: rings[k].dim for k in scalars.KINDS}
            side_grade = {"U": s, "V": t, "W": u}
            for e in scalars.characteristic_subspaces(b, rings):
                g = side_grade[e.side]
                if 0 < e.dim < L.dim(g):
                    rank = scalars.PROVENANCE_RANK[e.provenance]
                    out.append((refine._candidate_sort_key(rank, g, e.basis), g, e.basis, e.provenances))
    out.sort(key=lambda c: c[0])
    return out, ring_dims


def test_pruned_candidates_match_the_unpruned_loop(corpus_groups, monkeypatch):
    gather = refine._gather_candidates
    tables = {"pruned": 0, "with candidates": 0}

    def compared(L, seed=False):
        got, got_dims = gather(L, seed)
        want, want_dims = _unpruned_gather_candidates(L)
        assert got_dims == (want_dims if seed else {})
        assert len(got) == len(want)
        for (k1, g1, b1, p1), (k2, g2, b2, p2) in zip(got, want):
            assert k1 == k2 and g1 == g2 and np.array_equal(b1, b2) and p1 == p2
        tables["pruned"] += any(
            scalars.der_envelopes_full(scalars.derivation_algebra(scalars.bimap_from_lie_pair(L, s, t)))
            for s in L.comps
            for t in L.comps
            if L.dim(s) and L.dim(t) and L.dim(mon.add(s, t))
        )
        tables["with candidates"] += bool(got)
        return got, got_dims

    monkeypatch.setattr(refine, "_gather_candidates", compared)
    for name, G in corpus_groups.items():
        refine.refine_to_fixpoint(G, group_id=name)
    assert len(corpus_groups) == 46
    assert tables["pruned"] and tables["with candidates"], tables


def test_later_tables_build_only_der_on_pruned_bimaps(corpus_groups, monkeypatch):
    """Past the seed table, a bimap whose Der envelope is full builds no
    Left, Mid, Right or Cent ring; the seed table builds all five on every
    bimap, for its ``ring_dims``."""
    table = []
    built = {"seed": 0, "later": 0}
    pruned_later = []
    gather, all_rings = refine._gather_candidates, scalars.all_rings
    full = scalars.der_envelopes_full

    def tagged(L, seed=False):
        table.append("seed" if seed else "later")
        return gather(L, seed)

    def envelopes(der):
        got = full(der)
        if table[-1] == "later":
            pruned_later.append(got)
        return got

    def counting(b, der=None):
        assert table[-1] == "seed" or not full(der)
        built[table[-1]] += 1
        return all_rings(b, der)

    monkeypatch.setattr(refine, "_gather_candidates", tagged)
    monkeypatch.setattr(scalars, "der_envelopes_full", envelopes)
    monkeypatch.setattr(scalars, "all_rings", counting)
    dims = 0
    for name, G in corpus_groups.items():
        dims += len(refine.refine_to_fixpoint(G, group_id=name).ring_dims)
    assert built["seed"] == dims
    assert built["later"] == pruned_later.count(False)
    assert pruned_later.count(True) > built["later"]
