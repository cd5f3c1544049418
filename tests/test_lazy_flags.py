"""The census flag decided at the first proper emission, and the emissions of
a ring of dimension 1, each against the path it stands for.

``CandidateTable.nonempty(r)`` walks the rank-r emissions one by one and
stops at the first proper Der-invariant one; it is checked against
``bool(rank(r))`` of a fresh table on every table met while refining the 46
corpus files, the ladder products and d8 x c2 (direct factors kept and
cleared).  A ring of dimension 1 emits with no radical, quotient or lift; its
emissions are checked against the path for any dimension, run here through
``radical_quotient`` and ``_lift_central_idempotents``, on every such ring of
those tables.  No rank of those tables has proper emissions that all fail
the Der-invariance test, so the flag is also checked on random bimaps, each
alone in a table, and on one such rank.
"""

import collections
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from filterlab import census, lie, linalg, refine, scalars
from filterlab.pcgroup import PcGroup, direct_product, parse_pcg_file
from filterlab.scalars import Bimap

from conftest import corpus_paths, load, perfbench_workloads


def _cases():
    workloads = perfbench_workloads()
    for path in corpus_paths():
        yield path.stem, parse_pcg_file(path)
    for name, factors in workloads.LADDER + workloads.LADDER_SMOKE:
        yield name, workloads.build_product(factors)
    for cleared in (False, True):
        G = direct_product(load("d8"), PcGroup(2, 1, name="c2"))
        if cleared:
            G.factors = []
        yield "d8xc2" + " cleared" * cleared, G


@pytest.fixture(scope="module")
def refined():
    """The reports of the cases, and (case, L) for every table met while
    refining them."""
    reports, tables = [], []
    build = lie.graded_lie_ring
    with pytest.MonkeyPatch.context() as m:
        for name, G in _cases():
            def recording(f, name=name):
                tables.append((name, build(f)))
                return tables[-1][1]

            m.setattr(refine, "graded_lie_ring", recording)
            reports.append((name, refine.refine_to_fixpoint(G, group_id=name)))
    return reports, tables


def test_lazy_flag_is_the_rank_of_a_fresh_table(refined):
    _, tables = refined
    seen = collections.Counter()
    for name, L in tables:
        lazy, full = refine.CandidateTable(L), refine.CandidateTable(L)
        for r in scalars.RANKS:
            want = bool(full.rank(r))
            assert lazy.nonempty(r) == want, (name, r)
            assert full.nonempty(r) == want, (name, r)  # read from the built rank
            seen[r > 0, want] += 1
        assert not lazy._ranks  # the flags built no rank
    assert len(tables) > 51 and seen[True, True] and seen[True, False], seen


def test_seed_refined_by_with_factors_kept_and_cleared(refined):
    reports, _ = refined
    flags = {}
    for name, report in reports:
        fresh = refine.CandidateTable(report.seed_table.L)
        for ring in census.BREAKDOWN_RINGS:
            want = bool(fresh.rank(scalars.PROVENANCE_RANK[ring.lower()]))
            assert refine.seed_refined_by(report, ring) == want, (name, ring)
        flags[name] = report.flagged, [refine.seed_refined_by(report, r) for r in census.BREAKDOWN_RINGS]
    # the declared factors change the classification, not the flags
    kept, cleared = flags["d8xc2"], flags["d8xc2 cleared"]
    assert not kept[0] and cleared[0] and kept[1] == cleared[1]


def _one_product_table(b):
    """A table whose one product is the bimap ``b``, U at grade (1, 0), V at
    (0, 1) and W at (1, 1).  The product V x U has a zero tensor, so Der's
    envelope is full there and it is not live."""
    u, v, w = (1, 0), (0, 1), (1, 1)
    dims = dict(zip((u, v, w), b.dims))
    zero = np.zeros((b.dims[1], b.dims[0], b.dims[2]), dtype=np.int64)
    L = SimpleNamespace(
        p=b.p,
        comps=dict.fromkeys(dims),
        dim=lambda g: dims.get(g, 0),
        bracket_tensor=lambda s, t: b.tensor if s == u else zero,
    )
    table = refine.CandidateTable(L)
    assert [(s, t) for s, t, _ in table.products] == [(u, v), (v, u)]
    assert [(s, t) for s, t, _ in table.live] in ([], [(u, v)])
    return table


@st.composite
def _bimaps(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    dims = draw(st.tuples(*[st.integers(1, 3)] * 3))
    size = dims[0] * dims[1] * dims[2]
    data = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    return Bimap(p, np.array(data, dtype=np.int64).reshape(dims))


@given(_bimaps())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_lazy_flag_is_the_rank_on_random_bimaps(b):
    lazy, full = _one_product_table(b), _one_product_table(b)
    for r in scalars.RANKS:
        assert lazy.nonempty(r) == bool(full.rank(r)), r


def test_lazy_flag_skips_a_rank_whose_proper_emissions_are_not_invariant():
    # Left's radical images and kernels here are proper lines of U and W
    # that Der moves
    b = Bimap(2, np.array([[[0, 0], [0, 1], [1, 0]], [[0, 0], [1, 0], [0, 1]]]))
    table = _one_product_table(b)
    rings = table.live[0][2]
    left = scalars.PROVENANCE_RANK["left"]
    proper = [e for e in rings.emissions(left) if 0 < e.dim < b.dims["UVW".index(e.side)]]
    assert proper and not any(rings.der_invariant(e) for e in proper)
    assert not table.nonempty(left) and not _one_product_table(b).rank(left)


def _long_path(rings, kind):
    """The emissions of ``kind`` as the path for any ring dimension builds
    them: J, A/J and the lift from ``radical_quotient``, the images and
    kernels of J's elements, Cent's commutativity check, then the images of
    the lifted idempotents, each echelonised, as (side, basis, pivots,
    provenances)."""
    alg = rings.ring(kind)
    rad, quot, lift = alg.radical_quotient()
    assert rad.dim == 0  # so there are no images or kernels of J to emit
    if kind == "Cent":
        scalars._check_commutative_quotient(alg, rad)
    if kind not in scalars.LIFTED_KINDS:
        return []
    out = []
    for e in scalars._lift_central_idempotents(alg, quot, lift):
        for pos, side in enumerate(scalars.KIND_SIDES[kind]):
            basis, piv = linalg.echelon(e[pos], alg.p)
            out.append((side, basis, piv, [kind.lower() + "-idem"]))
    return out


def test_one_dimensional_rings_emit_as_the_long_path(refined, monkeypatch):
    _, tables = refined
    seen = collections.Counter()
    for name, L in tables:
        for s, t, rings in refine.CandidateTable(L).products:
            for rank, kind in enumerate(scalars.ASSOC_KINDS, start=1):
                if rings.ring(kind).dim != 1:
                    continue
                with monkeypatch.context() as m:
                    for fn in ("_radical", "quotient"):
                        m.setattr(scalars.AssocAlgebra, fn, lambda *a, fn=fn: pytest.fail(f"{fn} built"))
                    m.setattr(scalars, "_lift_central_idempotents", lambda *a: pytest.fail("lift built"))
                    got = [(e.side, e.basis, e.pivots, e.provenances) for e in rings.emissions(rank)]
                want = _long_path(rings, kind)
                assert len(got) == len(want), (name, s, t, kind)
                for (s1, b1, p1, v1), (s2, b2, p2, v2) in zip(got, want):
                    assert s1 == s2 and v1 == v2
                    assert np.array_equal(b1, b2) and b1.dtype == b2.dtype
                    assert np.array_equal(p1, p2) and p1.dtype == p2.dtype
                seen[kind] += 1
    assert all(seen[kind] for kind in scalars.ASSOC_KINDS), seen
