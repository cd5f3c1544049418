"""The scalar stage skipped where Der's envelope is the full matrix algebra,
and searched rank by rank elsewhere.

``refine.CandidateTable`` builds no ring but Der on a bimap on which
``BimapRings.der_envelopes_full`` holds, and builds the rings of a rank only
when every lower rank is empty.  Its first candidate is checked against the
full build-and-sort (``conftest.reference_candidates``) on every table met
while refining the corpus and the ladder, and the lemma behind the pruning
(a Der-invariant subspace of a side on which Der's envelope is M_d is 0 or
the whole side) on random bimaps.  Ring builds are counted on a census pass
and on reports.  The quotient lift that the idempotent emissions use is
checked to be multiplicative modulo the radical, which the random bimaps
need.
"""

import collections

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from filterlab import census, lie, refine, scalars, series
from filterlab.pcgroup import parse_pcg_file
from filterlab.scalars import Bimap

from conftest import CORPUS, corpus_paths, perfbench_workloads, reference_candidates


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
        A = rings[kind]
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
    return scalars.BimapRings(Bimap(p, np.array(tensor, dtype=np.int64))).der_envelopes_full()


def test_predicate_on_one_dimensional_and_nondegenerate_bimaps():
    assert _full(3, [[[2]]])
    assert _full(3, [[[0], [1]], [[2], [0]]])  # symplectic form on GF(3)^2
    assert _full(2, [[[1], [0]], [[0], [1]]])  # dot product on GF(2)^2


def test_predicate_fails_on_a_degenerate_form():
    # Der keeps each radical line: the envelope on U and on V is the 3-dim
    # algebra of triangular matrices, one short of M_2
    b = Bimap(3, np.array([[[1], [0]], [[0], [0]]]))
    rings = scalars.BimapRings(b)
    assert [rings.envelope(pos).dim for pos in (0, 1)] == [3, 3]
    assert not rings.der_envelopes_full()


def test_predicate_reads_every_side():
    # U and W are lines, V holds the radical line of u o v = u v_1
    assert not _full(3, [[[1], [0]]])
    assert not _full(3, np.transpose([[[1], [0]]], (1, 0, 2)))  # the same, V and U swapped
    assert not _full(3, [[[1, 0]]])  # Der keeps the image line of W


@given(_bimaps())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_full_envelope_leaves_no_proper_emission(b):
    rings = scalars.BimapRings(b)
    if rings.der_envelopes_full():
        dims = dict(zip("UVW", b.dims))
        for e in scalars.characteristic_subspaces(b, rings):
            assert e.dim in (0, dims[e.side])


def test_rank_four_checks_the_cent_quotient(monkeypatch):
    """Cent's idempotent images need Cent/J commutative: rank 4 checks it,
    and no other rank does."""

    def not_commutative(assoc, rad):
        raise ValueError("quotient by the radical is not commutative")

    monkeypatch.setattr(scalars, "_check_commutative_quotient", not_commutative)
    rings = scalars.BimapRings(REORDERED)
    for r in scalars.RANKS:
        if r == 4:
            with pytest.raises(ValueError, match="not commutative"):
                rings.emissions(r)
        else:
            rings.emissions(r)


# -- the rank-by-rank search against the full sort --------------------------------


def _cases():
    workloads = perfbench_workloads()
    for path in corpus_paths():
        yield path.stem, parse_pcg_file(path)
    for name, factors in workloads.LADDER + workloads.LADDER_SMOKE:
        yield name, workloads.build_product(factors)


def _rank_view(candidates, r):
    """(key past the rank, first provenance of rank r) per candidate, sorted."""
    rank = scalars.PROVENANCE_RANK
    return sorted((c[0][1:], next(p for p in c[3] if rank[p] == r)) for c in candidates)


def test_pruned_candidates_match_the_unpruned_loop():
    """On every table met while refining the 46 corpus files and the 5
    ladder products, the lazy first candidate is the first of the full
    build-and-sort (sort key, grade, basis, provs[0]), and so is the rest of
    its rank; on the seed table every rank holds the candidates of the full
    sort that list it.  The report's steps, ``cap_hit``, ``seed_refined_by``
    and ``ring_dims`` are those the full sort gives."""
    seen = {"tables": 0, "pruned": 0, "past rank 0": 0, "empty": 0}
    for name, G in _cases():
        report = refine.refine_to_fixpoint(G, group_id=name)
        f = series.exponent_p_lcs(G)
        steps = []
        while True:
            L = lie.graded_lie_ring(f)
            table = refine.CandidateTable(L)
            got = table.first()
            want, want_dims = reference_candidates(L)
            seen["tables"] += 1
            seen["pruned"] += len(table.live) < len(table.products)
            seen["empty"] += not want
            if not steps:
                # every rank of the seed table: in key order, and the full
                # sort's candidates that list a provenance of that rank
                for r in scalars.RANKS:
                    lazy = table.rank(r)
                    assert [c[0] for c in lazy] == sorted(c[0] for c in lazy), name
                    listed = [c for c in want if r in {scalars.PROVENANCE_RANK[p] for p in c[3]}]
                    assert _rank_view(lazy, r) == _rank_view(listed, r), (name, r)
                for ring in census.BREAKDOWN_RINGS:
                    rank = scalars.PROVENANCE_RANK[ring.lower()]
                    flagged = any(scalars.PROVENANCE_RANK[p] == rank for c in want for p in c[3])
                    assert refine.seed_refined_by(report, ring) == flagged, (name, ring)
                assert refine.report_to_json(report)["ring_dims"] == want_dims, name
            if not want:
                assert got is None, name
                break
            # the first rank that is not empty is the head of the full sort, in order
            r = want[0][0][0]
            head, lazy = [c for c in want if c[0][0] == r], table.rank(r)
            assert got is lazy[0] and len(lazy) == len(head), name
            for (k1, g1, b1, p1), (k2, g2, b2, p2) in zip(lazy, head):
                assert k1 == k2 and g1 == g2 and np.array_equal(b1, b2) and p1[0] == p2[0], name
            seen["past rank 0"] += r > 0
            if len(steps) == refine.CAP:
                break
            _, grade, basis, provs = got
            H = refine.lift_subspace(L.comps[grade], basis)
            steps.append(refine.RefinementStep(grade, provs[0], f.value(grade).order // H.order, H.igs))
            f = refine.insert_refinement(f, grade, H)
        assert report.steps == steps and report.cap_hit == bool(want), name
    assert seen["tables"] > 51 and seen["pruned"] and seen["past rank 0"] and seen["empty"], seen


def _count_ring_builds(monkeypatch):
    """(bimap, kind) for every ring built from now on."""
    built = []
    for name in ("derivation_algebra", "scalar_ring", "centroid"):

        def counted(b, *args, original=getattr(scalars, name)):
            ring = original(b, *args)
            built.append((b, ring.kind))
            return ring

        monkeypatch.setattr(scalars, name, counted)
    return built


def test_later_tables_build_only_der_on_pruned_bimaps(monkeypatch):
    """A census pass builds Der on every bimap, no Left or Right ring, and
    Mid and Cent only on bimaps that Der's envelope does not prune, each at
    most once."""
    built = _count_ring_builds(monkeypatch)
    for d in ("order16", "order81"):
        census.run_census(CORPUS / d)
    kinds = collections.Counter(kind for _, kind in built)
    assert set(kinds) == {"Der", "Mid", "Cent"}, kinds
    by_bimap = collections.defaultdict(list)
    for b, kind in built:
        by_bimap[id(b)].append((b, kind))
    pruned = 0
    for builds in by_bimap.values():
        b, own = builds[0][0], [kind for _, kind in builds]
        assert own[0] == "Der" and len(own) == len(set(own)), own
        if scalars.BimapRings(b).der_envelopes_full():
            pruned += 1
            assert own == ["Der"]
    assert 0 < pruned < len(by_bimap)


def test_report_builds_each_ring_once_per_seed_bimap(monkeypatch):
    """``report_to_json`` reads ``ring_dims`` off the seed table's rings: it
    builds the rings the refinement did not and none a second time."""
    built = _count_ring_builds(monkeypatch)
    workloads = perfbench_workloads()
    for name, factors in workloads.LADDER_SMOKE + workloads.LADDER[:1]:
        report = refine.refine_to_fixpoint(workloads.build_product(factors), group_id=name)
        refine.report_to_json(report)
        refine.report_to_json(report)
        seed = {id(rings.b) for _, _, rings in report.seed_table.products}
        counts = collections.Counter((id(b), kind) for b, kind in built if id(b) in seed)
        assert set(counts.values()) == {1}
        assert len(counts) == 5 * len(seed), name
