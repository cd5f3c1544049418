"""The chain of a refined lex filter against the box closure it replaced
(``box_reference``), and the memory the chain needs at scale.

Every insertion of a refinement is repeated on the reference's box table,
and the chain must read the same value at every grade of the reference box
grown by 2 in each coordinate, with its ends exactly where the table steps
down."""

import tracemalloc

import pytest

from filterlab import monoid as mon, refine, series
from filterlab.pcgroup import direct_product, parse_pcg_file, subgroup_from_gens

from box_reference import refine_with_reference
from conftest import corpus_paths, load, perfbench_workloads

workloads = perfbench_workloads()


def _power(name, k):
    """name^k from ``direct_product``, with its declared factors cleared."""
    G = load(name)
    for _ in range(k - 1):
        G = direct_product(G, load(name))
    G.factors = []
    return G


def _d8xc2(cleared):
    G = direct_product(load("d8"), load("c2"))
    if cleared:
        G.factors = []
    return G


# (build, whether it must refine): every product here refines
CASES = (
    [pytest.param(lambda p=p: parse_pcg_file(p), False, id=f"{p.parent.name}/{p.stem}") for p in corpus_paths()]
    + [pytest.param(lambda f=f: workloads.build_product(f), True, id=name) for name, f in workloads.LADDER]
    + [pytest.param(lambda c=c: _d8xc2(c), True, id=f"d8xc2-{'cleared' if c else 'kept'}") for c in (False, True)]
    + [pytest.param(lambda k=k: _power("q8", k), True, id=f"q8^{k}-cleared") for k in (3, 4, 5)]
)


@pytest.mark.parametrize("build, refines", CASES)
def test_chain_matches_the_box_closure(build, refines):
    report, bad, states = refine_with_reference(build())
    assert not bad
    assert len(states) == len(report.steps)
    assert states or not refines


def test_chain_stores_distinct_values_only():
    f = refine.refine_to_fixpoint(_power("q8", 4)).final
    values = [f.value(u) for u in f.grades()]
    assert all(a.order > b.order > 1 for a, b in zip(values, values[1:]))
    assert len(values) <= f.group.n


def test_box_maps_reject_a_lex_monoid():
    G = load("c3")
    f = series.exponent_p_lcs(G)
    with pytest.raises(ValueError, match="chain"):
        series.Filter(G, mon.GradedMonoid(1, mon.LEX), f.box, f.table)


def test_chain_rejects_ends_out_of_lex_order():
    G = load("c3")
    H = subgroup_from_gens(G, G.generators())
    with pytest.raises(ValueError, match="lexicographically"):
        series.LexFilter(G, 2, [(1, 1), (1, 0)], [H, H])


def test_q8_to_the_6_refines_in_small_memory():
    """q8^6 (2^18, factors cleared) refines with a traced peak below 64 MB;
    the box table of its last insertion had 4,096 grades."""
    G = _power("q8", 6)
    tracemalloc.start()
    try:
        report = refine.refine_to_fixpoint(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.steps and not report.cap_hit
    assert peak < 64 * 2**20, peak
