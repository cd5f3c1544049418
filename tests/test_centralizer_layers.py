"""Centralizers modulo N, Omega_1(Z) and intersections by linear algebra down
the pc series (``pcgroup.kernel_by_layers``), against enumerating references
kept here."""

import random
import time

import pytest

from filterlab import autfilter, pcgroup, series
from filterlab.pcgroup import (
    centralizer_mod,
    direct_product,
    full_subgroup,
    kernel_by_layers,
    subgroup_from_gens,
    trivial_subgroup,
)

from conftest import corpus_paths, load, perfbench_workloads


def _ref_centralizer_mod(G, H, N):
    """Largest K with [K, H] <= N, by testing every element of G."""
    members = [x for x in G.elements() if all(N.contains(G.commutator(x, h)) for h in H.igs)]
    return subgroup_from_gens(G, members)


def _ref_omega1_center(G):
    """The elements z of Z(G) with z^p = 1, by testing every element of G."""
    gens = G.generators()
    members = [
        z
        for z in G.elements()
        if G.power(z, G.p) == G.identity and all(G.commutator(z, g) == G.identity for g in gens)
    ]
    return subgroup_from_gens(G, members)


def _ref_meet(H, K):
    """H meet K, by testing every element of the smaller one for membership
    in the other."""
    small, big = (H, K) if H.order <= K.order else (K, H)
    return subgroup_from_gens(H.group, [x for x in small.elements() if big.contains(x)])


def _omega1_center(G, monkeypatch):
    """Omega_1(Z) as ``central_automorphisms`` builds it: its one call of
    ``kernel_by_layers`` (``centralizer_mod`` calls the one in pcgroup)."""
    built = []

    def recording(*args):
        built.append(kernel_by_layers(*args))
        return built[-1]

    with monkeypatch.context() as m:
        m.setattr(autfilter, "kernel_by_layers", recording)
        autfilter.central_automorphisms(G)
    assert len(built) == 1
    return built[0]


def _series_terms(G):
    """The distinct terms of the lower-central, exponent-p and upper-central
    series of G."""
    terms = {}
    for f in (series.lower_central(G), series.exponent_p_lcs(G), series.upper_central(G)):
        for s in f.grades():
            S = f.value(s)
            terms[S.igs] = S
    return [terms[k] for k in sorted(terms)]


def _differential_groups():
    """Every corpus group, then the ladder products, with their ids."""
    groups = [pytest.param(pcgroup.parse_pcg_file(p), id=p.stem) for p in corpus_paths()]
    wl = perfbench_workloads()
    for name, factors in wl.LADDER_SMOKE + wl.LADDER:
        groups.append(pytest.param(wl.build_product(factors), id=f"ladder-{name}"))
    return groups


@pytest.mark.parametrize("G", _differential_groups())
def test_centralizer_mod_and_omega1_match_enumeration(G, monkeypatch):
    terms = _series_terms(G)
    normal = [N for N in terms if N.is_normal()]
    for H in terms:
        for N in normal:
            assert centralizer_mod(G, H, N) == _ref_centralizer_mod(G, H, N), (H.igs, N.igs)
    assert _omega1_center(G, monkeypatch) == _ref_omega1_center(G)


def _meet_pool(G):
    """The full and trivial subgroups, the series terms and twelve subgroups
    on one or two random generators (seeded by the group's name), without
    repeats."""
    rng = random.Random(G.name)
    full = full_subgroup(G)
    pool = {S.igs: S for S in [full, trivial_subgroup(G)] + _series_terms(G)}
    for _ in range(12):
        S = subgroup_from_gens(G, [full.random_element(rng) for _ in range(rng.randint(1, 2))])
        pool.setdefault(S.igs, S)
    return list(pool.values())


@pytest.mark.parametrize("G", _differential_groups())
def test_meet_matches_enumeration(G):
    pool = _meet_pool(G)
    for H in pool:
        for K in pool:
            assert H.meet(K) == _ref_meet(H, K), (H.igs, K.igs)


def test_meet_pools_hold_pairs_of_non_normal_subgroups():
    pairs = 0
    for param in _differential_groups():
        (G,) = param.values
        count = sum(not S.is_normal() for S in _meet_pool(G))
        pairs += count * (count - 1)
    assert pairs >= 1000


def test_kernel_by_layers_raises_on_an_image_above_its_layer(d8):
    # a constant map is no homomorphism: layer 1 keeps the c with image
    # exponent 0 at depth 1, but every image is g1
    g1 = d8.generator(1)
    with pytest.raises(ArithmeticError, match="layer 2"):
        kernel_by_layers(d8, d8.generators(), lambda x: [g1])


def _h27sq_m27_c3():
    parts = [load(n) for n in ("h27", "h27", "m27", "c3")]
    G = parts[0]
    for F in parts[1:]:
        G = direct_product(G, F)
    return G, parts


def test_upper_central_and_central_automorphisms_at_three_to_the_ten(monkeypatch):
    G, parts = _h27sq_m27_c3()
    assert G.order == 3**10

    def refuse(*_):
        raise AssertionError("enumerates elements")

    monkeypatch.setattr(pcgroup.PcGroup, "elements", refuse)
    monkeypatch.setattr(pcgroup.Subgroup, "elements", refuse)

    t0 = time.perf_counter()
    uc = series.upper_central(G)
    assert time.perf_counter() - t0 < 1.0
    # Z_i of a direct product is the product of the factors' Z_i
    factor_orders = [series.upper_central(F).orders() for F in parts]
    want = []
    for i in range(max(len(o) for o in factor_orders)):
        order = 1
        for o in factor_orders:
            order *= o[min(i, len(o) - 1)]
        want.append(order)
    assert uc.orders() == want == [1, 3**4, 3**10]

    t0 = time.perf_counter()
    maps = autfilter.central_automorphisms(G)
    assert time.perf_counter() - t0 < 1.0
    # Omega_1(Z) is the product of the factors' Omega_1(Z), each of order 3
    assert _omega1_center(G, monkeypatch).order == 3**4
    # one candidate per Frattini basis class (2 + 2 + 2 + 1) and igs member
    # w of Omega_1(Z), and all are bijective: x chi(x) = 1 puts x in <w>.
    # chi is trivial on <w> when w lies in the Frattini subgroup, and when w
    # generates the c3 it is trivial or the identity map, so x = 1 or x^2 = 1
    assert len(maps) == 7 * 4


def test_product_layering_boundaries_at_three_to_the_nine(monkeypatch):
    h27 = load("h27")
    G = direct_product(direct_product(h27, h27), h27)
    assert G.order == 3**9

    def refuse(*_):
        raise AssertionError("enumerates elements")

    monkeypatch.setattr(pcgroup.PcGroup, "elements", refuse)
    monkeypatch.setattr(pcgroup.Subgroup, "elements", refuse)

    uc = series.upper_central(h27)
    layering = series.product_layering([uc, uc, uc], G)
    grades = layering.grades()
    assert len(grades) == 27
    t0 = time.perf_counter()
    # a meet of direct products of factor subgroups is taken factor by
    # factor, and each factor chain rises, so each boundary is the value
    for s in grades:
        assert layering.boundary_at(s) == layering.value(s), s
    assert not series.verify_layering(layering)
    assert time.perf_counter() - t0 < 1.0
