import math

import numpy as np
import pytest

from filterlab import lie, series
from filterlab.lie import (
    CosetBasis,
    NonElementaryAbelianError,
    check_alternating,
    check_biadditive_integral,
    check_jacobi,
    check_module_law,
    check_module_law_integral,
    check_operator_grade_action,
    graded_lie_ring,
    graded_module,
    shuffle,
)
from filterlab.pcgroup import (
    direct_product,
    full_subgroup,
    parse_pcgroup,
    subgroup_from_gens,
    trivial_subgroup,
)

from conftest import build_corpus, load

abelian_invariants = build_corpus().abelian_invariants


def test_graded_ring_d8(d8):
    L = graded_lie_ring(series.exponent_p_lcs(d8))
    assert [L.dim(s) for s in L.grades()] == [2, 1, 0]
    B = L.bracket_tensor((1,), (1,))
    # nondegenerate alternating form on GF(2)^2
    assert B[0, 0, 0] == 0 and B[1, 1, 0] == 0
    assert B[0, 1, 0] == 1 and B[1, 0, 0] == 1


def test_graded_ring_h27(h27):
    L = graded_lie_ring(series.exponent_p_lcs(h27))
    assert [L.dim(s) for s in L.grades()] == [2, 1, 0]
    B = L.bracket_tensor((1,), (1,))
    assert B[0, 1, 0] != 0 and B[1, 0, 0] == (-B[0, 1, 0]) % 3
    assert B[0, 0, 0] == 0 and B[1, 1, 0] == 0


def test_abelian_single_component_zero_bracket():
    G = parse_pcgroup("p 3\nn 3\n")
    L = graded_lie_ring(series.exponent_p_lcs(G))
    dims = [L.dim(s) for s in L.grades()]
    assert dims[0] == 3 and all(d == 0 for d in dims[1:])
    assert not L.brackets


def test_non_elementary_factor_raises():
    c4 = load("c4")
    with pytest.raises(NonElementaryAbelianError) as err:
        graded_lie_ring(series.lower_central(c4))
    assert err.value.grade == (1,)


def test_jacobi_alternating_clean(corpus_groups):
    for name in ("d8", "q8", "h27", "g16_07_d16", "g81_12_maxclass1", "h27xh27"):
        L = graded_lie_ring(series.exponent_p_lcs(corpus_groups[name]))
        assert not check_jacobi(L)
        assert not check_alternating(L)


def test_jacobi_fault_injection(h27):
    L = graded_lie_ring(series.exponent_p_lcs(h27))
    L.brackets[((1,), (1,))] = L.bracket_tensor((1,), (1,)).copy()
    L.brackets[((1,), (1,))][0, 0, 0] = 1  # break alternating/jacobi
    assert check_alternating(L)


def test_zero_ring_passes():
    G = parse_pcgroup("p 2\nn 2\n")
    L = graded_lie_ring(series.exponent_p_lcs(G))
    assert not check_jacobi(L) and not check_alternating(L)


# -- modules -----------------------------------------------------------------


def test_module_d8(d8):
    f = series.exponent_p_lcs(d8)
    l = series.upper_central(d8)
    L = graded_lie_ring(f)
    M = graded_module(f, l, L)
    # strata: grade 0 carries the centre, grade 1 carries G/Z
    assert M.stratum_dim((0,)) == 1 and M.stratum_dim((1,)) == 2
    A = M.action_tensor((1,), (0,))
    assert A.shape == (2, 1, 2) and A.any()
    # the underlying mixed pairing L_1 x stratum(1) -> stratum(0) has rank 1 target
    mixed = M.mixed[((1,), (0,))]
    assert mixed.shape == (2, 2, 1)
    assert np.linalg.matrix_rank(mixed.reshape(2, 2)) == 2
    assert not check_module_law(L, M)


def test_module_abelian_zero():
    G = parse_pcgroup("p 3\nn 2\n")
    f = series.exponent_p_lcs(G)
    l = series.upper_central(G)
    M = graded_module(f, l)
    assert not M.actions


def test_module_h27_nonzero_functional(h27):
    f = series.exponent_p_lcs(h27)
    l = series.upper_central(h27)
    L = graded_lie_ring(f)
    M = graded_module(f, l, L)
    A = M.action_tensor((1,), (0,))
    # x.f is a nonzero functional on the next stratum for spanning x
    assert A[0].any() or A[1].any()
    assert not check_module_law(L, M)


def test_module_product_h27xc3():
    h27 = parse_pcgroup("p 3\nn 3\ncomm 2 1 = g3\n", name="h27")
    c3 = parse_pcgroup("p 3\nn 1\n", name="c3")
    G = direct_product(h27, c3)
    pf = series.product_filter(
        [series.exponent_p_lcs(h27), series.exponent_p_lcs(c3)], G
    )
    pl = series.product_layering(
        [series.upper_central(h27), series.upper_central(c3)], G
    )
    L = graded_lie_ring(pf)
    M = graded_module(pf, pl, L)
    assert not check_module_law(L, M)
    assert not check_jacobi(L)


def test_module_action_fault():
    # D16 has composable strata, so the law genuinely constrains the tensors
    d16 = load("g16_07_d16")
    f = series.exponent_p_lcs(d16)
    l = series.upper_central(d16)
    L = graded_lie_ring(f)
    M = graded_module(f, l, L)
    assert not check_module_law(L, M)
    for key in (((1,), (0,)), ((2,), (0,))):
        M2 = graded_module(f, l, L)
        M2.actions[key] = M2.actions[key].copy()
        idx = tuple(np.argwhere(M2.actions[key])[0])
        M2.actions[key][idx] = (M2.actions[key][idx] + 1) % 2
        assert check_module_law(L, M2)


def test_module_requires_sift(d8):
    f = series.exponent_p_lcs(d8)
    bad = series.Layering(
        d8,
        f.monoid,
        (1,),
        {(0,): subgroup_from_gens(d8, [d8.generator(1)]), (1,): full_subgroup(d8)},
    )
    with pytest.raises(ValueError):
        graded_module(f, bad)


# -- shuffle -------------------------------------------------------------------


def test_shuffle_scalar():
    t = np.array([[[5]]])
    assert shuffle(t)[0, 0, 0] == 5


def test_shuffle_symplectic_rank():
    t = np.zeros((2, 2, 1), dtype=np.int64)
    t[0, 1, 0], t[1, 0, 0] = 1, 2
    sh = shuffle(t)
    assert sh.shape == (2, 1, 2)
    assert np.linalg.matrix_rank(sh.reshape(2, 2)) == 2


def test_shuffle_zero():
    assert not shuffle(np.zeros((2, 3, 4), dtype=np.int64)).any()


def test_shuffle_involution_on_slices():
    rng = np.random.default_rng(0)
    t = rng.integers(0, 3, size=(2, 3, 4))
    assert np.array_equal(shuffle(shuffle(t)), t)


# -- integral mode ---------------------------------------------------------------


def test_integral_laws(corpus_groups):
    for name in ("d8", "q8", "h27", "g16_06_m4_2", "g16_01_c16"):
        G = corpus_groups[name]
        lc = series.lower_central(G)
        uc = series.upper_central(G)
        assert not check_module_law_integral(lc, uc, trials=300)
        assert not check_biadditive_integral(lc, uc, trials=150)


def test_operator_grade_action(corpus_groups):
    for name in ("d8", "h27", "g16_04_c4_rtimes_c4"):
        G = corpus_groups[name]
        assert not check_operator_grade_action(series.exponent_p_lcs(G))
        assert not check_operator_grade_action(series.lower_central(G))


# -- abelian invariants ------------------------------------------------------------
# ``abelian_invariants`` sits in scripts/build_corpus.py next to its one caller,
# the corpus fingerprint.  A finite abelian group and its dual hom(A, Q/Z) have
# the same invariants.


def test_dual_cyclic():
    c4 = load("c4")
    assert abelian_invariants(full_subgroup(c4), trivial_subgroup(c4)) == [4]


def test_dual_elementary():
    G = parse_pcgroup("p 5\nn 2\n")
    assert abelian_invariants(full_subgroup(G), trivial_subgroup(G)) == [5, 5]


def test_dual_mixed():
    c2 = parse_pcgroup("p 2\nn 1\n", name="c2")
    c4 = parse_pcgroup("p 2\nn 2\npow 1 = g2\n", name="c4")
    G = direct_product(c2, c4)
    assert abelian_invariants(full_subgroup(G), trivial_subgroup(G)) == [2, 4]


def test_dual_section_of_nonabelian(d8):
    # G/G' of D8 is C2 x C2
    derived = subgroup_from_gens(d8, [d8.generator(3)])
    assert abelian_invariants(full_subgroup(d8), derived) == [2, 2]


def test_dual_rejects_nonabelian(d8):
    with pytest.raises(ValueError):
        abelian_invariants(full_subgroup(d8), trivial_subgroup(d8))
    with pytest.raises(ValueError):  # N not inside H
        abelian_invariants(trivial_subgroup(d8), full_subgroup(d8))


def test_stratum_sizes_match_duals(corpus_groups):
    # stratum(i-1) of the zeta layering is zeta^i / zeta^{i-1}; its size is
    # the product of the invariants of the same section
    for name in ("d8", "h27", "g16_13_pauli", "g81_06_h27xc3"):
        G = corpus_groups[name]
        l = series.upper_central(G)
        for s in l.grades():
            top = l.boundary_at(s)
            bot = l.value(s)
            assert math.prod(abelian_invariants(top, bot)) == top.order // bot.order


def test_coset_basis_coords_roundtrip(h27):
    f = series.exponent_p_lcs(h27)
    cb = CosetBasis(f.value((1,)), f.boundary_at((1,)))
    assert cb.dim == 2
    for v in ((1, 0), (0, 1), (2, 1)):
        x = cb.lift(v)
        assert tuple(cb.coords(x)) == tuple(c % 3 for c in v)
