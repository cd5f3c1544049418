import itertools

import numpy as np
import pytest

from filterlab import linalg, scalars, series
from filterlab.lie import graded_lie_ring
from filterlab.scalars import (
    AssocAlgebra,
    Bimap,
    all_rings,
    bimap_from_lie_pair,
    centroid,
    characteristic_subspaces,
    derivation_algebra,
    envelope,
    radical,
    scalar_ring,
    split_idempotents,
)

from conftest import load


def symplectic(p):
    t = np.zeros((2, 2, 1), dtype=np.int64)
    t[0, 1, 0], t[1, 0, 0] = 1, p - 1
    return Bimap(p, t)


# -- brute-force oracles (run before trusting the solver) ---------------------


def brute_der_count(b: Bimap) -> int:
    """Exhaustive count of derivation triples; feasible for tiny dims."""
    p = b.p
    dU, dV, dW = b.dims
    count = 0
    T = b.tensor
    basU, basV = np.eye(dU, dtype=np.int64), np.eye(dV, dtype=np.int64)
    for fv in itertools.product(range(p), repeat=dU * dU):
        F = np.array(fv, dtype=np.int64).reshape(dU, dU)
        for gv in itertools.product(range(p), repeat=dV * dV):
            G = np.array(gv, dtype=np.int64).reshape(dV, dV)
            for hv in itertools.product(range(p), repeat=dW * dW):
                H = np.array(hv, dtype=np.int64).reshape(dW, dW)
                ok = True
                for u in basU:
                    for v in basV:
                        lhs = (
                            np.einsum("a,b,abc->c", u @ F % p, v, T)
                            + np.einsum("a,b,abc->c", u, v @ G % p, T)
                        ) % p
                        rhs = (np.einsum("a,b,abc->c", u, v, T) @ H) % p
                        if not np.array_equal(lhs, rhs):
                            ok = False
                            break
                    if not ok:
                        break
                count += ok
    return count


def brute_pair_count(b: Bimap, kind: str) -> int:
    p = b.p
    dU, dV, dW = b.dims
    T = b.tensor
    sizes = {"Left": (dU, dW), "Mid": (dU, dV), "Right": (dV, dW)}[kind]
    count = 0
    basU, basV = np.eye(dU, dtype=np.int64), np.eye(dV, dtype=np.int64)
    for fv in itertools.product(range(p), repeat=sizes[0] ** 2):
        F = np.array(fv, dtype=np.int64).reshape(sizes[0], sizes[0])
        for gv in itertools.product(range(p), repeat=sizes[1] ** 2):
            G = np.array(gv, dtype=np.int64).reshape(sizes[1], sizes[1])
            ok = True
            for u in basU:
                for v in basV:
                    uv = np.einsum("a,b,abc->c", u, v, T) % p
                    if kind == "Left":
                        lhs = np.einsum("a,b,abc->c", u @ F % p, v, T) % p
                        rhs = (uv @ G) % p
                    elif kind == "Mid":
                        lhs = np.einsum("a,b,abc->c", u @ F % p, v, T) % p
                        rhs = np.einsum("a,b,abc->c", u, v @ G % p, T) % p
                    else:
                        lhs = np.einsum("a,b,abc->c", u, v @ F % p, T) % p
                        rhs = (uv @ G) % p
                    if not np.array_equal(lhs, rhs):
                        ok = False
                        break
                if not ok:
                    break
            count += ok
    return count


def test_brute_oracle_matches_solver_gf2():
    b = symplectic(2)
    assert brute_der_count(b) == 2 ** derivation_algebra(b).dim
    for kind in ("Left", "Mid", "Right"):
        assert brute_pair_count(b, kind) == 2 ** scalar_ring(b, kind).dim


def test_brute_oracle_matches_solver_gf3_mid():
    b = symplectic(3)
    assert brute_pair_count(b, "Mid") == 3 ** scalar_ring(b, "Mid").dim


def test_symplectic_gf3_dims():
    b = symplectic(3)
    rings = all_rings(b)
    assert rings["Der"].dim == 5
    assert rings["Mid"].dim == 4
    assert rings["Cent"].dim == 1
    assert rings["Left"].dim == 1 and rings["Right"].dim == 1


def test_zero_bimap_dims():
    b = Bimap(3, np.zeros((2, 2, 1), dtype=np.int64))
    rings = all_rings(b)
    assert rings["Der"].dim == 4 + 4 + 1
    assert rings["Mid"].dim == 8
    assert rings["Left"].dim == 5 and rings["Right"].dim == 5
    assert rings["Cent"].dim == 3  # centre of the full triple space


def test_one_dim_product():
    b = Bimap(5, np.ones((1, 1, 1), dtype=np.int64))
    rings = all_rings(b)
    assert rings["Der"].dim == 2  # h = f + g forced
    assert rings["Left"].dim == 1  # f = g scalars
    assert rings["Mid"].dim == 1 and rings["Right"].dim == 1


def test_defining_identities_resubstitution():
    b = symplectic(3)
    p = 3
    T = b.tensor
    rings = all_rings(b)
    for t in rings["Der"].tuples():
        F, G, H = t
        lhs = (np.einsum("ax,xbc->abc", F, T) + np.einsum("by,ayc->abc", G, T)) % p
        rhs = np.einsum("abw,wc->abc", T, H) % p
        assert np.array_equal(lhs, rhs)
    for t in rings["Mid"].tuples():
        F, G = t
        lhs = np.einsum("ax,xbc->abc", F, T) % p
        rhs = np.einsum("by,ayc->abc", G, T) % p
        assert np.array_equal(lhs, rhs)


def test_mid_of_symplectic_is_full_matrix_algebra():
    b = symplectic(3)
    mid = scalar_ring(b, "Mid")
    assert mid.dim == 4
    assert not radical(mid)
    assert mid.center().dim == 1  # central simple of dim 4 = M_2


def test_ring_closure_and_identity_membership():
    for p in (2, 3):
        b = symplectic(p)
        for kind in ("Left", "Mid", "Right"):
            alg = scalar_ring(b, kind)
            assert alg.has_identity()
            assert alg.is_closed()
        cent = centroid(b)
        assert cent.has_identity()


def test_centroid_direct_sum():
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0, 0, 0] = 1
    t[1, 1, 1] = 1
    b = Bimap(3, t)
    cent = centroid(b)
    assert cent.dim == 2
    idems = split_idempotents(cent)
    assert len(idems) == 2
    # block projectors recover the two summands on each side
    images = sorted(
        tuple(int(x) for x in linalg.row_space(e[0], 3).reshape(-1)) for e in idems
    )
    assert images == [(0, 1), (1, 0)]


def test_radical_direct_algebra_cases():
    # upper triangular 2x2: radical is the strictly upper part
    for p in (2, 3, 5):
        e11 = np.array([[1, 0], [0, 0]])
        e12 = np.array([[0, 1], [0, 0]])
        e22 = np.array([[0, 0], [0, 1]])
        alg = AssocAlgebra(p, 2, [e11, e12, e22])
        rad = alg.radical()
        assert rad.dim == 1
        assert rad.contains(e12)
    # full matrix algebra: radical zero
    basis = [np.eye(2, dtype=np.int64)] + [e for e in (e12, e12.T, e11)]
    assert AssocAlgebra(3, 2, basis).radical().dim == 0
    # scalars in dimension divisible by p (the trace-form degenerate case)
    for p, n in ((2, 2), (3, 3)):
        scal = AssocAlgebra(p, n, [np.eye(n, dtype=np.int64)])
        assert scal.radical().dim == 0
    # GF(4) inside M_2(GF(2)) is a field: radical zero
    c = np.array([[0, 1], [1, 1]])
    assert AssocAlgebra(2, 2, [np.eye(2, dtype=np.int64), c]).radical().dim == 0
    # nilpotent algebra: the radical is everything
    assert AssocAlgebra(2, 2, [e12]).radical().dim == 1


def test_radical_verification_rejects_garbage():
    e12 = np.array([[0, 1], [0, 0]])
    alg = AssocAlgebra(3, 2, [np.eye(2, dtype=np.int64), e12])
    with pytest.raises(ArithmeticError):
        alg._verify_radical(AssocAlgebra(3, 2, [np.eye(2, dtype=np.int64)]))


def test_dual_number_centroid_idempotent_count():
    # multiplication of F[eps]/(eps^2): centroid has a 1-dim radical, and the
    # idempotent count is unchanged by lifting through it
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0, 0, 0] = 1
    t[0, 1, 1] = 1
    t[1, 0, 1] = 1
    b = Bimap(3, t)
    cent = centroid(b)
    assert cent.dim == 2
    assert len(radical(cent)) == 1
    idems = split_idempotents(cent)
    assert len(idems) == 1
    for e in idems:
        for m in e:
            assert np.array_equal(m @ m % 3, m % 3)


def test_field_centroid_single_idempotent():
    b = symplectic(3)
    idems = split_idempotents(centroid(b))
    assert len(idems) == 1
    assert all(np.array_equal(m, np.eye(m.shape[0], dtype=np.int64)) for m in idems[0])


def test_characteristic_subspaces_nondegenerate():
    b = symplectic(3)
    ems = characteristic_subspaces(b)
    # only zero and full spaces
    for e in ems:
        side_dim = {"U": 2, "V": 2, "W": 1}[e.side]
        assert e.dim in (0, side_dim)


def test_characteristic_subspaces_bimap_radical_tag():
    t = np.zeros((3, 3, 1), dtype=np.int64)
    t[0, 1, 0], t[1, 0, 0] = 1, 2
    b = Bimap(3, t)
    ems = characteristic_subspaces(b)
    for side in ("U", "V"):
        (line,) = [e for e in ems if e.side == side and e.dim == 1]
        assert "bimap-radical" in line.provenances


def test_characteristic_subspaces_radical_found_by_der():
    t = np.zeros((3, 3, 1), dtype=np.int64)
    t[0, 1, 0], t[1, 0, 0] = 1, 2
    b = Bimap(3, t)
    ems = characteristic_subspaces(b)
    der_u = [e for e in ems if e.side == "U" and e.provenance == "der" and e.dim == 1]
    assert der_u
    # the dead coordinate is the found line
    assert linalg.in_row_space(np.array([0, 0, 1]), der_u[0].basis, 3)


def test_emissions_der_invariant():
    t = np.zeros((3, 3, 1), dtype=np.int64)
    t[0, 1, 0], t[1, 0, 0] = 1, 2
    b = Bimap(3, t)
    der = derivation_algebra(b)
    for e in characteristic_subspaces(b):
        pos = {"U": 0, "V": 1, "W": 2}[e.side]
        for tup in der.tuples():
            assert linalg.row_coords(e.basis @ tup[pos] % 3, linalg.row_space(e.basis, 3), 3) is not None


def test_envelope_generates_unital_closure():
    e12 = np.array([[0, 1], [0, 0]])
    env = envelope(3, 2, [e12])
    assert env.has_identity()
    assert env.dim == 2  # I and e12
    assert env.is_closed()


def test_radical_nilpotent_two_sided(corpus_groups):
    # bimaps arising in the pipeline keep the verification promises
    G = corpus_groups["g16_11_d8xc2"]
    L = graded_lie_ring(series.exponent_p_lcs(G))
    b = bimap_from_lie_pair(L, (1,), (1,))
    for kind in ("Left", "Mid", "Right", "Cent"):
        alg = all_rings(b)[kind]
        rad = alg.radical()  # raises if the verification fails
        assert rad.dim <= alg.dim
