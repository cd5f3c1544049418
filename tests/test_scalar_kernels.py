"""Differential tests for the batched scalar stage and the int-list rref.

Each batched predicate or system is checked against a test-local copy of
the per-pair loop it replaced, on every bimap of the seed tables (the
graded Lie ring of the exponent-p lower central series) of the corpus; the
rref against the numpy row-by-row elimination it replaced; the
Frobenius-fixed idempotent split against a sympy factoring reference, on the
corpus and on generated split fields.  The last tests check that each
batched post-check still fires, with its message.
"""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
import hypothesis.strategies as st

from filterlab import lie, linalg, monoid as mon, scalars, series
from filterlab.scalars import AssocAlgebra, Bimap, ScalarAlgebra

from conftest import load


# -- rref ----------------------------------------------------------------------


def _numpy_rref(a, p):
    """The numpy elimination, one row update at a time."""
    m = linalg.mod_p(np.array(a, dtype=np.int64, copy=True), p)
    rows, cols = m.shape
    piv_cols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = None
        for i in range(r, rows):
            if m[i, c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        m[r] = (m[r] * linalg.inv_scalar(m[r, c], p)) % p
        for i in range(rows):
            if i != r and m[i, c] % p:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        piv_cols.append(c)
        r += 1
    return m, piv_cols


def _same_rref(a, p):
    got, got_piv = linalg.rref(a, p)
    want, want_piv = _numpy_rref(a, p)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want) and got_piv == want_piv


@st.composite
def _matrices(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 10))
    data = draw(st.lists(st.integers(-2 * p, 2 * p), min_size=rows * cols, max_size=rows * cols))
    return np.array(data, dtype=np.int64).reshape(rows, cols), p


@given(_matrices())
@settings(derandomize=True, max_examples=400, deadline=None)
def test_rref_matches_numpy_elimination(case):
    _same_rref(*case)


def test_rref_matches_numpy_elimination_while_refining(monkeypatch):
    seen = []
    rref = linalg.rref

    def recording(a, p):
        seen.append((np.array(a, dtype=np.int64, copy=True), p))
        return rref(a, p)

    # the full scalar stage on every bimap of the seed table, including those
    # whose emissions refinement prunes
    G = load("g16_10_c4xc2xc2")
    monkeypatch.setattr(linalg, "rref", recording)
    for b in _seed_bimaps({G.name: G}):
        scalars.characteristic_subspaces(b)
    monkeypatch.undo()
    # centre systems hold k*k coordinate equations: the largest is that of the
    # 19-dim double-condition ring of the centroid; the 18-dim semisimple Mid
    # quotient gives 324 rows (k*n^2 = 5832 when read entrywise)
    shapes = [a.shape for a, _ in seen]
    assert max(shapes) == (361, 19) and (324, 18) in shapes
    for a, p in seen:
        _same_rref(a, p)


# -- the per-pair loops, as they were -------------------------------------------


def _loop_is_closed(A):
    return all(A.contains(a @ b % A.p) for a in A.basis for b in A.basis)


def _loop_is_ideal(A, J):
    p = A.p
    return all(J.contains(a @ r % p) and J.contains(r @ a % p) for a in A.basis for r in J.basis)


def _loop_radical_chain(A):
    p, n = A.p, A.n
    cur = [b % p for b in A.basis]
    pk = 1
    while True:
        if not cur:
            return []
        mod = pk * p
        rows = []
        for y in cur:
            row = []
            for b in cur:
                prod = (b % p) @ (y % p) % mod
                val = int(np.trace(scalars._mat_power(prod, pk, mod))) % mod
                assert val % pk == 0
                row.append((val // pk) % p)
            rows.append(row)
        ker = linalg.nullspace(np.array(rows, dtype=np.int64), p)
        cur = [np.tensordot(c, np.stack(cur), axes=1) % p for c in ker]
        if pk >= n:
            return cur
        pk *= p


def _loop_bracket_closed(alg):
    p = alg.p
    return all(
        alg.contains(alg.to_rep(tuple((m1 @ m2 - m2 @ m1) % p for m1, m2 in zip(t1, t2))))
        for t1 in alg.tuples()
        for t2 in alg.tuples()
    )


def _loop_commutative(A):
    return not any(((x @ y - y @ x) % A.p).any() for x in A.basis for y in A.basis)


def _loop_commutative_mod(A, J):
    return all(J.contains((x @ y - y @ x) % A.p) for x in A.basis for y in A.basis)


def _loop_center(A):
    if A.dim == 0:
        return A
    p = A.p
    rows = []
    for b in A.basis:
        rows.append(np.concatenate([((a @ b - b @ a) % p).reshape(-1) for a in A.basis]))
    ker = linalg.nullspace(np.stack(rows).T, p)
    return AssocAlgebra(p, A.n, [np.tensordot(c, np.stack(A.basis), axes=1) % p for c in ker])


def _loop_regular_rep(A, J):
    """A/J with the regular representation built one product at a time."""
    p, n = A.p, A.n
    m = J.dim
    cols = np.concatenate([J.flat, A.flat], axis=0).T
    lift_rows = [A.flat[c - m] for c in linalg.rref(cols, p)[1] if c >= m]
    q = len(lift_rows)
    lift_mats = [v.reshape(n, n) for v in lift_rows]
    k = A.dim
    combined = np.array(lift_rows + list(J.flat), dtype=np.int64).reshape(A.flat.shape)
    aug = np.concatenate([linalg.row_coords(combined, A.flat, p), linalg.identity(k)], axis=1)
    to_lift = linalg.rref(aug, p)[0][:, k : k + q]
    reg = []
    for a in lift_mats:
        prods = np.stack([(a @ b).reshape(-1) for b in lift_mats])
        reg.append((linalg.row_coords(prods, A.flat, p) @ to_lift % p).T)
    return AssocAlgebra(p, q, reg)


def _loop_envelope(p, n, gens):
    span = AssocAlgebra(p, n, list(gens) + [linalg.identity(n)])
    while True:
        new = [a @ b % p for a in span.basis for b in span.basis if not span.contains(a @ b % p)]
        if not new:
            return span
        span = AssocAlgebra(p, n, list(span.basis) + new)


def _loop_der_invariant(basis, side, der):
    pos = "UVW".index(side)
    return all(linalg.row_coords(basis @ t[pos], basis, der.p) is not None for t in der.tuples())


def _min_poly(assoc, m, unit):
    """Monic minimal polynomial coefficients (low to high) of m in the corner
    with identity ``unit``."""
    p = assoc.p
    powers = [unit % p]
    while True:
        powers.append(powers[-1] @ m % p)
        ker = linalg.nullspace(np.stack([q.reshape(-1) for q in powers]).T, p)
        if ker.shape[0]:
            rel = ker[0]
            deg = max(i for i, c in enumerate(rel) if c)
            inv = linalg.inv_scalar(int(rel[deg]), p)
            return [int(c) * inv % p for c in rel[: deg + 1]]


def _poly_mod(coeffs, p):
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), modulus=p)


def _factoring_split(assoc, unit):
    """The primitive idempotents by factoring the minimal polynomial of each
    basis element, cut to each corner, with sympy."""
    p = assoc.p
    idems = [unit % p]
    for b in assoc.basis:
        new = []
        for e in idems:
            c = e @ b @ e % p
            poly = _poly_mod(_min_poly(assoc, c, e), p)
            factors = poly.factor_list()[1]
            if len(factors) == 1:
                new.append(e)
                continue
            for fac, mult in factors:
                g = sympy.div(poly, fac ** mult, domain=sympy.GF(p))[0]
                eps = (g * sympy.invert(g, fac ** mult)) % poly
                val, power = np.zeros_like(unit), e
                for cc in reversed(eps.all_coeffs()):
                    val = (val + int(cc) % p * power) % p
                    power = power @ c % p
                new.append(val)
        idems = new
    return [e for e in idems if e.any()]


# -- split fields, which the corpus never reaches -----------------------------------


def _irreducible_quadratics(p):
    """(a, b) with x^2 - a x - b irreducible over GF(p), that is without a root."""
    return [(a, b) for a in range(p) for b in range(p) if all((x * x - a * x - b) % p for x in range(p))]


@st.composite
def _split_field_algebras(draw):
    """A block sum of GF(p) and GF(p^2) (the companion matrix of an irreducible
    quadratic), conjugated by a random invertible matrix; with its block units."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    blocks = draw(st.lists(st.sampled_from([None] + _irreducible_quadratics(p)), min_size=1, max_size=4))
    n = sum(1 if q is None else 2 for q in blocks)
    entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
    lower = np.tril(np.array(draw(entries), dtype=np.int64).reshape(n, n), -1) + linalg.identity(n)
    upper = np.triu(np.array(draw(entries), dtype=np.int64).reshape(n, n), 1) + linalg.identity(n)
    P = lower @ upper % p
    P_inv = linalg.rref(np.concatenate([P, linalg.identity(n)], axis=1), p)[0][:, n:]
    basis, units, pos = [], [], 0
    for q in blocks:
        d = 1 if q is None else 2
        unit = np.zeros((n, n), dtype=np.int64)
        unit[pos : pos + d, pos : pos + d] = linalg.identity(d)
        basis.append(unit)
        units.append(unit)
        if q is not None:
            comp = np.zeros((n, n), dtype=np.int64)
            comp[pos : pos + 2, pos : pos + 2] = [[0, q[1]], [1, q[0]]]
            basis.append(comp)
        pos += d
    return AssocAlgebra(p, n, [P @ m @ P_inv % p for m in basis]), [P @ u @ P_inv % p for u in units]


def _matrix_set(ms):
    return {tuple(m.reshape(-1).tolist()) for m in ms}


@given(_split_field_algebras())
@settings(derandomize=True, max_examples=80, deadline=None)
def test_split_primitive_returns_the_block_units_of_split_fields(case):
    A, units = case
    unit = linalg.identity(A.n)
    got = scalars._split_primitive(A, unit)
    assert len(got) == len(units) == A.frobenius_fixed().dim
    assert _matrix_set(got) == _matrix_set(units) == _matrix_set(_factoring_split(A, unit))


@given(st.sampled_from((2, 3, 5, 7)).flatmap(lambda p: st.tuples(st.just(p), st.sampled_from(_irreducible_quadratics(p)))))
@settings(derandomize=True, max_examples=30, deadline=None)
def test_centroid_of_a_field_multiplication_has_one_idempotent(case):
    p, (a, b) = case
    # GF(p^2) on the basis 1, t with t^2 = a t + b
    T = np.zeros((2, 2, 2), dtype=np.int64)
    T[0, 0, 0] = T[0, 1, 1] = T[1, 0, 1] = 1
    T[1, 1] = [b, a]
    cent = scalars.centroid(Bimap(p, T))
    quot = cent.radical_quotient()[1]
    assert cent.dim == 2 and quot.center().frobenius_fixed().dim == 1
    assert len(scalars.split_idempotents(cent)) == 1


# -- batched against the loops on every corpus bimap ------------------------------


def _seed_bimaps(groups):
    for G in groups.values():
        L = lie.graded_lie_ring(series.exponent_p_lcs(G))
        for s in L.comps:
            for t in L.comps:
                if L.dim(s) and L.dim(t) and L.dim(mon.add(s, t)):
                    yield scalars.bimap_from_lie_pair(L, s, t)


def _fires(fn, exc, message):
    """True iff fn() raises exc with message (exc with another message: False)."""
    try:
        fn()
    except exc as e:
        if message in str(e):
            return True
    return False


def _equal_algebras(A, B):
    return A.n == B.n and np.array_equal(A.flat, B.flat)


def _drop_first(A):
    """A's span without its first basis row: often not closed, not an ideal."""
    return AssocAlgebra(A.p, A.n, A.basis[1:])


def test_batched_kernels_match_per_pair_loops(corpus_groups):
    seen = {"not closed": 0, "not ideal": 0, "not commutative": 0, "not invariant": 0}
    split_sizes = set()
    bimaps = 0
    for b in _seed_bimaps(corpus_groups):
        bimaps += 1
        p = b.p
        rings = scalars.BimapRings(b)
        der = rings.ring("Der")
        assert _loop_bracket_closed(der)
        radicals = {kind: rings.radical(kind) for kind in scalars.ASSOC_KINDS}
        algebras = []
        for pos, d in enumerate(b.dims):
            gens = [t[pos] for t in der.tuples()]
            env = scalars.envelope(p, d, gens)
            assert _equal_algebras(env, _loop_envelope(p, d, gens))
            algebras.append(env)
        for kind, (A, J, quot, _) in radicals.items():
            assert _equal_algebras(quot, _loop_regular_rep(A, J))
            algebras += [A, quot]
            for cand in (J, _drop_first(A)):
                ideal = _loop_is_ideal(A, cand)
                seen["not ideal"] += not ideal
                fired = _fires(lambda: A._verify_radical(cand), ArithmeticError, "not a two-sided ideal")
                assert fired == (not ideal)
            for J0 in (J, AssocAlgebra(p, A.n, [])):
                ok = _loop_commutative_mod(A, J0)
                seen["not commutative"] += not ok
                fired = _fires(lambda: scalars._check_commutative_quotient(A, J0), ValueError, "not commutative")
                assert fired == (not ok)
        for A in algebras:
            assert A.is_closed() and _loop_is_closed(A)
            if A.dim > 1:
                sub = _drop_first(A)
                seen["not closed"] += not _loop_is_closed(sub)
                assert sub.is_closed() == _loop_is_closed(sub)
            got, want = A._radical_chain().basis, _loop_radical_chain(A)
            assert len(got) == len(want) and all(np.array_equal(x, y) for x, y in zip(got, want))
            assert _equal_algebras(A.center(), _loop_center(A))
        # Z(A/J) of Mid and Cent is where the lift splits idempotents
        for kind in ("Mid", "Cent"):
            zq = radicals[kind][2].center()
            if zq.dim:
                unit = linalg.identity(zq.n)
                got, want = scalars._split_primitive(zq, unit), _factoring_split(zq, unit)
                assert len(got) == len(want) and all(np.array_equal(x, y) for x, y in zip(got, want))
                split_sizes.add(min(len(got), 2))
        # Der-invariance of every emission and of every coordinate line
        sides = der.side_stacks()
        subspaces = [(e.side, e.basis) for e in scalars.characteristic_subspaces(b, rings)]
        for side, d in zip("UVW", b.dims):
            subspaces += [(side, row.reshape(1, -1)) for row in linalg.identity(d)]
        for side, basis in subspaces:
            want = _loop_der_invariant(basis, side, der)
            seen["not invariant"] += not want
            assert scalars._der_invariant(scalars.Emission(side, basis, ["der"]), sides, p) == want
    assert len(corpus_groups) == 46 and bimaps == 70
    assert all(seen.values()), seen  # every predicate met both answers
    assert split_sizes == {1, 2}  # the split met a single idempotent and several


def test_bracket_and_commutativity_checks_match_loops_on_bigger_spans(corpus_groups, monkeypatch):
    """derivation_algebra and centroid fed spans that may fail their checks."""
    fired = {"bracket": 0, "centroid": 0}
    nullspace = linalg.nullspace
    for b in _seed_bimaps(corpus_groups):
        der = nullspace(scalars._condition_matrices(b, "Der"), b.p)
        # Der plus one coordinate triple: closed only if the triple's brackets are
        extra = np.concatenate([der, linalg.identity(der.shape[1])[:1]])
        want = _loop_bracket_closed(ScalarAlgebra("Der", b, extra))
        with monkeypatch.context() as m:
            m.setattr(linalg, "nullspace", lambda a, p: extra)
            got = _fires(lambda: scalars.derivation_algebra(b), ArithmeticError, "not closed under bracket")
        fired["bracket"] += got
        assert got == (not want)
        # the centroid's check run on the whole double-condition ring
        pre = ScalarAlgebra("Cent", b, nullspace(scalars._condition_matrices(b, "Cent"), b.p))
        want = _loop_commutative(pre)
        with monkeypatch.context() as m:
            m.setattr(AssocAlgebra, "center", lambda self: self)
            got = _fires(lambda: scalars.centroid(b), ArithmeticError, "centroid is not commutative")
        fired["centroid"] += got
        assert got == (not want)
    assert all(fired.values()), fired


# -- the nilpotency chain on V against the J^k products ---------------------------


def _products_nilpotent(J):
    """The chain it replaced: J^(k+1) = span{x y : x in J^k, y in J}, held as
    n^2-vectors, must shrink to zero within dim J steps."""
    p, cur = J.p, J
    for _ in range(J.dim + 1):
        if cur.dim == 0:
            return True
        nxt = AssocAlgebra(p, J.n, [a @ b % p for a in cur.basis for b in J.basis])
        if nxt.dim >= cur.dim:
            return False
        cur = nxt
    return cur.dim == 0


def _ideal_sum(A, J, x):
    """J + A x A, for a unital A: an ideal, larger than J when x is outside."""
    S = A.stack
    return AssocAlgebra(A.p, A.n, np.concatenate([J.stack] + [a @ x @ S for a in S]))


def _product_closure(p, n, gens):
    """The span of ``gens`` closed under products, with no identity added."""
    span = AssocAlgebra(p, n, gens)
    while True:
        S = span.stack
        nxt = AssocAlgebra(p, n, np.concatenate([S, (S[:, None] @ S[None]).reshape(-1, n, n)]))
        if nxt.dim == span.dim:
            return span
        span = nxt


def test_nilpotency_chain_matches_products_on_corpus_radicals(corpus_groups):
    """Every radical J of the seed tables, J^2, and J + A x A for each lift
    row x of A/J, all ideals of A.  J + A x A is larger than J, so it is not
    nilpotent, as J is the largest nilpotent ideal; ``_verify_radical``
    raises "not nilpotent" on exactly those."""
    seen = {True: 0, False: 0}
    for b in _seed_bimaps(corpus_groups):
        rings = scalars.BimapRings(b)
        for kind in scalars.ASSOC_KINDS:
            A, J, quot, lift = rings.radical(kind)
            square = AssocAlgebra(A.p, A.n, (J.stack[:, None] @ J.stack[None]).reshape(-1, A.n, A.n))
            perturbed = [_ideal_sum(A, J, lift(row)) for row in linalg.identity(quot.dim)]
            for cand in [J, square] + perturbed:
                want = _products_nilpotent(cand)
                assert cand.is_nilpotent() == want == (cand.dim <= J.dim)
                seen[want] += 1
                fired = _fires(lambda: A._verify_radical(cand), ArithmeticError, "not nilpotent")
                assert fired == (not want)
    assert all(seen.values()), seen


@st.composite
def _triangular_algebras(draw):
    """The product closure of random strictly upper triangular matrices,
    conjugated by a random invertible matrix, with a diagonal unit E_ii
    added or not: nilpotent exactly without it."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 5))
    entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
    gens = [
        np.triu(np.array(draw(entries), dtype=np.int64).reshape(n, n), 1)
        for _ in range(draw(st.integers(0, 3)))
    ]
    unit = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if unit is not None:
        gens.append(np.diag(np.eye(n, dtype=np.int64)[unit]))
    P = np.tril(np.array(draw(entries), dtype=np.int64).reshape(n, n), -1) + linalg.identity(n)
    P_inv = linalg.rref(np.concatenate([P, linalg.identity(n)], axis=1), p)[0][:, n:]
    conj = [P @ g @ P_inv % p for g in gens] or [np.zeros((n, n), dtype=np.int64)]
    return _product_closure(p, n, conj), unit is None


@given(_triangular_algebras())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_nilpotency_chain_matches_products_on_triangular_algebras(case):
    J, nilpotent = case
    assert J.is_nilpotent() == _products_nilpotent(J) == nilpotent


# -- each batched check still fires ----------------------------------------------

E = {(i, j): np.eye(1, 9, 3 * i + j, dtype=np.int64).reshape(3, 3) for i in range(3) for j in range(3)}
E2 = {k: m[:2, :2] for k, m in E.items() if max(k) < 2}
I2 = np.eye(2, dtype=np.int64)


def test_is_closed_fires_off_and_on_the_diagonal():
    assert not AssocAlgebra(3, 2, [E2[0, 1], E2[1, 0]]).is_closed()  # E12 E21 = E11
    assert not AssocAlgebra(3, 2, [E2[0, 1] + E2[1, 0]]).is_closed()  # its square is 1
    assert AssocAlgebra(3, 2, [I2, E2[0, 1]]).is_closed()


def test_envelope_takes_squares():
    shift = E[0, 1] + E[1, 2]  # only shift @ shift leaves span{1, shift}
    env = scalars.envelope(3, 3, [shift])
    assert env.dim == 3 and env.contains(E[0, 2])


def test_commutative_quotient_check_fires_on_full_matrix_algebra():
    m2 = AssocAlgebra(3, 2, [E2[k] for k in E2])
    with pytest.raises(ValueError, match="quotient by the radical is not commutative"):
        scalars._check_commutative_quotient(m2, AssocAlgebra(3, 2, []))


@pytest.mark.parametrize("cand", [[E2[0, 0], E2[1, 0]], [E2[0, 0], E2[0, 1]]], ids=["left", "right"])
def test_verify_radical_fires_on_one_sided_ideals(cand):
    m2 = AssocAlgebra(3, 2, [E2[k] for k in E2])
    with pytest.raises(ArithmeticError, match="radical is not a two-sided ideal"):
        m2._verify_radical(AssocAlgebra(3, 2, cand))


def test_verify_radical_fires_on_an_ideal_that_is_not_nilpotent():
    upper = AssocAlgebra(3, 2, [E2[0, 0], E2[0, 1], E2[1, 1]])
    top_row = AssocAlgebra(3, 2, [E2[0, 0], E2[0, 1]])  # a two-sided ideal holding E11
    with pytest.raises(ArithmeticError, match="radical candidate is not nilpotent"):
        upper._verify_radical(top_row)


def test_derivation_algebra_fires_on_a_basis_not_closed(monkeypatch):
    b = Bimap(3, np.zeros((2, 1, 1), dtype=np.int64))
    # (E12, 0, 0) and (E21, 0, 0): their bracket (E11 - E22, 0, 0) is outside
    basis = np.array([np.concatenate([E2[k].reshape(-1), [0, 0]]) for k in ((0, 1), (1, 0))])
    monkeypatch.setattr(linalg, "nullspace", lambda a, p: basis)
    with pytest.raises(ArithmeticError, match="derivation algebra not closed under bracket"):
        scalars.derivation_algebra(b)


def test_center_fires_on_a_span_not_closed():
    with pytest.raises(ArithmeticError, match="commutator outside the algebra"):
        AssocAlgebra(3, 2, [E2[0, 1], E2[1, 0]]).center()  # [E12, E21] = E11 - E22


def test_frobenius_fixed_fires_on_a_span_not_closed():
    with pytest.raises(ArithmeticError, match="p-th power outside the algebra"):
        AssocAlgebra(2, 2, [E2[0, 1] + E2[1, 0]]).frobenius_fixed()  # its square is 1


def test_split_primitive_fires_when_the_count_differs_from_dim_b():
    diagonal = AssocAlgebra(3, 2, [E2[0, 0], E2[1, 1]])
    assert len(scalars._split_primitive(diagonal, I2)) == 2
    with pytest.raises(ArithmeticError, match="idempotent count differs"):
        scalars._split_primitive(diagonal, E2[0, 0])  # not the identity: one block only
