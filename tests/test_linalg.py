import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from filterlab import linalg


def random_matrix(draw, p, rows, cols):
    data = draw(
        st.lists(
            st.integers(min_value=0, max_value=p - 1),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return np.array(data, dtype=np.int64).reshape(rows, cols)


mats = st.integers(min_value=2, max_value=5).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=4, max_size=4),
            min_size=3,
            max_size=3,
        ),
    )
)


@given(mats)
@settings(max_examples=150)
def test_nullspace_annihilates(case):
    p, rows = case
    if p not in (2, 3, 5):
        return
    a = np.array(rows, dtype=np.int64)
    ns = linalg.nullspace(a, p)
    for v in ns:
        assert not ((a @ v) % p).any()
    assert len(linalg.rref(a, p)[1]) + ns.shape[0] == a.shape[1]


def _two_pass_nullspace(a, p):
    """The kernel as ``nullspace`` built it with two eliminations: one
    vector per free column of rref(a), then their row space."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    n = a.shape[1]
    if n == 0:
        return linalg.zeros((0, 0))
    r, piv = linalg.rref(a, p)
    free = [j for j in range(n) if j not in set(piv)]
    basis = linalg.zeros((len(free), n))
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, c in enumerate(piv):
            basis[k, c] = (-r[i, f]) % p
    return linalg.row_space(basis, p)


@st.composite
def kernel_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    a = random_matrix(draw, p, rows, cols)
    return p, a * draw(st.booleans())  # all-zero about half the time


@given(kernel_cases())
@example((5, linalg.zeros((0, 0))))
@example((5, linalg.zeros((0, 3))))
@example((5, linalg.zeros((2, 0))))
@example((5, linalg.zeros((3, 4))))
@settings(max_examples=300, deadline=None)
def test_nullspace_is_the_two_pass_kernel(case):
    """One elimination gives the same RREF kernel as two, on 0-row and
    all-zero matrices too."""
    p, a = case
    got, want = linalg.nullspace(a, p), _two_pass_nullspace(a, p)
    assert got.shape == want.shape and np.array_equal(got, want)


@given(mats)
@settings(max_examples=100)
def test_rref_idempotent(case):
    p, rows = case
    if p not in (2, 3, 5):
        return
    a = np.array(rows, dtype=np.int64)
    r1 = linalg.row_space(a, p)
    r2 = linalg.row_space(r1, p) if r1.size else r1
    assert np.array_equal(r1, r2)


def test_row_coords_roundtrip():
    p = 7
    basis = linalg.row_space(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64), p)
    x = np.array([3, 5], dtype=np.int64)
    v = x @ basis % p
    got = linalg.row_coords(v, basis, p)
    assert np.array_equal(got, x)
    assert np.array_equal(got @ basis % p, v)


def test_row_coords_outside_is_none():
    p = 2
    basis = linalg.row_space(np.array([[1, 1], [1, 1]], dtype=np.int64), p)
    assert linalg.row_coords(np.array([1, 0]), basis, p) is None
    assert not linalg.in_row_space(np.array([1, 0]), basis, p)
    assert linalg.row_coords(np.array([[1, 1], [1, 0]]), basis, p) is None


@pytest.mark.parametrize(
    "basis",
    [[[1, 1], [0, 1]], [[2, 0]], [[0, 0]], [[1, 0], [1, 1]], [[0, 1], [1, 0], [1, 1]], [[0, 1], [1, 0]]],
)
def test_row_coords_rejects_non_rref_basis(basis):
    with pytest.raises(ValueError, match="reduced row echelon"):
        linalg.row_coords(np.array([1, 0]), np.array(basis, dtype=np.int64), 3)


spans = st.sampled_from([2, 3, 5]).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.integers(min_value=1, max_value=4).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
                min_size=0,
                max_size=3,
            ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(-1, cols))
        ),
    )
)


@given(spans)
@settings(max_examples=80, deadline=None)
def test_row_coords_matches_enumerated_span(case):
    """The kernel against every combination of the basis rows, on every
    vector of GF(p)^n."""
    p, a = case
    n = a.shape[1]
    basis = linalg.row_space(a, p)
    k = basis.shape[0]
    span = {}
    for x in itertools.product(range(p), repeat=k):
        span[tuple(np.array(x, dtype=np.int64) @ basis.reshape(k, n) % p)] = x
    assert len(span) == p ** k  # the rows are independent
    for v in itertools.product(range(p), repeat=n):
        got = linalg.row_coords(np.array(v, dtype=np.int64), basis, p)
        want = span.get(v)
        assert (got is None) == (want is None)
        if want is not None:
            assert tuple(got) == want
        assert linalg.in_row_space(np.array(v), basis, p) == (want is not None)
    members = np.array(list(span), dtype=np.int64).reshape(-1, n)
    assert np.array_equal(linalg.row_coords(members, basis, p), np.array(list(span.values()), dtype=np.int64).reshape(len(span), k))


def test_in_row_space_of_stacked_rows():
    p = 3
    a = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64)
    b = np.array([[0, 1, 0], [0, 0, 1]], dtype=np.int64)
    assert linalg.in_row_space(np.array([0, 1, 0]), a, p)
    assert not linalg.in_row_space(np.array([0, 0, 1]), a, p)
    total = linalg.row_space(np.concatenate([a, b]), p)
    assert total.shape[0] == 3
    assert linalg.in_row_space(np.array([0, 0, 1]), total, p)


def test_subspace_predicate():
    p = 5
    big = np.array([[1, 0], [0, 1]], dtype=np.int64)
    small = np.array([[2, 3]], dtype=np.int64)
    assert linalg.row_coords(small, linalg.row_space(big, p), p) is not None
    assert linalg.row_coords(big, linalg.row_space(small, p), p) is None
