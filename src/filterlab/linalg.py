"""Dense linear algebra over GF(p).

Vectors are rows; a subspace is stored as a matrix whose rows form a basis,
canonicalised by reduced row echelon form.  Everything works on int64 numpy
arrays with entries reduced mod p.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def mod_p(a: np.ndarray, p: int) -> np.ndarray:
    return np.asarray(a, dtype=np.int64) % p


def zeros(shape, dtype=np.int64) -> np.ndarray:
    return np.zeros(shape, dtype=dtype)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def inv_scalar(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def rref(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form over GF(p); returns (matrix, pivot columns)."""
    m = mod_p(np.array(a, dtype=np.int64, copy=True), p)
    rows, cols = m.shape
    piv_cols: List[int] = []
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
        m[r] = (m[r] * inv_scalar(m[r, c], p)) % p
        for i in range(rows):
            if i != r and m[i, c] % p:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        piv_cols.append(c)
        r += 1
    return m, piv_cols


def row_space(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis (RREF rows, zero rows dropped) of the row space."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    if a.size == 0:
        return zeros((0, a.shape[1] if a.ndim == 2 else 0))
    r, piv = rref(a, p)
    return r[: len(piv)]


def rank(a: np.ndarray, p: int) -> int:
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis (rows) of {x : a @ x = 0} over GF(p)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    m, n = a.shape
    if n == 0:
        return zeros((0, 0))
    r, piv = rref(a, p)
    piv_set = set(piv)
    free = [j for j in range(n) if j not in piv_set]
    basis = zeros((len(free), n))
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, c in enumerate(piv):
            basis[k, c] = (-r[i, f]) % p
    return row_space(basis, p)


def row_coords(v: np.ndarray, basis: np.ndarray, p: int) -> np.ndarray | None:
    """Coordinates c with v = c @ basis over GF(p), or None if v is outside.

    ``basis`` is in RREF, as ``row_space`` returns it, with pivot columns P.
    Then basis[:, P] = I, so v = c @ basis forces c = v[P]; one product checks
    it, with no elimination.  ``v`` is a vector or a matrix of row vectors
    (None unless every row lies in the span).  Raises ValueError unless
    basis[:, P] is the identity.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=np.int64))
    v = mod_p(v, p)
    if basis.shape[0] == 0:
        return None if v.any() else zeros(v.shape[:-1] + (0,))
    piv = (basis != 0).argmax(axis=1)
    if not np.array_equal(basis[:, piv], identity(len(piv))):
        raise ValueError("basis is not in reduced row echelon form")
    c = v[..., piv]
    return c if np.array_equal(c @ basis % p, v) else None


def in_row_space(v: np.ndarray, basis: np.ndarray, p: int) -> bool:
    """True iff v lies in the row space of an RREF ``basis``."""
    return row_coords(np.asarray(v).reshape(-1), basis, p) is not None


def sum_spaces(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    b = np.atleast_2d(np.asarray(b, dtype=np.int64))
    if a.shape[0] == 0:
        return row_space(b, p)
    if b.shape[0] == 0:
        return row_space(a, p)
    return row_space(np.concatenate([a, b], axis=0), p)


def is_subspace(a: np.ndarray, b: np.ndarray, p: int) -> bool:
    """True iff row space of a is contained in row space of b."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    return row_coords(a, row_space(b, p), p) is not None
