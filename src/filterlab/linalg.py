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
    """Reduced row echelon form over GF(p); returns (matrix, pivot columns).

    The elimination runs on Python int lists: most matrices here have one or
    two rows and columns, where a numpy call per row costs more than the row.
    """
    rows, cols = np.shape(a)
    m = mod_p(a, p).tolist()
    piv_cols: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        row = m[r]
        if row[c] != 1:
            inv = inv_scalar(row[c], p)
            row = m[r] = [x * inv % p for x in row]
        for i, mi in enumerate(m):
            f = mi[c]
            if f and i != r:
                m[i] = [(x - f * y) % p for x, y in zip(mi, row)]
        piv_cols.append(c)
        r += 1
    return np.array(m, dtype=np.int64).reshape(rows, cols), piv_cols


def echelon(a: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """Canonical basis of the row space (RREF rows, zero rows dropped) with
    its pivot columns, the ``pivots`` that ``row_coords`` reads."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    if a.size == 0:
        return zeros((0, a.shape[1] if a.ndim == 2 else 0)), zeros(0, np.intp)
    r, piv = rref(a, p)
    return r[: len(piv)], np.array(piv, dtype=np.intp)


def row_space(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis (RREF rows, zero rows dropped) of the row space."""
    return echelon(a, p)[0]


def pivots(basis: np.ndarray) -> np.ndarray:
    """The pivot columns P of a basis in RREF: P strictly increasing and
    basis[:, P] = I.  Raises ValueError for any other basis.  For a basis
    built elsewhere: ``echelon`` returns the pivots with the rows it builds."""
    basis = np.atleast_2d(np.asarray(basis, dtype=np.int64))
    if basis.shape[0] == 0:
        return zeros(0, np.intp)
    piv = (basis != 0).argmax(axis=1)
    if (np.diff(piv) <= 0).any() or not np.array_equal(basis[:, piv], identity(len(piv))):
        raise ValueError("basis is not in reduced row echelon form")
    return piv


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of {x : a @ x = 0} over GF(p), in RREF, from one elimination.

    Let b = a with its columns reversed, R = rref(b) with pivots Q, and F the
    free columns of b.  For f in F, y_f with y_f[f] = 1, y_f[q_i] = -R[i, f]
    and zeros elsewhere solves b y = 0, and these span the kernel of b.
    R[i, f] != 0 only for q_i < f, so y_f lives on f and on pivots left of f.
    Reversed back, x_f solves a x = 0 with a 1 at f' = n - 1 - f and its other
    entries at pivot columns (reversed) right of f': its leading 1 is at its
    own free column, and every other x_g is 0 there, as f' is no pivot.  So
    the x_f sorted by f' are in RREF, which is unique: no second elimination.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    n = a.shape[1]
    r, piv = rref(a[:, ::-1], p)
    r, piv_set = r.tolist(), set(piv)
    basis = []
    for f in range(n - 1, -1, -1):  # f' = n - 1 - f ascending
        if f in piv_set:
            continue
        row = [0] * n
        row[n - 1 - f] = 1
        for r_i, q in zip(r, piv):
            row[n - 1 - q] = -r_i[f] % p
        basis.append(row)
    return np.array(basis, dtype=np.int64).reshape(len(basis), n)


def row_coords(
    v: np.ndarray, basis: np.ndarray, p: int, piv: np.ndarray | None = None
) -> np.ndarray | None:
    """Coordinates c with v = c @ basis over GF(p), or None if v is outside.

    ``basis`` is in RREF with pivot columns P, as ``echelon`` returns them.
    Then basis[:, P] = I, so v = c @ basis forces c = v[P]; one product checks
    it, with no elimination.  ``v`` is a vector or a matrix of row vectors
    (None unless every row lies in the span).  ``piv`` is P as the basis
    carries it; without it P is derived and checked by ``pivots``, which
    raises ValueError unless basis[:, P] is the identity.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=np.int64))
    if piv is None:
        piv = pivots(basis)
    v = mod_p(v, p)
    if basis.shape[0] == 0:
        return None if v.any() else zeros(v.shape[:-1] + (0,))
    c = v[..., piv]
    return c if np.array_equal(c @ basis % p, v) else None


def in_row_space(v: np.ndarray, basis: np.ndarray, p: int, piv: np.ndarray | None = None) -> bool:
    """True iff v lies in the row space of an RREF ``basis`` (pivots ``piv``)."""
    return row_coords(np.asarray(v).reshape(-1), basis, p, piv) is not None
