"""Pre-ordered commutative monoids N^d used as grading index sets.

Elements are tuples of non-negative ints.  Two pre-orders are supported:
pointwise (componentwise <=) and lexicographic (total, first coordinate most
significant).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

MonoidElem = Tuple[int, ...]

POINTWISE = "pointwise"
LEX = "lex"


@dataclass(frozen=True)
class GradedMonoid:
    dim: int
    order_kind: str = POINTWISE

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("monoid dimension must be positive")
        if self.order_kind not in (POINTWISE, LEX):
            raise ValueError(f"unknown order kind {self.order_kind!r}")

    @property
    def zero(self) -> MonoidElem:
        return (0,) * self.dim

    @property
    def atoms(self) -> List[MonoidElem]:
        """The minimal nonzero grades: e_1, ..., e_d pointwise, e_d alone in
        lex (every t != 0 has t >= e_d lexicographically)."""
        units = [tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim)]
        return units if self.order_kind == POINTWISE else units[-1:]

    def preceq(self, a: MonoidElem, b: MonoidElem) -> bool:
        return preceq(a, b, self.order_kind)

    def preceq_matrix(self, grades: List[MonoidElem]) -> np.ndarray:
        """``le[i, j]`` iff grades[i] precedes-or-equals grades[j]; the grades
        are distinct and in lex order."""
        n = len(grades)
        if self.order_kind == LEX:
            return np.triu(np.ones((n, n), dtype=bool))
        coords = np.array(grades, dtype=np.int32).reshape(n, self.dim)
        le = np.ones((n, n), dtype=bool)
        for k in range(self.dim):
            le &= coords[:, k, None] <= coords[None, :, k]
        return le


def zero(dim: int) -> MonoidElem:
    return (0,) * dim


def add(a: MonoidElem, b: MonoidElem) -> MonoidElem:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def preceq(a: MonoidElem, b: MonoidElem, order_kind: str = POINTWISE) -> bool:
    """a is below-or-equal b in the chosen pre-order."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    if order_kind == POINTWISE:
        return all(x <= y for x, y in zip(a, b))
    if order_kind == LEX:
        return a <= b  # tuple comparison is lexicographic
    raise ValueError(f"unknown order kind {order_kind!r}")


def box_enumerate(bound: MonoidElem) -> List[MonoidElem]:
    """All m pointwise <= bound, in lexicographic order."""
    if any(c < 0 for c in bound):
        raise ValueError("box bound must be non-negative")
    return [tuple(m) for m in itertools.product(*(range(c + 1) for c in bound))]


def clamp(m: MonoidElem, bound: MonoidElem) -> MonoidElem:
    """m with every coordinate cut down to the bound's."""
    return tuple(min(x, b) for x, b in zip(m, bound))
