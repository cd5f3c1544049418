"""The five scalar rings of a bimap over GF(p) and their structure theory.

Each ring is the nullspace of a linear system read off the bimap tensor.
Associative kinds are handled through a faithful block-matrix representation
(components acting oppositely are transposed), so closure checks, Jacobson
radicals, quotients, and idempotent lifting all run on plain matrix algebra.

The radical uses the characteristic-p trace chain: I_0 is the kernel of the
ordinary trace form and I_{k+1} = {x in I_k : Tr((xy)^{p^{k+1}}) = 0 for all
y in I_k}; the chain stops once p^k exceeds the representation degree, where
it equals the Jacobson radical.  For p larger than the degree this is the
classical trace-form kernel.  The result is verified a posteriori: two-sided
ideal, nilpotent, semisimple quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import sympy

from . import linalg

KINDS = ("Der", "Left", "Mid", "Right", "Cent")

# tuple layout per kind: (component matrix sizes as side names)
KIND_SIDES: Dict[str, Tuple[str, ...]] = {
    "Der": ("U", "V", "W"),
    "Left": ("U", "W"),
    "Mid": ("U", "V"),
    "Right": ("V", "W"),
    "Cent": ("U", "V", "W"),
}

# components composing in the opposite ring (transposed in the block rep)
KIND_OPPOSITE: Dict[str, Tuple[bool, ...]] = {
    "Left": (False, False),
    "Mid": (False, True),
    "Right": (False, False),
    "Cent": (False, True, False),
}


@dataclass
class Bimap:
    p: int
    tensor: np.ndarray  # shape (dU, dV, dW)

    def __post_init__(self):
        self.tensor = np.asarray(self.tensor, dtype=np.int64) % self.p

    @property
    def dims(self) -> Tuple[int, int, int]:
        return self.tensor.shape

    def apply(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("a,b,abc->c", u, v, self.tensor) % self.p

    def radical_u(self) -> np.ndarray:
        """{u : u o V = 0} as echelon rows."""
        dU, dV, dW = self.dims
        flat = self.tensor.reshape(dU, dV * dW)
        return linalg.nullspace(flat.T, self.p)

    def radical_v(self) -> np.ndarray:
        dU, dV, dW = self.dims
        flat = np.transpose(self.tensor, (1, 0, 2)).reshape(dV, dU * dW)
        return linalg.nullspace(flat.T, self.p)


def bimap_from_lie_pair(L, s, t) -> Bimap:
    """Homogeneous product L_s x L_t -> L_{s+t} as a standalone bimap."""
    return Bimap(L.p, L.bracket_tensor(s, t))


# -- generic associative matrix algebra --------------------------------------


class AssocAlgebra:
    """Subalgebra of M_n(GF(p)) spanned by a basis of matrices."""

    def __init__(self, p: int, n: int, basis: Sequence[np.ndarray]):
        self.p = p
        self.n = n
        mats = [np.asarray(b, dtype=np.int64) % p for b in basis]
        flat = (
            np.stack([m.reshape(-1) for m in mats])
            if mats
            else np.zeros((0, n * n), dtype=np.int64)
        )
        self.flat = linalg.row_space(flat, p)
        self.basis = [v.reshape(n, n) for v in self.flat]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, m: np.ndarray) -> bool:
        return linalg.in_row_space(m.reshape(-1), self.flat, self.p)

    def coords(self, m: np.ndarray) -> Optional[np.ndarray]:
        return linalg.row_coords(m.reshape(-1), self.flat, self.p)

    def is_closed(self) -> bool:
        return all(
            self.contains(a @ b % self.p) for a in self.basis for b in self.basis
        )

    def has_identity(self) -> bool:
        return self.contains(linalg.identity(self.n))

    def _radical_chain(self) -> List[np.ndarray]:
        # descending chain A = A_0 >= A_1 >= ... with
        #   A_{i+1} = {x in A_i : Tr((x~ y~)^{p^i}) = 0 mod p^{i+1}, all y in A_i}
        # on integral lifts x~ (entries 0..p-1); the value at level i is
        # divisible by p^i on A_i, so dividing gives an F_p-linear system.
        # After the level with p^i >= n the chain equals the Jacobson radical.
        p, n = self.p, self.n
        cur = [b % p for b in self.basis]
        i = 0
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
                    val = int(np.trace(_mat_power(prod, pk, mod))) % mod
                    if val % pk:
                        raise ArithmeticError("radical chain divisibility failed")
                    row.append((val // pk) % p)
                rows.append(row)
            ker = linalg.nullspace(np.array(rows, dtype=np.int64), p)
            cur = [np.tensordot(c, np.stack(cur), axes=1) % p for c in ker]
            if pk >= n:
                return cur
            i += 1
            pk *= p

    def radical(self) -> "AssocAlgebra":
        """Jacobson radical via the characteristic-p integral trace chain."""
        rad = AssocAlgebra(self.p, self.n, self._radical_chain())
        self._verify_radical(rad)
        return rad

    def _verify_radical(self, rad: "AssocAlgebra") -> None:
        p = self.p
        for a in self.basis:
            for r in rad.basis:
                if not rad.contains(a @ r % p) or not rad.contains(r @ a % p):
                    raise ArithmeticError("radical is not a two-sided ideal")
        # nilpotency: J^k shrinks to zero within dim steps
        cur = rad
        for _ in range(rad.dim + 1):
            if cur.dim == 0:
                break
            nxt = AssocAlgebra(
                p, self.n, [a @ b % p for a in cur.basis for b in rad.basis]
            )
            if nxt.dim >= cur.dim and nxt.dim > 0:
                raise ArithmeticError("radical candidate is not nilpotent")
            cur = nxt
        else:
            if cur.dim:
                raise ArithmeticError("radical candidate is not nilpotent")
        quot, _ = self.quotient(rad)
        if quot.dim and quot._radical_chain():
            raise ArithmeticError("quotient by radical is not semisimple")

    def quotient(self, ideal: "AssocAlgebra"):
        """(A/ideal via left regular representation, lift fn)."""
        p = self.p
        # complement basis: rows of self.flat independent modulo ideal.flat
        lift_rows = []
        span = ideal.flat
        for v in self.flat:
            if not linalg.in_row_space(v, span, p):
                lift_rows.append(v)
                span = linalg.sum_spaces(span, v.reshape(1, -1), p)
        q = len(lift_rows)
        lift_mats = [v.reshape(self.n, self.n) for v in lift_rows]
        # the complement and ideal rows are a second basis of A: invert their
        # coordinates over self.flat once, so a product's coordinates over
        # them are a kernel read times that inverse
        k = self.dim
        combined = np.array(lift_rows + list(ideal.flat), dtype=np.int64)
        combined = combined.reshape(self.flat.shape)
        aug = np.concatenate(
            [linalg.row_coords(combined, self.flat, p), linalg.identity(k)], axis=1
        )
        to_lift = linalg.rref(aug, p)[0][:, k : k + q]

        # left regular representation of the quotient
        reg = []
        for a in lift_mats:
            prods = np.stack([(a @ b).reshape(-1) for b in lift_mats])
            c = linalg.row_coords(prods, self.flat, p)
            if c is None:
                raise ValueError("element not in algebra")
            reg.append((c @ to_lift % p).T)  # column convention flip so x*regmat acts rightly
        quot = AssocAlgebra(p, q, reg)

        def lift(coords: np.ndarray) -> np.ndarray:
            out = np.zeros((self.n, self.n), dtype=np.int64)
            for c, m in zip(coords, lift_mats):
                out = (out + int(c) * m) % p
            return out

        return quot, lift

    def center(self) -> "AssocAlgebra":
        if self.dim == 0:
            return self
        p = self.p
        rows = []
        for b in self.basis:
            block = []
            for a in self.basis:
                block.append(((a @ b - b @ a) % p).reshape(-1))
            rows.append(np.concatenate(block))
        sys = np.stack(rows).T  # unknowns = coefficients over basis
        ker = linalg.nullspace(sys, p)
        mats = [
            np.tensordot(c, np.stack(self.basis), axes=1) % p for c in ker
        ]
        return AssocAlgebra(p, self.n, mats)

    def min_poly(self, m: np.ndarray, unit: Optional[np.ndarray] = None) -> List[int]:
        """Monic minimal polynomial coefficients (low to high) of m."""
        p = self.p
        unit = linalg.identity(self.n) if unit is None else unit
        powers = [unit % p]
        while True:
            powers.append(powers[-1] @ m % p)
            stack = np.stack([q.reshape(-1) for q in powers])
            ker = linalg.nullspace(stack.T, p)
            if ker.shape[0]:
                rel = ker[0]
                deg = max(i for i, c in enumerate(rel) if c)
                inv = linalg.inv_scalar(int(rel[deg]), p)
                return [int(c) * inv % p for c in rel[: deg + 1]]


def _mat_power(m: np.ndarray, e: int, mod: int) -> np.ndarray:
    """m^e reduced mod a small modulus: p over GF(p), p^(k+1) for integral lifts."""
    out = np.eye(m.shape[0], dtype=np.int64)
    base = m % mod
    while e:
        if e & 1:
            out = out @ base % mod
        base = base @ base % mod
        e >>= 1
    return out


def envelope(p: int, n: int, gens: Sequence[np.ndarray]) -> AssocAlgebra:
    """Unital associative subalgebra of M_n generated by the given matrices."""
    span = AssocAlgebra(p, n, list(gens) + [linalg.identity(n)])
    while True:
        new = []
        for a in span.basis:
            for b in span.basis:
                m = a @ b % p
                if not span.contains(m):
                    new.append(m)
        if not new:
            return span
        span = AssocAlgebra(p, n, list(span.basis) + new)


# -- the five rings -----------------------------------------------------------


class ScalarAlgebra:
    """Basis of one of the five rings, with tuple and block-matrix views."""

    def __init__(self, kind: str, bimap: Bimap, basis_flat: np.ndarray):
        self.kind = kind
        self.bimap = bimap
        self.p = bimap.p
        self.dims = bimap.dims
        self.flat = linalg.row_space(basis_flat, self.p)
        self.sizes = self._component_sizes()

    def _component_sizes(self) -> Tuple[int, ...]:
        dU, dV, dW = self.dims
        by_side = {"U": dU, "V": dV, "W": dW}
        return tuple(by_side[s] for s in KIND_SIDES[self.kind])

    @property
    def dim(self) -> int:
        return self.flat.shape[0]

    def tuples(self) -> List[Tuple[np.ndarray, ...]]:
        return [self.unflatten(v) for v in self.flat]

    def unflatten(self, v: np.ndarray) -> Tuple[np.ndarray, ...]:
        out = []
        pos = 0
        for d in self.sizes:
            out.append(np.asarray(v[pos : pos + d * d]).reshape(d, d) % self.p)
            pos += d * d
        return tuple(out)

    def identity_tuple(self) -> Tuple[np.ndarray, ...]:
        return tuple(linalg.identity(d) for d in self.sizes)

    def contains_tuple(self, t: Sequence[np.ndarray]) -> bool:
        v = np.concatenate([m.reshape(-1) % self.p for m in t])
        return linalg.in_row_space(v, self.flat, self.p)

    # block-matrix representation (associative kinds only)
    def rep_size(self) -> int:
        return sum(self.sizes)

    def to_rep(self, t: Sequence[np.ndarray]) -> np.ndarray:
        opp = KIND_OPPOSITE[self.kind]
        n = self.rep_size()
        out = np.zeros((n, n), dtype=np.int64)
        pos = 0
        for m, d, o in zip(t, self.sizes, opp):
            out[pos : pos + d, pos : pos + d] = m.T if o else m
            pos += d
        return out

    def from_rep(self, r: np.ndarray) -> Tuple[np.ndarray, ...]:
        opp = KIND_OPPOSITE[self.kind]
        out = []
        pos = 0
        for d, o in zip(self.sizes, opp):
            blk = r[pos : pos + d, pos : pos + d]
            out.append(blk.T if o else blk)
            pos += d
        return tuple(out)

    def assoc(self) -> AssocAlgebra:
        if self.kind == "Der":
            raise ValueError("Der is a Lie ring; use the envelope per side")
        return AssocAlgebra(self.p, self.rep_size(), [self.to_rep(t) for t in self.tuples()])


def _condition_matrices(b: Bimap, kind: str) -> np.ndarray:
    """Coefficient matrix rows: one equation per (a, b, c) basis triple."""
    T = b.tensor
    dU, dV, dW = b.dims
    p = b.p
    eqs = dU * dV * dW

    def f_block():  # coefficient of F[a,x]: T[x,b,c]
        m = np.zeros((dU, dV, dW, dU, dU), dtype=np.int64)
        for a in range(dU):
            m[a, :, :, a, :] = np.transpose(T, (1, 2, 0))
        return m.reshape(eqs, dU * dU)

    def g_block():  # coefficient of G[b,y]: T[a,y,c]
        m = np.zeros((dU, dV, dW, dV, dV), dtype=np.int64)
        for bb in range(dV):
            m[:, bb, :, bb, :] = np.transpose(T, (0, 2, 1))
        return m.reshape(eqs, dV * dV)

    def h_block():  # coefficient of H[w,c]: -T[a,b,w]
        m = np.zeros((dU, dV, dW, dW, dW), dtype=np.int64)
        for c in range(dW):
            m[:, :, c, :, c] = T
        return (-m).reshape(eqs, dW * dW)

    if kind == "Der":
        sys_mat = np.concatenate([f_block(), g_block(), h_block()], axis=1)
    elif kind == "Left":  # (uF) o v = (u o v) G
        sys_mat = np.concatenate([f_block(), h_block()], axis=1)
    elif kind == "Mid":  # (uF) o v = u o (vG)
        sys_mat = np.concatenate([f_block(), -g_block() % p], axis=1)
    elif kind == "Right":  # u o (vF) = (u o v) G
        sys_mat = np.concatenate([g_block(), h_block()], axis=1)
    elif kind == "Cent":
        top = np.concatenate([f_block(), np.zeros((eqs, dV * dV), dtype=np.int64), h_block()], axis=1)
        bot = np.concatenate([np.zeros((eqs, dU * dU), dtype=np.int64), g_block(), h_block()], axis=1)
        sys_mat = np.concatenate([top, bot], axis=0)
    else:
        raise ValueError(f"unknown ring kind {kind}")
    return sys_mat % p


def derivation_algebra(b: Bimap) -> ScalarAlgebra:
    """Der(o): triples with (uf) o v + u o (vg) = (u o v) h, closed under bracket."""
    basis = linalg.nullspace(_condition_matrices(b, "Der"), b.p)
    alg = ScalarAlgebra("Der", b, basis)
    p = b.p
    for t1 in alg.tuples():
        for t2 in alg.tuples():
            br = tuple((m1 @ m2 - m2 @ m1) % p for m1, m2 in zip(t1, t2))
            if not alg.contains_tuple(br):
                raise ArithmeticError("derivation algebra not closed under bracket")
    return alg


def scalar_ring(b: Bimap, kind: str) -> ScalarAlgebra:
    """Left, Mid, or Right scalars; associative, unital, closure verified."""
    if kind not in ("Left", "Mid", "Right"):
        raise ValueError(f"scalar_ring expects Left/Mid/Right, got {kind}")
    basis = linalg.nullspace(_condition_matrices(b, kind), b.p)
    alg = ScalarAlgebra(kind, b, basis)
    rep = alg.assoc()
    if not rep.is_closed():
        raise ArithmeticError(f"{kind} ring not closed under composition")
    if not alg.contains_tuple(alg.identity_tuple()):
        raise ArithmeticError(f"{kind} ring does not contain the identity")
    return alg


def centroid(b: Bimap) -> ScalarAlgebra:
    """Cent(o): the centre of the double-condition triple ring; commutative."""
    pre = ScalarAlgebra("Cent", b, linalg.nullspace(_condition_matrices(b, "Cent"), b.p))
    zen = pre.assoc().center()
    flat = np.stack(
        [np.concatenate([m.reshape(-1) for m in pre.from_rep(r)]) for r in zen.basis]
    ) if zen.dim else np.zeros((0, sum(d * d for d in pre.sizes)), dtype=np.int64)
    alg = ScalarAlgebra("Cent", b, flat)
    rep = alg.assoc()
    for x in rep.basis:
        for y in rep.basis:
            if ((x @ y - y @ x) % b.p).any():
                raise ArithmeticError("centroid is not commutative")
    if not alg.contains_tuple(alg.identity_tuple()):
        raise ArithmeticError("centroid does not contain the identity")
    return alg


def all_rings(b: Bimap) -> Dict[str, ScalarAlgebra]:
    return {
        "Der": derivation_algebra(b),
        "Left": scalar_ring(b, "Left"),
        "Mid": scalar_ring(b, "Mid"),
        "Right": scalar_ring(b, "Right"),
        "Cent": centroid(b),
    }


def radical(alg: ScalarAlgebra) -> List[Tuple[np.ndarray, ...]]:
    """Jacobson radical basis of an associative kind, as matrix tuples."""
    if alg.kind == "Der":
        raise ValueError("radical is defined for the associative kinds only")
    rad = alg.assoc().radical()
    return [alg.from_rep(r) for r in rad.basis]


# -- idempotents ---------------------------------------------------------------


def _poly_mod(coeffs: List[int], p: int) -> sympy.Poly:
    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(coeffs)), x, modulus=p)


def _split_primitive(assoc: AssocAlgebra, unit: np.ndarray) -> List[np.ndarray]:
    """Primitive orthogonal idempotents of a commutative semisimple algebra."""
    p = assoc.p
    idems = [unit % p]
    for b in assoc.basis:
        new: List[np.ndarray] = []
        for e in idems:
            c = e @ b @ e % p
            mp = assoc.min_poly(c, unit=e)
            poly = _poly_mod(mp, p)
            factors = poly.factor_list()[1]
            if len(factors) == 1:
                new.append(e)
                continue
            for fac, mult in factors:
                g = sympy.div(poly, fac ** mult, domain=sympy.GF(p))[0]
                u = sympy.invert(g, fac ** mult)
                eps = (g * u) % poly
                coeffs = [int(cc) % p for cc in reversed(eps.all_coeffs())]
                # evaluate eps at c inside the corner with unit e
                val = np.zeros_like(unit)
                power = e
                for cc in coeffs:
                    val = (val + cc * power) % p
                    power = power @ c % p
                new.append(val)
        idems = new
    return [e for e in idems if e.any()]


def split_idempotents(alg: ScalarAlgebra) -> List[Tuple[np.ndarray, ...]]:
    """Complete orthogonal idempotents, lifted through the radical.

    Requires the quotient by the radical to be commutative (always true for
    Cent); each output squares to itself, distinct outputs multiply to zero,
    and the sum is the identity tuple.
    """
    assoc = alg.assoc()
    rad = assoc.radical()
    _check_commutative_quotient(assoc, rad)
    return _lift_central_idempotents(alg, assoc, rad)


def _mid_center_idempotents(mid: ScalarAlgebra) -> List[Tuple[np.ndarray, ...]]:
    """Idempotents of Z(Mid/rad), lifted back into Mid through the radical."""
    assoc = mid.assoc()
    return _lift_central_idempotents(mid, assoc, assoc.radical())


def _check_commutative_quotient(assoc: AssocAlgebra, rad: AssocAlgebra) -> None:
    """Raise unless A/J is commutative, i.e. every commutator lies in J."""
    for x in assoc.basis:
        for y in assoc.basis:
            if not rad.contains((x @ y - y @ x) % assoc.p):
                raise ValueError("quotient by the radical is not commutative")


def _lift_central_idempotents(
    alg: ScalarAlgebra, assoc: AssocAlgebra, rad: AssocAlgebra
) -> List[Tuple[np.ndarray, ...]]:
    """Primitive idempotents of Z(A/J), lifted into A through the radical J.

    ``assoc`` is ``alg.assoc()`` and ``rad`` its radical; the lifts come
    back as tuples of ``alg``.  Each lift is the p^K-th power, p^K > dim A,
    of a representative cut down to the corner the earlier lifts leave free;
    the lifts are checked to be idempotent, pairwise orthogonal and to sum
    to the identity.
    """
    p, n = assoc.p, assoc.n
    quot, lift = assoc.quotient(rad)
    if quot.dim == 0:
        return []
    # A is unital, so the regular image of 1_A, I_q, is the identity of A/J
    if not quot.has_identity():
        raise ValueError("algebra has no identity element")
    prim_q = _split_primitive(quot.center(), linalg.identity(quot.n))
    K = 1
    while p ** K <= max(assoc.dim, 1):
        K += 1
    exp = p ** K
    ident = linalg.identity(n)
    lifted: List[np.ndarray] = []
    used = np.zeros((n, n), dtype=np.int64)
    for eq in prim_q:
        c = quot.coords(eq)
        if c is None:
            raise ValueError("element outside algebra span")
        e0 = lift(c)
        corner = (ident - used) % p
        e0 = corner @ e0 @ corner % p
        f = _mat_power(e0, exp, p)
        if ((f @ f - f) % p).any():
            raise ArithmeticError("idempotent lift failed")
        lifted.append(f)
        used = (used + f) % p
    if ((used - ident) % p).any():
        raise ArithmeticError("lifted idempotents do not sum to the identity")
    for i, a in enumerate(lifted):
        for j, c in enumerate(lifted):
            if i != j and (a @ c % p).any():
                raise ArithmeticError("lifted idempotents are not orthogonal")
    return [alg.from_rep(r) for r in lifted]


# -- characteristic subspace emission -----------------------------------------


@dataclass
class Emission:
    side: str  # "U", "V", or "W"
    basis: np.ndarray  # echelon rows spanning the subspace
    provenance: str

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def key(self) -> Tuple[str, Tuple[Tuple[int, ...], ...]]:
        return (self.side, tuple(tuple(int(x) for x in row) for row in self.basis))


# refine's insertion priority: the five rings in order, auxiliaries last
PROVENANCE_RANK = {
    "der": 0,
    "mid": 1,
    "mid-idem": 1,
    "left": 2,
    "right": 3,
    "cent": 4,
    "cent-idem": 4,
    "bimap-radical": 5,
}


def _side_dims(b: Bimap) -> Dict[str, int]:
    dU, dV, dW = b.dims
    return {"U": dU, "V": dV, "W": dW}


def _image_rows(mats: List[np.ndarray], p: int) -> np.ndarray:
    if not mats:
        return np.zeros((0, 0), dtype=np.int64)
    return linalg.row_space(np.concatenate(mats, axis=0), p)


def _common_kernel(mats: List[np.ndarray], p: int) -> np.ndarray:
    stacked = np.concatenate([m.T for m in mats], axis=0)
    return linalg.nullspace(stacked, p)


def _der_invariant(emission: Emission, der: ScalarAlgebra) -> bool:
    side_pos = {"U": 0, "V": 1, "W": 2}[emission.side]
    p = der.p
    s = emission.basis  # in RREF, as every emission basis is
    return all(linalg.row_coords(s @ t[side_pos], s, p) is not None for t in der.tuples())


def characteristic_subspaces(
    b: Bimap,
    rings: Optional[Dict[str, ScalarAlgebra]] = None,
    kinds: Optional[Sequence[str]] = None,
    include_bimap_radicals: Optional[bool] = None,
) -> List[Emission]:
    """Subspaces of U, V, W cut out by the rings' radicals and idempotents.

    Every returned subspace is verified invariant under the matching component
    of Der(o); candidates failing that proxy for being characteristic are
    dropped.  Duplicates (same side, same echelon form) keep their first
    provenance in ring priority order.
    """
    if rings is None:
        rings = all_rings(b)
    if include_bimap_radicals is None:
        include_bimap_radicals = kinds is None
    if kinds is None:
        kinds = KINDS
    p = b.p
    der = rings["Der"]
    out: List[Emission] = []

    def emit(side: str, rows: np.ndarray, prov: str):
        d = _side_dims(b)[side]
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, d) if rows.size else np.zeros((0, d), dtype=np.int64)
        out.append(Emission(side, linalg.row_space(rows, p) if rows.size else rows, prov))

    def emit_action(side: str, mats: List[np.ndarray], prov: str):
        # images and kernels of radical elements acting on one side
        emit(side, _image_rows(mats, p), prov)
        emit(side, _common_kernel(mats, p), prov)
        for m in mats:
            emit(side, linalg.row_space(m, p), prov)
            emit(side, linalg.nullspace(m.T, p), prov)

    # Der: radical of the associative envelope of each side's action
    if "Der" in kinds:
        for pos, side in enumerate(("U", "V", "W")):
            d = _side_dims(b)[side]
            if d == 0:
                continue
            env = envelope(p, d, [t[pos] for t in der.tuples()])
            rad = env.radical()
            if rad.dim:
                emit_action(side, list(rad.basis), "der")

    # associative kinds: radical elements acting on their sides; each ring's
    # algebra A and radical J are built once and also lift the idempotents
    radicals: Dict[str, Tuple[AssocAlgebra, AssocAlgebra]] = {}
    for kind, prov in (("Mid", "mid"), ("Left", "left"), ("Right", "right"), ("Cent", "cent")):
        if kind not in kinds:
            continue
        alg = rings[kind]
        assoc = alg.assoc()
        rad = assoc.radical()
        radicals[kind] = assoc, rad
        if rad.dim:
            rad_tuples = [alg.from_rep(r) for r in rad.basis]
            for pos, side in enumerate(KIND_SIDES[kind]):
                emit_action(side, [t[pos] for t in rad_tuples], prov)

    # idempotent images: Cent, whose A/J must be commutative, and Z(Mid/J)
    # pulled back
    if "Cent" in kinds:
        _check_commutative_quotient(*radicals["Cent"])
    for kind, prov in (("Cent", "cent-idem"), ("Mid", "mid-idem")):
        if kind in kinds:
            for e in _lift_central_idempotents(rings[kind], *radicals[kind]):
                for pos, side in enumerate(KIND_SIDES[kind]):
                    emit(side, linalg.row_space(e[pos], p), prov)

    # bimap radicals
    if include_bimap_radicals:
        emit("U", b.radical_u(), "bimap-radical")
        emit("V", b.radical_v(), "bimap-radical")

    # verify Der-invariance, dedupe keeping first occurrence in rank order
    out.sort(key=lambda e: (PROVENANCE_RANK[e.provenance],))
    seen = set()
    final: List[Emission] = []
    for e in out:
        if not _der_invariant(e, der):
            continue
        k = e.key()
        if k in seen:
            continue
        seen.add(k)
        final.append(e)
    return final
