"""The five scalar rings of a bimap over GF(p) and their structure theory.

Each ring is the nullspace of a linear system read off the bimap tensor,
kept as one layout: its faithful block-diagonal matrix algebra (components
acting oppositely are transposed), echelonised once.  So closure checks, Der's
bracket, Jacobson radicals, quotients, and idempotent lifting all run on
plain matrix algebra; the idempotents of Z(A/J) are split off its
Frobenius-fixed algebra.

The radical uses the characteristic-p trace chain: I_0 is the kernel of the
ordinary trace form and I_{k+1} = {x in I_k : Tr((xy)^{p^{k+1}}) = 0 for all
y in I_k}; the chain stops once p^k exceeds the representation degree, where
it equals the Jacobson radical.  For p larger than the degree this is the
classical trace-form kernel.  The result is verified a posteriori: two-sided
ideal, nilpotent, semisimple quotient.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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
    "Der": (False, False, False),
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

    def radical(self, axis: int) -> np.ndarray:
        """The radical of side ``axis`` (0 for U, 1 for V) as echelon rows:
        {u : u o V = 0} or {v : U o v = 0}."""
        t = np.moveaxis(self.tensor, axis, 0)
        return linalg.nullspace(t.reshape(t.shape[0], -1).T, self.p)


def bimap_from_lie_pair(L, s, t) -> Bimap:
    """Homogeneous product L_s x L_t -> L_{s+t} as a standalone bimap."""
    return Bimap(L.p, L.bracket_tensor(s, t))


# -- generic associative matrix algebra --------------------------------------


class AssocAlgebra:
    """Subalgebra of M_n(GF(p)) spanned by a basis of matrices."""

    def __init__(self, p: int, n: int, basis: Sequence[np.ndarray]):
        self.p = p
        self.n = n
        flat = np.asarray(basis, dtype=np.int64).reshape(len(basis), n * n) % p
        self.flat, self.pivots = linalg.echelon(flat, p)

    @property
    def basis(self) -> List[np.ndarray]:
        """The basis matrices, views of ``flat``."""
        return list(self.stack)

    @property
    def dim(self) -> int:
        return len(self.flat)

    @property
    def stack(self) -> np.ndarray:
        """The basis as one (dim, n, n) array, a view of ``flat``."""
        return self.flat.reshape(-1, self.n, self.n)

    def contains(self, m: np.ndarray) -> bool:
        return linalg.in_row_space(m.reshape(-1), self.flat, self.p, self.pivots)

    def contains_all(self, ms: np.ndarray) -> bool:
        """True iff every matrix of the stack ``ms`` (any leading shape) lies
        in the algebra."""
        return self.stack_coords(ms) is not None

    def coords(self, m: np.ndarray) -> Optional[np.ndarray]:
        return linalg.row_coords(m.reshape(-1), self.flat, self.p, self.pivots)

    def stack_coords(self, ms: np.ndarray) -> Optional[np.ndarray]:
        """One row of coordinates over ``flat`` per matrix of the stack
        ``ms``, or None if one lies outside."""
        return linalg.row_coords(ms.reshape(-1, self.n * self.n), self.flat, self.p, self.pivots)

    def is_closed(self) -> bool:
        return self.contains_all(_pair_products(self.stack, self.stack))

    def has_identity(self) -> bool:
        return self.contains(linalg.identity(self.n))

    def _kernel_rows(self, ker: np.ndarray) -> "AssocAlgebra":
        """The span of the rows of ker @ flat, for ker in RREF with pivots Q
        as ``nullspace`` returns it, with no elimination: the product is in
        RREF with pivots P[Q], P those of ``flat``.  Its columns P[Q] are
        ker[:, Q] = I, as flat[:, P] = I.  Row i is flat[Q_i] plus multiples
        of the rows flat[j], j > Q_i, which are 0 up to their pivots P[j] >
        P[Q_i] and 0 at P[Q_i]; so its leading 1 is at P[Q_i]."""
        sub = AssocAlgebra.__new__(AssocAlgebra)
        sub.p, sub.n = self.p, self.n
        sub.flat = ker @ self.flat % self.p
        leading = (ker != 0).argmax(axis=1) if len(ker) else linalg.zeros(0, np.intp)
        sub.pivots = self.pivots[leading]
        return sub

    def _radical_chain(self) -> "AssocAlgebra":
        # descending chain A = A_0 >= A_1 >= ... with
        #   A_{i+1} = {x in A_i : Tr((x~ y~)^{p^i}) = 0 mod p^{i+1}, all y in A_i}
        # on integral lifts x~ (entries 0..p-1); the value at level i is
        # divisible by p^i on A_i, so dividing gives an F_p-linear system.
        # After the level with p^i >= n the chain equals the Jacobson radical.
        p, n = self.p, self.n
        cur = self
        pk = 1
        while True:
            if not cur.dim:
                return cur
            mod = pk * p
            # Tr((xy)^pk) = Tr((yx)^pk), so the pair stack's order is free
            powers = _mat_power(_pair_products(cur.stack, cur.stack) % mod, pk, mod)
            vals = np.trace(powers, axis1=2, axis2=3) % mod
            if (vals % pk).any():
                raise ArithmeticError("radical chain divisibility failed")
            cur = cur._kernel_rows(linalg.nullspace(vals // pk % p, p))
            if pk >= n:
                return cur
            pk *= p

    def radical(self) -> "AssocAlgebra":
        """Jacobson radical via the characteristic-p integral trace chain."""
        return self.radical_quotient()[0]

    def radical_quotient(self):
        """(J, A/J, lift): the verified radical J with the quotient and lift
        that its verification built, as ``quotient`` returns them."""
        rad = self._radical_chain()
        return (rad,) + self._verify_radical(rad)

    def is_nilpotent(self) -> bool:
        """True iff J^k = 0 for some k, for J this algebra (closed under
        products, not necessarily unital).

        Decided on V = GF(p)^n, where J acts on row vectors: J^k = 0 iff
        V J^k = 0, as only the zero matrix kills every row, and V J^k =
        (V J^(k-1)) J.  So W_0 = V, W_(i+1) = W_i J is the chain V J^i.  It
        descends, since J J <= J: V J <= V, and V J^(i+1) = V J^(i-1) (J J)
        <= V J^i.  A step that keeps dim W_i > 0 repeats forever, so J is not
        nilpotent; otherwise W reaches 0 within n steps.
        """
        W = linalg.identity(self.n)
        while len(W):
            nxt = linalg.row_space((W @ self.stack).reshape(-1, self.n), self.p)
            if len(nxt) == len(W):
                return False
            W = nxt
        return True

    def _verify_radical(self, rad: "AssocAlgebra"):
        """Raise unless ``rad`` is a nilpotent two-sided ideal with semisimple
        quotient; returns ``self.quotient(rad)``."""
        A, R = self.stack, rad.stack
        # every a r and r a, a in A and r in J, as one stack
        both_sides = np.stack([_pair_products(A, R), _pair_products(R, A).swapaxes(0, 1)])
        if not rad.contains_all(both_sides):
            raise ArithmeticError("radical is not a two-sided ideal")
        if not rad.is_nilpotent():
            raise ArithmeticError("radical candidate is not nilpotent")
        quot, lift = self.quotient(rad)
        if quot.dim and quot._radical_chain().dim:
            raise ArithmeticError("quotient by radical is not semisimple")
        return quot, lift

    def quotient(self, ideal: "AssocAlgebra"):
        """(A/ideal via left regular representation, lift fn); lift takes
        coordinates over the quotient's stored basis, as ``coords`` gives them."""
        p = self.p
        # complement basis: the rows of self.flat outside the span of the
        # ideal rows and the rows before them, that is the pivot columns of
        # [ideal rows | A rows] past the (independent) ideal rows
        m = ideal.dim
        cols = np.concatenate([ideal.flat, self.flat], axis=0).T
        lift_idx = [c - m for c in linalg.rref(cols, p)[1] if c >= m]
        q = len(lift_idx)
        # the complement and ideal rows are a second basis of A: invert their
        # coordinates over self.flat once, so a product's coordinates over
        # them are a kernel read times that inverse
        k = self.dim
        combined = np.concatenate([self.flat[lift_idx], ideal.flat])
        aug = np.concatenate([self.stack_coords(combined), linalg.identity(k)], axis=1)
        to_lift = linalg.rref(aug, p)[0][:, k : k + q]

        # left regular representation of the quotient, from the pair table of
        # the lift rows: reg[a] holds a's products, one column each, so that
        # x * regmat acts rightly
        lift_stack = self.stack[lift_idx]
        c = self.stack_coords(_pair_products(lift_stack, lift_stack))
        if c is None:
            raise ValueError("element not in algebra")
        reg = (c.reshape(q, q, k) @ to_lift % p).swapaxes(1, 2)
        quot = AssocAlgebra(p, q, reg)
        if q:
            # quot keeps the RREF of the regular matrices, quot.flat = inv @ reg:
            # put the lift rows through the same change of basis, so that lift
            # reads coordinates over quot.flat
            if quot.dim != q:
                raise ArithmeticError("regular representation of the quotient is not faithful")
            reg_coords = quot.stack_coords(reg)
            inv = linalg.rref(np.concatenate([reg_coords, linalg.identity(q)], axis=1), p)[0][:, q:]
            lift_stack = np.tensordot(inv, lift_stack, axes=1) % p

        def lift(coords: np.ndarray) -> np.ndarray:
            return np.tensordot(np.asarray(coords, dtype=np.int64), lift_stack, axes=1) % p

        return quot, lift

    def center(self) -> "AssocAlgebra":
        if self.dim == 0:
            return self
        p, k = self.p, self.dim
        # a commutator lies in A, so it is zero iff its coordinates are:
        # column b of the system holds those of [a, b] for every basis a
        coords = self.stack_coords(_commutators(self.stack).swapaxes(0, 1))
        if coords is None:
            raise ArithmeticError("commutator outside the algebra")
        # unknowns = coefficients over basis
        return self._kernel_rows(linalg.nullspace(coords.reshape(k, k * k).T, p))

    def frobenius_fixed(self) -> "AssocAlgebra":
        """{x in A : x^p = x} for a commutative A, where x -> x^p is linear: the
        kernel of F - I, row i of F the coordinates of b_i^p, times ``flat``."""
        p, k = self.p, self.dim
        frob = self.stack_coords(_mat_power(self.stack, p, p))
        if frob is None:
            raise ArithmeticError("p-th power outside the algebra")
        return self._kernel_rows(linalg.nullspace((frob - linalg.identity(k)).T, p))


def _pair_products(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The (len X, len Y, n, n) pair table of two matrix stacks: [i, j] = X[i] Y[j]."""
    return X[:, None] @ Y[None]


def _commutators(S: np.ndarray) -> np.ndarray:
    """The pair table of commutators of a matrix stack: [i, j] = [S[i], S[j]]."""
    products = _pair_products(S, S)
    return products - products.swapaxes(0, 1)


def _mat_power(m: np.ndarray, e: int, mod: int) -> np.ndarray:
    """m^e reduced mod a small modulus: p over GF(p), p^(k+1) for integral lifts.

    ``m`` is one matrix or a stack of them (powered one by one).
    """
    out = np.broadcast_to(np.eye(m.shape[-1], dtype=np.int64), m.shape)
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
        S = span.stack
        # the row a @ S of the product table joins the span unless it lies in it
        new = [a @ S for a in span.basis if not span.contains_all(a @ S)]
        if not new:
            return span
        span = AssocAlgebra(p, n, np.concatenate([S] + new))


# -- the five rings -----------------------------------------------------------


class ScalarAlgebra(AssocAlgebra):
    """One of the five rings as its block-diagonal matrix algebra: a tuple
    (one matrix per side of ``KIND_SIDES``) is the block-diagonal matrix of
    its components, those of ``KIND_OPPOSITE`` transposed."""

    def __init__(self, kind: str, bimap: Bimap, basis_flat: np.ndarray):
        """``basis_flat`` holds one tuple per row, its components flattened
        and concatenated."""
        self.kind = kind
        self.bimap = bimap
        by_side = dict(zip("UVW", bimap.dims))
        self.sizes = tuple(by_side[s] for s in KIND_SIDES[kind])
        rows = np.asarray(basis_flat, dtype=np.int64)
        cuts = np.cumsum([d * d for d in self.sizes])[:-1]
        comps = [c.reshape(len(rows), d, d) for c, d in zip(np.split(rows, cuts, axis=1), self.sizes)]
        super().__init__(bimap.p, sum(self.sizes), self.to_rep(comps))

    def tuples(self) -> List[Tuple[np.ndarray, ...]]:
        return list(zip(*self.side_stacks()))

    def side_stacks(self) -> List[np.ndarray]:
        """Per component, the (dim, d, d) stack of every basis element's matrix."""
        return list(self.from_rep(self.stack))

    def to_rep(self, t: Sequence[np.ndarray]) -> np.ndarray:
        """The block-diagonal matrix of tuple ``t``; components that are
        stacks of matrices give the stack of block matrices."""
        n = sum(self.sizes)
        out = np.zeros(np.shape(t[0])[:-2] + (n, n), dtype=np.int64)
        pos = 0
        for m, d, o in zip(t, self.sizes, KIND_OPPOSITE[self.kind]):
            out[..., pos : pos + d, pos : pos + d] = np.swapaxes(m, -1, -2) if o else m
            pos += d
        return out

    def from_rep(self, r: np.ndarray) -> Tuple[np.ndarray, ...]:
        """The tuple of a block matrix, or of a stack of them, as ``to_rep``."""
        out = []
        pos = 0
        for d, o in zip(self.sizes, KIND_OPPOSITE[self.kind]):
            blk = r[..., pos : pos + d, pos : pos + d]
            out.append(np.swapaxes(blk, -1, -2) if o else blk)
            pos += d
        return tuple(out)


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
    alg = ScalarAlgebra("Der", b, linalg.nullspace(_condition_matrices(b, "Der"), b.p))
    # the bracket of block-diagonal matrices is the blockwise one
    if not alg.contains_all(_commutators(alg.stack)):
        raise ArithmeticError("derivation algebra not closed under bracket")
    return alg


def scalar_ring(b: Bimap, kind: str) -> ScalarAlgebra:
    """Left, Mid, or Right scalars; associative, unital, closure verified."""
    if kind not in ("Left", "Mid", "Right"):
        raise ValueError(f"scalar_ring expects Left/Mid/Right, got {kind}")
    alg = ScalarAlgebra(kind, b, linalg.nullspace(_condition_matrices(b, kind), b.p))
    if not alg.is_closed():
        raise ArithmeticError(f"{kind} ring not closed under composition")
    if not alg.has_identity():
        raise ArithmeticError(f"{kind} ring does not contain the identity")
    return alg


def centroid(b: Bimap) -> ScalarAlgebra:
    """Cent(o): the centre of the double-condition triple ring; commutative."""
    pre = ScalarAlgebra("Cent", b, linalg.nullspace(_condition_matrices(b, "Cent"), b.p))
    zen = pre.center()
    # the ring is the centre itself, its blocks read as Cent's tuples
    alg = copy.copy(pre)
    alg.flat, alg.pivots = zen.flat, zen.pivots
    if (_commutators(alg.stack) % b.p).any():
        raise ArithmeticError("centroid is not commutative")
    if not alg.has_identity():
        raise ArithmeticError("centroid does not contain the identity")
    return alg


def all_rings(b: Bimap) -> Dict[str, ScalarAlgebra]:
    """The five rings of ``b``."""
    rings = BimapRings(b)
    return {kind: rings.ring(kind) for kind in KINDS}


def radical(alg: ScalarAlgebra) -> List[Tuple[np.ndarray, ...]]:
    """Jacobson radical basis of an associative kind, as matrix tuples."""
    if alg.kind == "Der":
        raise ValueError("radical is defined for the associative kinds only")
    return [alg.from_rep(r) for r in alg.radical().basis]


# -- idempotents ---------------------------------------------------------------


def _split_primitive(assoc: AssocAlgebra, unit: np.ndarray) -> List[np.ndarray]:
    """Primitive orthogonal idempotents of a commutative semisimple algebra.

    ``unit`` is the identity of A.  Proof (Berlekamp 1967; Ronyai 1990): A is
    a product of fields GF(p^d_1) x ... x GF(p^d_r) whose block units are
    its primitive idempotents.  B = {x : x^p = x} is GF(p) in each block, so
    B = GF(p)^r, spanned by the block units.  For e a sum of block units and
    c in B, c e - l e is the scalar c - l on each block of e, so by Fermat
    e - (c e - l e)^(p-1) is the sum of the blocks where c = l; over
    l = 0, ..., p-1 these split e.  After every basis element c of B, blocks
    sharing an idempotent agree on all of B, which holds each block unit:
    each idempotent is one block unit, and there are dim B of them.
    """
    p = assoc.p
    fixed = assoc.frobenius_fixed()
    lams = np.arange(p).reshape(p, 1, 1)
    idems = [unit % p]
    for c in fixed.basis:
        new: List[np.ndarray] = []
        for e in idems:
            terms = (e - _mat_power(c @ e - lams * e, p - 1, p)) % p
            new += [t for t in terms if t.any()]
        idems = new
    if len(idems) != fixed.dim:
        raise ArithmeticError("idempotent count differs from the Frobenius-fixed dimension")
    return idems


def split_idempotents(alg: ScalarAlgebra) -> List[Tuple[np.ndarray, ...]]:
    """Complete orthogonal idempotents, lifted through the radical.

    Requires the quotient by the radical to be commutative (always true for
    Cent); each output squares to itself, distinct outputs multiply to zero,
    and the sum is the identity tuple.
    """
    rad, quot, lift = alg.radical_quotient()
    _check_commutative_quotient(alg, rad)
    return _lift_central_idempotents(alg, quot, lift)


def _check_commutative_quotient(assoc: AssocAlgebra, rad: AssocAlgebra) -> None:
    """Raise unless A/J is commutative, i.e. every commutator lies in J."""
    if not rad.contains_all(_commutators(assoc.stack)):
        raise ValueError("quotient by the radical is not commutative")


def _lift_central_idempotents(
    alg: ScalarAlgebra, quot: AssocAlgebra, lift
) -> List[Tuple[np.ndarray, ...]]:
    """Primitive idempotents of Z(A/J), lifted into A = ``alg`` through the
    radical J.

    ``quot`` and ``lift`` are A/J and its lift as ``alg.radical_quotient()``
    returns them; the lifts come back as tuples of ``alg``.  Each lift is the
    p^K-th power, p^K > dim A, of a representative cut down to the corner the
    earlier lifts leave free; the lifts are checked to be idempotent,
    pairwise orthogonal and to sum to the identity.
    """
    p, n = alg.p, alg.n
    if quot.dim == 0:
        return []
    # A is unital, so the regular image of 1_A, I_q, is the identity of A/J
    if not quot.has_identity():
        raise ValueError("algebra has no identity element")
    prim_q = _split_primitive(quot.center(), linalg.identity(quot.n))
    K = 1
    while p ** K <= max(alg.dim, 1):
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
    provenances: List[str]  # every provenance that emitted it, in rank order
    pivots: Optional[np.ndarray] = None  # of ``basis``; derived and checked if not given

    def __post_init__(self):
        if self.pivots is None:
            self.pivots = linalg.pivots(self.basis)

    @property
    def provenance(self) -> str:
        return self.provenances[0]

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
RANKS = range(max(PROVENANCE_RANK.values()) + 1)
ASSOC_KINDS = ("Mid", "Left", "Right", "Cent")  # the kinds of ranks 1 to 4


def _der_invariant(emission: Emission, der_sides: List[np.ndarray], p: int) -> bool:
    """True iff S x lies in S for every Der element x, with ``der_sides``
    the Der side stacks (``side_stacks``)."""
    s = emission.basis
    images = s @ der_sides["UVW".index(emission.side)]
    return linalg.row_coords(images.reshape(-1, s.shape[1]), s, p, emission.pivots) is not None


class BimapRings:
    """The rings of one bimap: Der at once, the others on first use, each
    built at most once.  So is each associative ring's verified radical,
    with the quotient kept for the idempotent lift, and Der's envelope on
    each side, which serves both the prune test and Der's emissions.
    """

    def __init__(self, b: Bimap):
        self.b = b
        self.rings: Dict[str, ScalarAlgebra] = {"Der": derivation_algebra(b)}
        self.radicals: Dict[str, tuple] = {}
        self._envelopes: Dict[int, AssocAlgebra] = {}

    def ring(self, kind: str) -> ScalarAlgebra:
        if kind not in self.rings:
            self.rings[kind] = centroid(self.b) if kind == "Cent" else scalar_ring(self.b, kind)
        return self.rings[kind]

    def radical(self, kind: str) -> tuple:
        """(A, J, A/J, lift) of the associative ring A of ``kind``."""
        if kind not in self.radicals:
            alg = self.ring(kind)
            self.radicals[kind] = (alg,) + alg.radical_quotient()
        return self.radicals[kind]

    def envelope(self, pos: int) -> AssocAlgebra:
        """The unital algebra generated by Der's action on side ``pos``."""
        if pos not in self._envelopes:
            der = self.rings["Der"]
            self._envelopes[pos] = envelope(self.b.p, der.sizes[pos], list(der.side_stacks()[pos]))
        return self._envelopes[pos]

    def der_envelopes_full(self) -> bool:
        """True iff on every side of dimension d the unital algebra generated
        by Der's action is all of M_d(GF(p)); a side of dimension 1 always is.

        Then no Der-invariant subspace of a side is proper (Burnside; Jacobson
        density): for s != 0, s M_d is the whole side.
        """
        return all(d <= 1 or self.envelope(pos).dim == d * d for pos, d in enumerate(self.b.dims))

    def emissions(self, rank: int) -> List[Emission]:
        """The emissions of provenance rank ``rank``, unmerged, in merge order.

        Rank 0 is the radical of Der's envelope on each side; ranks 1 to 4
        are the radical elements of Mid, Left, Right and Cent acting on
        their sides, then for Mid and Cent the images of the idempotents
        that A/J lifts (Cent's A/J must be commutative); rank 5 is the bimap
        radicals.
        """
        b, p = self.b, self.b.p
        dims = dict(zip("UVW", b.dims))
        out: List[Emission] = []

        def emit(side: str, rows: np.ndarray, prov: str):  # the row space of ``rows``
            d = dims[side]
            rows = np.reshape(rows, (-1, d)) if np.size(rows) else np.zeros((0, d), dtype=np.int64)
            basis, piv = linalg.echelon(rows, p)
            out.append(Emission(side, basis, [prov], piv))

        def emit_action(side: str, mats: List[np.ndarray], prov: str):
            # images and kernels of radical elements acting on one side
            emit(side, np.concatenate(mats), prov)
            emit(side, linalg.nullspace(np.concatenate([m.T for m in mats]), p), prov)
            for m in mats:
                emit(side, m, prov)
                emit(side, linalg.nullspace(m.T, p), prov)

        if rank == 0:
            for pos, side in enumerate("UVW"):
                if dims[side]:
                    rad = self.envelope(pos).radical()
                    if rad.dim:
                        emit_action(side, list(rad.basis), "der")
        elif rank > len(ASSOC_KINDS):
            for axis, side in enumerate("UV"):
                emit(side, b.radical(axis), "bimap-radical")
        else:
            kind = ASSOC_KINDS[rank - 1]
            alg, rad, quot, lift = self.radical(kind)
            if rad.dim:
                for side, mats in zip(KIND_SIDES[kind], alg.from_rep(rad.stack)):
                    emit_action(side, list(mats), kind.lower())
            if kind == "Cent":
                _check_commutative_quotient(alg, rad)
            if kind in ("Mid", "Cent"):
                for e in _lift_central_idempotents(alg, quot, lift):
                    for pos, side in enumerate(KIND_SIDES[kind]):
                        emit(side, e[pos], kind.lower() + "-idem")
        return out

    def subspaces(self, ranks: Sequence[int]) -> List[Emission]:
        """The emissions of ``ranks``, in that order, merged and Der-invariant.

        Duplicates (same side, same echelon form) are merged into the first,
        which records every provenance that emitted it; Der-invariance is
        then verified once per distinct subspace.
        """
        merged: Dict[Tuple, Emission] = {}
        for rank in ranks:
            for e in self.emissions(rank):
                first = merged.setdefault(e.key(), e)
                if e.provenance not in first.provenances:
                    first.provenances.append(e.provenance)
        der_sides = self.rings["Der"].side_stacks()
        return [e for e in merged.values() if _der_invariant(e, der_sides, self.b.p)]


def characteristic_subspaces(b: Bimap, rings: Optional[BimapRings] = None) -> List[Emission]:
    """Subspaces of U, V, W cut out by the rings' radicals and idempotents.

    Every ring emits, and so do the bimap radicals.  Every returned subspace
    is verified invariant under the matching component of Der(o); candidates
    failing that proxy for being characteristic are dropped.  Duplicates
    (same side, same echelon form) are merged into the first in ring priority
    order, which records every provenance that emitted it.  ``rings`` is the
    cache of ``b``'s rings, made here when not given.
    """
    return (BimapRings(b) if rings is None else rings).subspaces(RANKS)
