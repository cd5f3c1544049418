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
it equals the Jacobson radical.  When I_0 (A_1 in the code) is nilpotent it
is the radical (Dickson; proof in ``AssocAlgebra._radical``), so it is
returned after the two-sided-ideal and nilpotency checks, with no later
level and no quotient.  Otherwise the chain runs to its end and the result
is verified a posteriori: two-sided ideal, nilpotent, semisimple quotient.
Each algebra certifies its J once and keeps it; A/J and its lift are built
only where that verification needs them or an idempotent lift reads them
(Mid and Cent), and kept.

A ring's emissions are yielded one by one (``BimapRings.emissions``), so a
consumer that stops at the first one it needs builds no later one, and an
A/J only when it reaches the idempotent images.  A ring of dimension 1 is
GF(p) 1: it emits with no radical, quotient or lift.

Inside a ring scope (``ring_scope``, which a census opens for each run)
``rings_for`` gives every bimap with the same p and tensor one shared
``BimapRings``, so the groups of the run build each distinct bimap's rings,
and certify each of their radicals, once.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
    """Subalgebra of M_n(GF(p)) spanned by a basis of matrices.

    It owns its radical: ``radical`` certifies J once and keeps it, and
    ``radical_quotient`` keeps A/J and its lift once built.  Each memo is
    written once, with values of this algebra alone, and a certification
    that raises keeps nothing.
    """

    LAYOUT = ("p", "n")  # what a sub-algebra shares with its parent
    _rad: Optional["AssocAlgebra"] = None  # J, once certified
    _quot: Optional[tuple] = None  # (A/J, lift), once built

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
        P[Q_i] and 0 at P[Q_i]; so its leading 1 is at P[Q_i].

        This is the one constructor of sub-algebras: the span is of this
        class and ``LAYOUT``, and has no radical certified."""
        leading = (ker != 0).argmax(axis=1) if len(ker) else linalg.zeros(0, np.intp)
        sub = object.__new__(type(self))
        sub.__dict__.update({name: getattr(self, name) for name in self.LAYOUT})
        sub.flat, sub.pivots = ker @ self.flat % self.p, self.pivots[leading]
        return sub

    def _trace_level(self, pk: int) -> "AssocAlgebra":
        """A_{i+1} of the chain below, for this algebra A_i and pk = p^i."""
        p = self.p
        mod = pk * p
        # Tr((xy)^pk) = Tr((yx)^pk), so the pair stack's order is free
        powers = _mat_power(_pair_products(self.stack, self.stack) % mod, pk, mod)
        vals = np.trace(powers, axis1=2, axis2=3) % mod
        if (vals % pk).any():
            raise ArithmeticError("radical chain divisibility failed")
        return self._kernel_rows(linalg.nullspace(vals // pk % p, p))

    def _radical_chain(self, pk: int = 1) -> "AssocAlgebra":
        # descending chain A = A_0 >= A_1 >= ... with
        #   A_{i+1} = {x in A_i : Tr((x~ y~)^{p^i}) = 0 mod p^{i+1}, all y in A_i}
        # on integral lifts x~ (entries 0..p-1); the value at level i is
        # divisible by p^i on A_i, so dividing gives an F_p-linear system.
        # After the level with p^i >= n the chain equals the Jacobson radical.
        # This algebra is A_i for pk = p^i.
        cur = self
        while cur.dim:
            cur = cur._trace_level(pk)
            if pk >= self.n:
                break
            pk *= self.p
        return cur

    def _radical(self):
        """(J, quotient): the Jacobson radical J, checked, with ``quotient``
        the (A/J, lift) that its verification built, or None.

        The first level of the chain is A_1, the kernel of the trace form
        Tr(xy) mod p.  When A_1 is nilpotent it is J (Dickson), with no
        further level and no quotient built:
          - J <= A_1: for x in J and y in A, xy lies in the ideal J, so it is
            nilpotent and Tr(xy) = 0.
          - A_1 is a two-sided ideal: for x in A_1 and a, y in A,
            Tr((ax)y) = Tr(x(ya)) = 0 and Tr((xa)y) = Tr(x(ay)) = 0.
          - A nilpotent two-sided ideal lies in J, so A_1 <= J.
        So A/J is semisimple by the definition of J; the ideal check still
        runs, and nilpotency is the test that chose this branch.  Otherwise
        (for instance GF(p) 1 in M_n with p | n, where Tr(1) = 0) the later
        levels run and ``_verify_radical`` checks the result in full.  For
        n = 1, A_1 is the chain's last level and always nilpotent: a
        non-nilpotent A_1 in GF(p) = M_1 would hold 1, and Tr(1 1) = 1.
        """
        first = self._trace_level(1) if self.dim else self
        if first.is_nilpotent():
            self._check_two_sided(first)
            return first, None
        rad = first._radical_chain(self.p)
        return rad, self._verify_radical(rad)

    def radical(self) -> "AssocAlgebra":
        """Jacobson radical via the characteristic-p integral trace chain,
        certified once as ``_radical`` says and kept, with the quotient its
        verification built, if any."""
        if self._rad is None:
            self._rad, self._quot = self._radical()
        return self._rad

    def radical_quotient(self):
        """(J, A/J, lift): the radical of ``radical`` with the quotient and
        lift as ``quotient`` returns them, built once (taken from the
        verification when it built them) and kept."""
        rad = self.radical()
        if self._quot is None:
            self._quot = self.quotient(rad)
        return (rad,) + self._quot

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

    def _check_two_sided(self, rad: "AssocAlgebra") -> None:
        """Raise unless ``rad`` is a two-sided ideal of this algebra."""
        A, R = self.stack, rad.stack
        # every a r and r a, a in A and r in J, as one stack
        both_sides = np.stack([_pair_products(A, R), _pair_products(R, A).swapaxes(0, 1)])
        if not rad.contains_all(both_sides):
            raise ArithmeticError("radical is not a two-sided ideal")

    def _verify_radical(self, rad: "AssocAlgebra"):
        """Raise unless ``rad`` is a nilpotent two-sided ideal with semisimple
        quotient; returns ``self.quotient(rad)``."""
        self._check_two_sided(rad)
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

    LAYOUT = AssocAlgebra.LAYOUT + ("kind", "bimap", "sizes")

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
    """Cent(o): the centre of the double-condition triple ring, its blocks
    read as Cent's tuples; commutative."""
    alg = ScalarAlgebra("Cent", b, linalg.nullspace(_condition_matrices(b, "Cent"), b.p)).center()
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
LIFTED_KINDS = ("Mid", "Cent")  # the kinds whose central idempotents are emitted


def _der_invariant(emission: Emission, der_sides: List[np.ndarray], p: int) -> bool:
    """True iff S x lies in S for every Der element x, with ``der_sides``
    the Der side stacks (``side_stacks``)."""
    s = emission.basis
    images = s @ der_sides["UVW".index(emission.side)]
    return linalg.row_coords(images.reshape(-1, s.shape[1]), s, p, emission.pivots) is not None


class BimapRings:
    """The rings of one bimap: Der at once, the others on first use, each
    built at most once, and so is Der's envelope on each side, which serves
    both the prune test and Der's emissions.  Each ring and envelope keeps
    its own radical J and, once asked for, A/J and its lift
    (``AssocAlgebra.radical``); this class keeps no radical.
    """

    def __init__(self, b: Bimap):
        self.b = b
        self.rings: Dict[str, ScalarAlgebra] = {"Der": derivation_algebra(b)}
        self._envelopes: Dict[int, AssocAlgebra] = {}

    def ring(self, kind: str) -> ScalarAlgebra:
        if kind not in self.rings:
            self.rings[kind] = centroid(self.b) if kind == "Cent" else scalar_ring(self.b, kind)
        return self.rings[kind]

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

    def der_invariant(self, emission: Emission) -> bool:
        """True iff Der maps the subspace of ``emission`` into itself."""
        return _der_invariant(emission, self.rings["Der"].side_stacks(), self.b.p)

    def emissions(self, rank: int) -> Iterator[Emission]:
        """The emissions of provenance rank ``rank``, unmerged, in merge
        order, yielded one by one.

        Rank 0 is the radical of Der's envelope on each side; ranks 1 to 4
        are the radical elements of Mid, Left, Right and Cent acting on
        their sides, then for Mid and Cent the images of the idempotents
        that A/J lifts (Cent's A/J must be commutative); rank 5 is the bimap
        radicals.  The call builds the ring of an associative rank and its
        J, and checks Cent's A/J; each emission is built when it is reached,
        and A/J and the lift when the first idempotent image is.  So a
        consumer that stops early builds no later emission.

        A ring A of dimension 1 emits with no radical, quotient or lift.  A
        holds the identity of M_n (checked at build, so n >= 1): A =
        GF(p) 1.  The identity is not nilpotent, so J = 0 and A/J = A, which
        has the one primitive idempotent 1, lifted to 1.  So Left and Right
        emit nothing, and Mid and Cent emit the image of 1 on each side, the
        whole side, as their idempotent image; Cent's check reads J = 0.
        """
        if rank == 0:
            return self._der_emissions()
        if rank > len(ASSOC_KINDS):
            return (self._emission(s, self.b.radical(axis), "bimap-radical") for axis, s in enumerate("UV"))
        kind = ASSOC_KINDS[rank - 1]
        alg = self.ring(kind)
        unit = alg.dim == 1  # A = GF(p) 1, J = 0
        rad = AssocAlgebra(alg.p, alg.n, []) if unit else alg.radical()
        if kind == "Cent":
            _check_commutative_quotient(alg, rad)
        if not unit:
            return self._assoc_emissions(kind, rad)
        dims = dict(zip("UVW", self.b.dims))
        sides = KIND_SIDES[kind] if kind in LIFTED_KINDS else ()
        prov = kind.lower() + "-idem"
        return iter([Emission(s, linalg.identity(dims[s]), [prov], np.arange(dims[s])) for s in sides])

    def _emission(self, side: str, rows: np.ndarray, prov: str) -> Emission:
        """The row space of ``rows`` on ``side``, echelonised."""
        d = self.b.dims["UVW".index(side)]
        rows = np.reshape(rows, (-1, d)) if np.size(rows) else np.zeros((0, d), dtype=np.int64)
        basis, piv = linalg.echelon(rows, self.b.p)
        return Emission(side, basis, [prov], piv)

    def _action_emissions(self, side: str, mats: List[np.ndarray], prov: str) -> Iterator[Emission]:
        """Images and kernels of radical elements acting on one side."""
        p = self.b.p
        yield self._emission(side, np.concatenate(mats), prov)
        yield self._emission(side, linalg.nullspace(np.concatenate([m.T for m in mats]), p), prov)
        for m in mats:
            yield self._emission(side, m, prov)
            yield self._emission(side, linalg.nullspace(m.T, p), prov)

    def _der_emissions(self) -> Iterator[Emission]:
        for pos, side in enumerate("UVW"):
            if self.b.dims[pos]:
                rad = self.envelope(pos).radical()
                if rad.dim:
                    yield from self._action_emissions(side, list(rad.basis), "der")

    def _assoc_emissions(self, kind: str, rad: AssocAlgebra) -> Iterator[Emission]:
        alg = self.ring(kind)
        if rad.dim:
            for side, mats in zip(KIND_SIDES[kind], alg.from_rep(rad.stack)):
                yield from self._action_emissions(side, list(mats), kind.lower())
        if kind in LIFTED_KINDS:
            _, quot, lift = alg.radical_quotient()
            for e in _lift_central_idempotents(alg, quot, lift):
                for pos, side in enumerate(KIND_SIDES[kind]):
                    yield self._emission(side, e[pos], kind.lower() + "-idem")

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


# -- rings shared within a scope ---------------------------------------------

SHARED_RINGS_BOUND = 256  # entries a ring scope keeps; the oldest goes first

_shared: Optional[Dict[tuple, BimapRings]] = None  # the open scope, if any


def open_ring_scope() -> None:
    """Start a fresh ring scope in this process, replacing any open one; a
    census worker's pool initializer."""
    global _shared
    _shared = {}


@contextlib.contextmanager
def ring_scope():
    """A fresh ring scope for the body, dropped on exit (the outer one, if
    any, is restored)."""
    global _shared
    outer = _shared
    open_ring_scope()
    try:
        yield
    finally:
        _shared = outer


def rings_for(b: Bimap) -> BimapRings:
    """The ``BimapRings`` of ``b``: outside a ring scope a new one, inside it
    the scope's instance for (p, tensor shape, tensor bytes), built on first
    use.

    Sharing is exact.  ``Bimap`` reduces its tensor mod p to int64, so equal
    keys mean equal bimaps; every ``BimapRings`` method reads only ``self.b``
    and its lazy memos (its rings and envelopes, and their radicals and
    quotients), each written once, with values of the bimap or of the
    algebra alone, and never changed in place; and each emission is built
    anew for its caller, so a caller that merges provenances changes only
    its own.  A build or certification that raises is not stored, so a
    later bimap with that key raises again.  The scope keeps at most
    ``SHARED_RINGS_BOUND`` entries, dropping the oldest.
    """
    if _shared is None:
        return BimapRings(b)
    key = (b.p, b.tensor.shape, b.tensor.tobytes())
    rings = _shared.get(key)
    if rings is None:
        rings = BimapRings(b)
        if len(_shared) >= SHARED_RINGS_BOUND:
            del _shared[next(iter(_shared))]
        _shared[key] = rings
    return rings


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
