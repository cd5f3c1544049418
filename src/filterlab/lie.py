"""Graded Lie rings from filters and graded modules from sifted layerings.

The graded pieces are elementary abelian sections with GF(p) coordinates
(``CosetBasis``), and structure constants are dense GF(p) tensors.  The
integral law checks (``check_module_law_integral`` and its neighbours) work
directly on group words with coset membership and need no assumption on the
factors.

Tensor index order is (s-basis, t-basis, target-basis) throughout; the
Knuth-Liebler shuffle is the pure slice transpose and the module action adds
the minus sign on top of it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import monoid as mon
from .monoid import MonoidElem
from .pcgroup import Elem, Subgroup, comm_subgroup, depth, sift
from .series import Filter, Layering, verify_sift


class NonElementaryAbelianError(ValueError):
    """A section H/N with some h^p outside N.  ``CosetBasis`` raises it with
    no grade; the graded builders re-raise it naming theirs."""

    def __init__(self, grade=None, what="factor"):
        where = "section H/N" if grade is None else f"{what} at grade {grade}"
        super().__init__(f"{where} is not elementary abelian")
        self.grade = grade


def exponent_p(H: Subgroup, N: Subgroup) -> bool:
    """h^p in N for every igs member h of H."""
    G = H.group
    return all(N.contains(G.power(h, G.p)) for h in H.igs)


class CosetBasis:
    """GF(p) coordinates on an elementary abelian section H/N.

    Representatives are the first igs elements of H independent modulo N,
    extended greedily, so the basis is deterministic for a fixed presentation.

    One sift pass builds them.  The echelon starts as N's depth map, tagged
    0, and each igs member h of H is sifted through it; a residue r != 1
    makes h the i-th representative, and r goes in at depth(r), tagged
    e_i - sum k * tag over the sift steps (d, k).  H/N is elementary
    abelian, so K_i = N<h_1, ..., h_i> is a subgroup of order |N| p^i.
    The echelon then holds log_p |K_i| elements of K_i at distinct depths,
    one at each depth of K_i, so the sift decides membership in K_i.  Hence
    h becomes a representative exactly when h is not in N<earlier
    representatives>, the greedy rule above, and each tag is the
    coordinates of its element, as h = prod h_d^k * r.
    """

    def __init__(self, H: Subgroup, N: Subgroup):
        G = H.group
        if N.group is not G:
            raise ValueError("section subgroups have different parents")
        self.group = G
        self.p = G.p
        self.H = H
        self.N = N
        if not exponent_p(H, N):
            raise NonElementaryAbelianError()
        if not N.is_subset(H):
            raise ValueError("N is not contained in H")
        # N is normal in H, and the igs of H commute mod N
        normal = all(N.contains(G.conjugate(x, h)) for x in N.igs for h in H.igs)
        pairs = itertools.combinations(H.igs, 2)
        if not (normal and all(N.contains(G.commutator(*xy)) for xy in pairs)):
            raise ValueError("section H/N is not elementary abelian")
        self.dim = len(H.igs) - len(N.igs)
        # echelon elements keyed by depth, each tagged with its coordinates
        self._by_depth: Dict[int, Elem] = dict(N._by_depth)
        zero = np.zeros(self.dim, dtype=np.int64)  # read only: _combine adds, never in place
        self._vecs: Dict[int, np.ndarray] = dict.fromkeys(N._by_depth, zero)
        self.reps: List[Elem] = []
        unit = np.eye(self.dim, dtype=np.int64)
        for h in H.igs:
            steps: List[Tuple[int, int]] = []
            r = sift(G, self._by_depth, h, steps)
            if r != G.identity:
                self._by_depth[depth(r)] = r
                self.reps.append(h)
                self._vecs[depth(r)] = (unit[len(self.reps) - 1] - self._combine(steps)) % self.p

    def _combine(self, steps: List[Tuple[int, int]]) -> np.ndarray:
        # x = prod h_d^k * (residue) over the sift steps of x
        v = np.zeros(self.dim, dtype=np.int64)
        for d, k in steps:
            v = v + k * self._vecs[d]
        return v

    def coords(self, y: Elem) -> np.ndarray:
        """Coordinates of the class of y (y must lie in H)."""
        steps: List[Tuple[int, int]] = []
        r = sift(self.group, self._by_depth, y, steps)
        if r != self.group.identity:
            raise ValueError(f"element {r} not in section subgroup")
        return self._combine(steps) % self.p

    def lift(self, v) -> Elem:
        """A representative of the class with the given coordinates, read mod p."""
        G = self.group
        x = G.identity
        for rep, c in zip(self.reps, v):
            x = G.multiply(x, G.power(rep, int(c) % G.p))
        return x


@dataclass
class GradedLieRing:
    filter: Filter
    p: int
    comps: Dict[MonoidElem, CosetBasis]  # the nonzero components only
    brackets: Dict[Tuple[MonoidElem, MonoidElem], np.ndarray] = field(default_factory=dict)

    def dim(self, s: MonoidElem) -> int:
        c = self.comps.get(s)
        return c.dim if c is not None else 0

    def grades(self) -> List[MonoidElem]:
        return [s for s in self.filter.grades() if s != self.filter.monoid.zero]

    def bracket_tensor(self, s: MonoidElem, t: MonoidElem) -> np.ndarray:
        got = self.brackets.get((s, t))
        if got is not None:
            return got
        u = mon.add(s, t)
        return np.zeros((self.dim(s), self.dim(t), self.dim(u)), dtype=np.int64)


def graded_lie_ring(f: Filter) -> GradedLieRing:
    """Structure constants of L_*(phi) by commutating coset representatives.

    A component is built only at the nonzero grades s where phi_s steps
    down to its boundary; for a lex filter that is phi_s != phi_{s+e_d}.
    """
    G = f.group
    comps: Dict[MonoidElem, CosetBasis] = {}
    for s in f.grades():
        if s == f.monoid.zero:
            continue
        H, N = f.value(s), f.boundary_at(s)
        if H != N:
            try:
                comps[s] = CosetBasis(H, N)
            except NonElementaryAbelianError:
                raise NonElementaryAbelianError(s) from None
    L = GradedLieRing(f, G.p, comps)
    for s, cs in comps.items():
        for t, ct in comps.items():
            cu = comps.get(mon.add(s, t))
            if cu is None:
                continue
            T = np.zeros((cs.dim, ct.dim, cu.dim), dtype=np.int64)
            for a, x in enumerate(cs.reps):
                for b, y in enumerate(ct.reps):
                    T[a, b] = cu.coords(G.commutator(x, y))
            if T.any():
                L.brackets[(s, t)] = T
    return L


def check_alternating(L: GradedLieRing) -> List[str]:
    """x o x = 0 on each grade and antisymmetry across grade pairs."""
    out = []
    p = L.p
    for s in L.comps:
        B = L.bracket_tensor(s, s)
        for a in range(L.dim(s)):
            if B[a, a].any():
                out.append(f"x o x != 0 at grade {s}, basis {a}")
    for s in L.comps:
        for t in L.comps:
            B1 = L.bracket_tensor(s, t)
            B2 = L.bracket_tensor(t, s)
            if B1.size and ((B1 + np.transpose(B2, (1, 0, 2))) % p).any():
                out.append(f"antisymmetry fails at grades ({s}, {t})")
    return out


def check_jacobi(L: GradedLieRing) -> List[str]:
    """[[x,y],z] + [[y,z],x] + [[z,x],y] = 0 over all basis triples."""
    out = []
    p = L.p
    grades = list(L.comps)
    for s in grades:
        for t in grades:
            for u in grades:
                total = mon.add(mon.add(s, t), u)
                dT = L.dim(total)
                if dT == 0:
                    continue
                # ((s,t),u) + ((t,u),s) + ((u,s),t)
                term1 = np.einsum(
                    "abk,kcd->abcd", L.bracket_tensor(s, t), L.bracket_tensor(mon.add(s, t), u)
                )
                term2 = np.einsum(
                    "bck,kad->bcad", L.bracket_tensor(t, u), L.bracket_tensor(mon.add(t, u), s)
                )
                term3 = np.einsum(
                    "cak,kbd->cabd", L.bracket_tensor(u, s), L.bracket_tensor(mon.add(u, s), t)
                )
                total_sum = (
                    term1
                    + np.transpose(term2, (2, 0, 1, 3))
                    + np.transpose(term3, (1, 2, 0, 3))
                ) % p
                if total_sum.any():
                    idx = np.argwhere(total_sum)[0]
                    out.append(f"jacobi fails at grades ({s},{t},{u}), basis {tuple(idx[:3])}")
    return out


# -- graded modules ----------------------------------------------------------


def shuffle(tensor: np.ndarray) -> np.ndarray:
    """Knuth-Liebler shuffle of U x V -> W into U x hom(W,Q) -> hom(V,Q).

    Pure slice transpose: out[u, w, v] = tensor[u, v, w].  Signs belong to the
    module action, not to the shuffle.
    """
    return np.transpose(np.asarray(tensor), (0, 2, 1))


@dataclass
class GradedModule:
    ring: GradedLieRing
    layering: Layering
    strata: Dict[MonoidElem, CosetBasis]
    mixed: Dict[Tuple[MonoidElem, MonoidElem], np.ndarray] = field(default_factory=dict)
    actions: Dict[Tuple[MonoidElem, MonoidElem], np.ndarray] = field(default_factory=dict)

    def stratum_dim(self, s: MonoidElem) -> int:
        c = self.strata.get(s)
        return c.dim if c is not None else 0

    def action_tensor(self, s: MonoidElem, t: MonoidElem) -> np.ndarray:
        got = self.actions.get((s, t))
        if got is not None:
            return got
        return np.zeros(
            (self.ring.dim(s), self.stratum_dim(t), self.stratum_dim(mon.add(s, t))),
            dtype=np.int64,
        )


def graded_module(f: Filter, l: Layering, ring: Optional[GradedLieRing] = None) -> GradedModule:
    """Dual strata of a sifted layering as a graded module over L_*(phi).

    Strata are taken at every box grade including 0 (for the upper central
    series the grade-i stratum is zeta^{i+1}/zeta^i, so grade 0 carries the
    centre); the ring side keeps L_0 = 0.
    """
    sift_bad = verify_sift(f, l)
    if sift_bad:
        raise ValueError(f"filter does not sift layering: {sift_bad[0]}")
    G = f.group
    p = G.p
    if ring is None:
        ring = graded_lie_ring(f)
    strata: Dict[MonoidElem, CosetBasis] = {}
    for s in l.grades():
        H, N = l.boundary_at(s), l.value(s)
        try:
            strata[s] = CosetBasis(H, N)
        except NonElementaryAbelianError:
            raise NonElementaryAbelianError(s, what="stratum") from None
    M = GradedModule(ring, l, strata)
    for s, cs in ring.comps.items():
        for t, dual_t in strata.items():
            if dual_t.dim == 0:
                continue
            st = mon.add(s, t)
            src = strata.get(st)
            if src is None or src.dim == 0:
                continue
            # mixed product o : L_s(phi) x stratum(s+t) -> stratum(t)
            T = np.zeros((cs.dim, src.dim, dual_t.dim), dtype=np.int64)
            for a, x in enumerate(cs.reps):
                for b, y in enumerate(src.reps):
                    T[a, b] = dual_t.coords(G.commutator(x, y))
            M.mixed[(s, t)] = T
            M.actions[(s, t)] = (-shuffle(T)) % p
    return M


def check_module_law(L: GradedLieRing, M: GradedModule) -> List[str]:
    """(x o y) . f = x . (y . f) - y . (x . f) over all basis combinations."""
    out = []
    p = L.p
    ring_grades = list(L.comps)
    strat_grades = [u for u in M.strata if M.stratum_dim(u)]
    for s in ring_grades:
        for t in ring_grades:
            for u in strat_grades:
                stu = mon.add(mon.add(s, t), u)
                if M.stratum_dim(stu) == 0:
                    continue
                lhs = np.einsum(
                    "abc,cgk->abgk",
                    L.bracket_tensor(s, t),
                    M.action_tensor(mon.add(s, t), u),
                )
                t1 = np.einsum(
                    "bgh,ahk->abgk",
                    M.action_tensor(t, u),
                    M.action_tensor(s, mon.add(t, u)),
                )
                t2 = np.einsum(
                    "agh,bhk->abgk",
                    M.action_tensor(s, u),
                    M.action_tensor(t, mon.add(s, u)),
                )
                if ((lhs - t1 + t2) % p).any():
                    out.append(f"module law fails at grades ({s},{t},{u})")
    return out


# -- integral (coset arithmetic) law checks ----------------------------------


def check_module_law_integral(
    f: Filter, l: Layering, trials: int = 500, seed: int = 7
) -> List[str]:
    """Prop-style law [[x,y],z] = [x,[y,z]] [y,[x,z]]^-1 mod pi^u on random data.

    Works on raw group elements, so no elementary-abelian assumption is made.
    """
    G = f.group
    rng = random.Random(seed)
    grades = [s for s in f.grades() if s != f.monoid.zero]
    strat_grades = l.grades()
    out: List[str] = []
    if not grades or not strat_grades:
        return out
    for trial in range(trials):
        s = rng.choice(grades)
        t = rng.choice(grades)
        u = rng.choice(strat_grades)
        x = f.value(s).random_element(rng)
        y = f.value(t).random_element(rng)
        z = l.boundary_at(mon.add(mon.add(s, t), u)).random_element(rng)
        lhs = G.commutator(G.commutator(x, y), z)
        r1 = G.commutator(x, G.commutator(y, z))
        r2 = G.commutator(y, G.commutator(x, z))
        w = G.multiply(G.multiply(lhs, r2), G.inverse(r1))
        if not l.value(u).contains(w):
            out.append(f"integral module law fails at ({s},{t},{u}) trial {trial}")
    return out


def check_biadditive_integral(
    f: Filter, l: Layering, trials: int = 200, seed: int = 11
) -> List[str]:
    """(xbar + ybar) o zbar = xbar o zbar + ybar o zbar mod pi^t on random lifts."""
    G = f.group
    rng = random.Random(seed)
    grades = [s for s in f.grades() if s != f.monoid.zero]
    strat_grades = l.grades()
    out: List[str] = []
    for trial in range(trials):
        s = rng.choice(grades)
        t = rng.choice(strat_grades)
        x = f.value(s).random_element(rng)
        y = f.value(s).random_element(rng)
        z = l.boundary_at(mon.add(s, t)).random_element(rng)
        lhs = G.commutator(G.multiply(x, y), z)
        rhs = G.multiply(G.commutator(x, z), G.commutator(y, z))
        w = G.multiply(lhs, G.inverse(rhs))
        if not l.value(t).contains(w):
            out.append(f"biadditivity fails at ({s},{t}) trial {trial}")
    return out


def check_operator_grade_action(f: Filter) -> List[str]:
    """The boundary at 0 acts trivially on every component: [phi_s, d_0 phi] <= d_s phi."""
    out = []
    b0 = f.boundary_at(f.monoid.zero)
    for s in f.grades():
        if s == f.monoid.zero:
            continue
        c = comm_subgroup(f.value(s), b0)
        if not c.is_subset(f.boundary_at(s)):
            out.append(f"operator action not trivial at grade {s}")
    return out
