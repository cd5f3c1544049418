"""Central series, filters, layerings, boundaries, axiom checks, products.

A filter or layering is stored on a finite box past the stabilisation point
of the underlying series, and an off-box grade reads the value at its clamp
into the box, which is then the true value, so all axiom checks on the box
are exact.  The lex maps are the filters of ``refine.insert_refinement``, and
they satisfy (P) phi_clamp(w) = phi_ceil(w), ceil(w) the lex-least box grade
at or above w, with phi = 1 past the last grade (proof there).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from . import monoid as mon
from .monoid import GradedMonoid, MonoidElem
from .pcgroup import (
    Elem,
    PcGroup,
    Subgroup,
    SubgroupOps,
    centralizer_mod,
    comm_subgroup,
    embed,
    full_subgroup,
    subgroup_from_gens,
    trivial_subgroup,
)


@dataclass
class Violation:
    clause: str
    s: MonoidElem
    t: Optional[MonoidElem]
    witness: Optional[Elem]

    def __str__(self) -> str:
        w = f", witness {self.witness}" if self.witness is not None else ""
        return f"{self.clause} at s={self.s}, t={self.t}{w}"


class _BoxMap:
    """Shared storage, evaluation and boundaries for filters and layerings."""

    def __init__(
        self,
        group: PcGroup,
        monoid: GradedMonoid,
        box: MonoidElem,
        table: Dict[MonoidElem, Subgroup],
    ):
        if len(box) != monoid.dim:
            raise ValueError("box dimension does not match monoid")
        self.group = group
        self.monoid = monoid
        self.box = box
        self.table = dict(table)
        for m in mon.box_iter(box):
            if m not in self.table:
                raise ValueError(f"missing table entry at {m}")

    def grades(self) -> List[MonoidElem]:
        return mon.box_enumerate(self.box)

    def in_box(self, m: MonoidElem) -> bool:
        if len(m) != self.monoid.dim:
            raise ValueError(f"grade {m} does not match monoid dimension {self.monoid.dim}")
        return mon.in_box(m, self.box)

    def value(self, m: MonoidElem) -> Subgroup:
        if self.in_box(m):
            return self.table[m]
        return self.table[mon.clamp(m, self.box)]

    def _fold_successors(self, s: MonoidElem, op) -> Subgroup:
        """The binary subgroup operation op folded over the values at s + a
        for the atoms a of the monoid; with one atom it is a single lookup.

        This is the fold over every t != 0 in N^d: t lies at or above an
        atom a, and then phi_{s+t} <= phi_{s+a} and pi^{s+t} >= pi^{s+a}.
        Pointwise, a = e_i with t_i > 0: s + e_i <= s + t survives the clamp
        and the table is monotone.  Lex maps are filters with (P), a = e_d
        and s + e_d <= s + t; clamp need not keep lex order, but ceil does,
        and phi o clamp = phi o ceil.  As clamp(s + a) = clamp(clamp(s) + a),
        an off-box s has the boundary of clamp(s).
        """
        values = [self.value(mon.add(s, a)) for a in self.monoid.atoms]
        return functools.reduce(op, values)

    def boundary(self):
        table = {s: self.boundary_at(s) for s in mon.box_iter(self.box)}
        return type(self)(self.group, self.monoid, self.box, table)

    def orders(self) -> List[int]:
        return [self.value(m).order for m in self.grades()]


class Filter(_BoxMap):
    """Order-reversing phi with [phi_s, phi_t] <= phi_{s+t}.

    Off the box the map is evaluated at the grade clamped into the box; with
    the box past stabilisation in every coordinate direction this is the true
    value (trivial for N-graded series, the stabilised factor value for
    pointwise products).
    """

    def boundary_at(self, s: MonoidElem) -> Subgroup:
        """The join of phi_{s+t} over t != 0, that is of phi_{s+a} over the
        atoms a: for a lex filter the one value phi_{s+e_d}."""
        return self._fold_successors(s, Subgroup.join)


class Layering(_BoxMap):
    """Order-preserving pi with [pi^s, boundary^t] <= pi^t.

    Off-box grades clamp into the box, mirroring Filter; for N-graded series
    this evaluates to the full group past stabilisation.
    """

    def boundary_at(self, s: MonoidElem) -> Subgroup:
        """The meet of pi^{s+t} over t != 0, that is of pi^{s+a} over the
        atoms a."""
        return self._fold_successors(s, Subgroup.meet)


# -- constructors -----------------------------------------------------------

N_MONOID = GradedMonoid(1, mon.POINTWISE)


def _descending(G: PcGroup, step, stalled: str) -> Filter:
    """phi_0 = phi_1 = G and phi_{i+1} = step(G, phi_i) down to 1, graded
    over N; ``ValueError(stalled)`` if a step keeps the order."""
    full = full_subgroup(G)
    chain = [full]
    while chain[-1].order > 1:
        nxt = step(full, chain[-1])
        if nxt.order == chain[-1].order:
            raise ValueError(stalled)
        chain.append(nxt)
    table = {(i,): H for i, H in enumerate([full] + chain)}
    return Filter(G, N_MONOID, (len(chain),), table)


def lower_central(G: PcGroup) -> Filter:
    """gamma_1 = G, gamma_{i+1} = [G, gamma_i]; graded over N with phi_0 = G."""
    return _descending(G, comm_subgroup, "lower central series did not reach 1 (not nilpotent?)")


def upper_central(G: PcGroup) -> Layering:
    """zeta^0 = 1, zeta^{i+1}/zeta^i the centre of G/zeta^i; graded over N."""
    full = full_subgroup(G)
    chain = [trivial_subgroup(G)]
    while chain[-1].order < G.order:
        nxt = centralizer_mod(G, full, chain[-1])
        if nxt.order == chain[-1].order:
            raise ValueError("upper central series stalled (not nilpotent?)")
        chain.append(nxt)
    table = {(i,): H for i, H in enumerate(chain)}
    return Layering(G, N_MONOID, (len(chain) - 1,), table)


def exponent_p_step(H: Subgroup, K: Subgroup) -> Subgroup:
    """[H, K] K^p from igs([H, K]) and the p-th powers of igs(K): for H = G
    the term after K of the exponent-p series, and Phi(G) for H = K = G."""
    G = H.group
    gens = list(comm_subgroup(H, K).igs) + [G.power(h, G.p) for h in K.igs]
    return subgroup_from_gens(G, gens)


def exponent_p_lcs(G: PcGroup) -> Filter:
    """eta_1 = G, eta_{i+1} = [G, eta_i] * eta_i^p; elementary abelian factors."""
    return _descending(G, exponent_p_step, "exponent-p series did not reach 1")


# -- verification -----------------------------------------------------------


def _containment_witness(C: Subgroup, target: Subgroup) -> Optional[Elem]:
    for h in C.igs:
        if not target.contains(h):
            return h
    return None


def pair_index(box: MonoidElem, target: Optional[MonoidElem] = None):
    """For the grades g_0, ..., g_{n-1} of ``box_enumerate(box)`` (lex order):
    ``idx[i, j]`` is the index in ``box_enumerate(target)`` of
    clamp(g_i + g_j, target) and ``inbox[i, j]`` marks the sums that lie in
    ``target``, which defaults to ``box``.  As g_0 = 0, row 0 indexes the
    clamped grades themselves.

    Built one coordinate at a time in int32: a grade's index is the sum of
    its coordinates times the lex strides, and clamping works per coordinate.
    """
    target = box if target is None else target
    grades = np.array(mon.box_enumerate(box), dtype=np.int32).reshape(-1, len(box))
    n = grades.shape[0]
    idx = np.zeros((n, n), dtype=np.int32)
    inbox = np.ones((n, n), dtype=bool)
    stride = 1
    for k in reversed(range(len(box))):
        c = grades[:, k]
        total = c[:, None] + c[None, :]
        inbox &= total <= target[k]
        idx += np.minimum(total, target[k]) * np.int32(stride)
        stride *= target[k] + 1
    return idx, inbox


def value_labels(values: List[Subgroup]):
    """Int labels of ``values`` by igs, numbered in order of first
    appearance, and one representative subgroup per label."""
    label: Dict[tuple, int] = {}
    reps: List[Subgroup] = []
    out = np.empty(len(values), dtype=np.int32)
    for i, H in enumerate(values):
        got = label.get(H.igs)
        if got is None:
            got = label[H.igs] = len(reps)
            reps.append(H)
        out[i] = got
    return out, reps


def distinct_codes(codes: np.ndarray, size: int) -> np.ndarray:
    """The distinct values of ``codes``, all in range(size), ascending."""
    mark = np.zeros(size, dtype=bool)
    mark[codes] = True
    return np.flatnonzero(mark)


def _listed(clause: str, grades, codes: np.ndarray, failed: Dict[int, Optional[Elem]]):
    """The one per-pair listing: every grade pair (s, t) whose code failed,
    in grade order, with the witness of its code."""
    hit = np.argwhere(np.isin(codes, list(failed))).tolist() if failed else []
    return [Violation(clause, grades[i], grades[j], failed[codes[i, j]]) for i, j in hit]


def _commutator_clause(ops, clause, grades, reps, a, b, c, igs_first=False) -> List[Violation]:
    """[A, B] <= C for the labels (a, b, c) of each grade pair (s, t), arrays
    that broadcast to one (n, n) shape, decided once per distinct triple.

    A failing triple's witness is the first commutator of igs members
    outside C when ``igs_first`` is set, else ``_containment_witness``.
    """
    G, k, n = ops.group, len(reps), len(grades)
    codes = np.broadcast_to((a.astype(np.int64) * k + b) * k + c, (n, n))
    failed: Dict[int, Optional[Elem]] = {}
    for code in distinct_codes(codes.ravel(), k**3).tolist():
        rest, z = divmod(code, k)
        A, B, T = reps[rest // k], reps[rest % k], reps[z]
        C = ops.comm(A, B)
        if not ops.is_subset(C, T):
            pairs = itertools.product(A.igs, B.igs) if igs_first else ()
            comms = (G.commutator(x, y) for x, y in pairs)
            failed[code] = next((w for w in comms if not T.contains(w)), _containment_witness(C, T))
    return _listed(clause, grades, codes, failed)


def _order_clause(ops, clause, grades, monoid, reps, lo, hi) -> List[Violation]:
    """A <= B for the labels (lo, hi) of each grade pair (s, t) with s <= t,
    arrays that broadcast to one (n, n) shape, decided once per distinct
    pair; the violations carry no witness."""
    k = len(reps)
    le = monoid.preceq_matrix(grades)
    codes = np.where(le, lo.astype(np.int64) * k + hi, -1)
    pairs = distinct_codes(codes[le], k * k).tolist()
    bad = [c for c in pairs if not ops.is_subset(reps[c // k], reps[c % k])]
    return _listed(clause, grades, codes, dict.fromkeys(bad))


def verify_filter(f: Filter) -> List[Violation]:
    """Every violation of [phi_s, phi_t] <= phi_{s+t}, then of phi_t <= phi_s
    for s <= t, over the box grades in grade order.

    A clause depends on the grades only through their values, so it is
    decided once per distinct label triple (phi_s, phi_t, phi_{s+t}) and
    once per distinct pair (phi_s, phi_t) with s <= t.
    """
    ops = SubgroupOps(f.group)
    grades = f.grades()
    idx, _ = pair_index(f.box)
    labels, reps = value_labels([f.table[m] for m in grades])
    s, t = labels[:, None], labels[None, :]
    return _commutator_clause(
        ops, "[phi_s,phi_t] <= phi_{s+t}", grades, reps, s, t, labels[idx], igs_first=True
    ) + _order_clause(ops, "s<t but phi_s < phi_t", grades, f.monoid, reps, t, s)


def verify_layering(l: Layering) -> List[Violation]:
    """Every violation of [pi^s, d^t pi] <= pi^t, then of pi^s <= pi^t for
    s <= t, over the box grades in grade order.

    The values and the boundaries, each taken once, share one label space;
    the clauses are decided once per distinct triple (pi^s, d^t pi, pi^t)
    and once per distinct pair (pi^s, pi^t) with s <= t.
    """
    ops = SubgroupOps(l.group)
    grades = l.grades()
    n = len(grades)
    labels, reps = value_labels([l.table[m] for m in grades] + [l.boundary_at(t) for t in grades])
    s, t = labels[:n, None], labels[None, :n]
    return _commutator_clause(
        ops, "[pi^s, d^t pi] <= pi^t", grades, reps, s, labels[None, n:], t
    ) + _order_clause(ops, "s<t but pi^s > pi^t", grades, l.monoid, reps, s, t)


def verify_sift(f: Filter, l: Layering) -> List[Violation]:
    """Every violation of [phi_s, pi^{s+t}] <= pi^t over the box grades s, t
    of f, in grade order, decided once per distinct label triple; phi's and
    pi's values share one label space."""
    if f.group is not l.group:
        raise ValueError("filter and layering live on different groups")
    if f.monoid != l.monoid:
        raise ValueError("monoid mismatch between filter and layering")
    ops = SubgroupOps(f.group)
    grades = f.grades()
    n = len(grades)
    idx, _ = pair_index(f.box, l.box)
    labels, reps = value_labels([f.table[m] for m in grades] + [l.table[m] for m in l.grades()])
    phi, pi = labels[:n, None], labels[n:]
    return _commutator_clause(
        ops, "[phi_s, pi^{s+t}] <= pi^t", grades, reps, phi, pi[idx], pi[idx[0]][None, :]
    )


# -- products ---------------------------------------------------------------


def _product_box_map(parts, G: PcGroup):
    if len(parts) == 1 and parts[0].group is G:
        # degenerate product: the part itself
        p = parts[0]
        return GradedMonoid(p.monoid.dim), p.box, dict(p.table)
    if not G.factors or len(G.factors) != len(parts):
        raise ValueError("group was not built as a direct product of the part groups")
    offsets = []
    for (goff, fac), part in zip(G.factors, parts):
        if fac is not part.group:
            raise ValueError("part filter group does not match product factor")
        offsets.append(goff)
    box = tuple(c for p in parts for c in p.box)
    monoid_ = GradedMonoid(sum(p.monoid.dim for p in parts))
    # No closure: each factor value has a canonical igs in its factor, and the
    # embedded blocks are disjoint, commute and come in offset order.  So the
    # concatenation is an igs of the product, ordered by depth with leading
    # exponents 1, and each block's pivot coordinates are 0 in the other
    # blocks: it is the canonical igs that subgroup_from_gens would return.
    table: Dict[MonoidElem, Subgroup] = {}
    for m in mon.box_iter(box):
        gens: List[Elem] = []
        pos = 0
        for part, goff in zip(parts, offsets):
            sub_m = m[pos : pos + part.monoid.dim]
            pos += part.monoid.dim
            for h in part.value(sub_m).igs:
                gens.append(embed(h, goff, G.n))
        table[m] = Subgroup(G, gens)
    return monoid_, box, table


def product_filter(parts: List[Filter], G: PcGroup) -> Filter:
    """phi_m = prod of phi^{H_i}_{m_i} inside the declared direct product."""
    monoid_, box, table = _product_box_map(parts, G)
    return Filter(G, monoid_, box, table)


def product_layering(parts: List[Layering], G: PcGroup) -> Layering:
    monoid_, box, table = _product_box_map(parts, G)
    return Layering(G, monoid_, box, table)


# -- serialisation ----------------------------------------------------------


def boxmap_to_json(f: _BoxMap) -> dict:
    return {
        "monoid": {"dim": f.monoid.dim, "order": f.monoid.order_kind},
        "box": list(f.box),
        "entries": [
            {"grade": list(m), "igs": [list(h) for h in f.table[m].igs]}
            for m in f.grades()
        ],
    }
