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


def lower_central(G: PcGroup) -> Filter:
    """gamma_1 = G, gamma_{i+1} = [G, gamma_i]; graded over N with phi_0 = G."""
    full = full_subgroup(G)
    chain = [full]
    while chain[-1].order > 1:
        nxt = comm_subgroup(full, chain[-1])
        if nxt.order == chain[-1].order:
            raise ValueError("lower central series did not reach 1 (not nilpotent?)")
        chain.append(nxt)
    table = {(0,): full}
    for i, H in enumerate(chain, start=1):
        table[(i,)] = H
    return Filter(G, N_MONOID, (len(chain),), table)


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


def exponent_p_lcs(G: PcGroup) -> Filter:
    """eta_1 = G, eta_{i+1} = [G, eta_i] * eta_i^p; elementary abelian factors."""
    full = full_subgroup(G)
    chain = [full]
    while chain[-1].order > 1:
        cur = chain[-1]
        gens = list(comm_subgroup(full, cur).igs)
        gens += [G.power(h, G.p) for h in cur.igs]
        nxt = subgroup_from_gens(G, gens)
        if nxt.order == cur.order:
            raise ValueError("exponent-p series did not reach 1")
        chain.append(nxt)
    table = {(0,): full}
    for i, H in enumerate(chain, start=1):
        table[(i,)] = H
    return Filter(G, N_MONOID, (len(chain),), table)


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


def _triples_hold(ops: SubgroupOps, a, b, c, reps: List[Subgroup]) -> bool:
    """[A, B] <= C for every distinct triple of labels (a, b, c), given as
    arrays that broadcast to one shape."""
    k = len(reps)
    codes = (a.astype(np.int64) * k + b) * k + c
    for code in distinct_codes(codes.ravel(), k**3).tolist():
        rest, z = divmod(code, k)
        x, y = divmod(rest, k)
        if not ops.is_subset(ops.comm(reps[x], reps[y]), reps[z]):
            return False
    return True


def verify_filter(f: Filter) -> List[Violation]:
    """Exhaustive check of both filter clauses over the box.

    Each clause depends on the grades only through their values, so it is
    checked once per distinct label triple (phi_s, phi_t, phi_{s+t}) and
    once per distinct pair (phi_s, phi_t) with s <= t.  Only when one of
    those fails does the per-pair loop run, to list every violation with its
    grades and witness in grade order.
    """
    ops = SubgroupOps(f.group)
    grades = f.grades()
    idx, _ = pair_index(f.box)
    labels, reps = value_labels([f.table[m] for m in grades])
    k = len(reps)
    if not _triples_hold(ops, labels[:, None], labels[None, :], labels[idx], reps):
        return _verify_filter_pairs(f, ops)
    le = f.monoid.preceq_matrix(grades)
    pairs = labels[:, None].astype(np.int64) * k + labels[None, :]
    for code in distinct_codes(pairs[le], k * k).tolist():
        a, b = divmod(code, k)
        if not ops.is_subset(reps[b], reps[a]):
            return _verify_filter_pairs(f, ops)
    return []


def _verify_filter_pairs(f: Filter, ops: SubgroupOps) -> List[Violation]:
    out: List[Violation] = []
    grades = f.grades()
    for s in grades:
        for t in grades:
            c = ops.comm(f.value(s), f.value(t))
            target = f.value(mon.add(s, t))
            if not ops.is_subset(c, target):
                w = next(
                    (
                        f.group.commutator(x, y)
                        for x in f.value(s).igs
                        for y in f.value(t).igs
                        if not target.contains(f.group.commutator(x, y))
                    ),
                    _containment_witness(c, target),
                )
                out.append(Violation("[phi_s,phi_t] <= phi_{s+t}", s, t, w))
    for s in grades:
        for t in grades:
            if f.monoid.preceq(s, t) and not ops.is_subset(f.value(t), f.value(s)):
                out.append(Violation("s<t but phi_s < phi_t", s, t, None))
    return out


def verify_layering(l: Layering) -> List[Violation]:
    ops = SubgroupOps(l.group)
    out: List[Violation] = []
    grades = l.grades()
    bounds = {t: l.boundary_at(t) for t in grades}
    for s in grades:
        for t in grades:
            c = ops.comm(l.value(s), bounds[t])
            if not ops.is_subset(c, l.value(t)):
                w = _containment_witness(c, l.value(t))
                out.append(Violation("[pi^s, d^t pi] <= pi^t", s, t, w))
    for s in grades:
        for t in grades:
            if l.monoid.preceq(s, t) and not ops.is_subset(l.value(s), l.value(t)):
                out.append(Violation("s<t but pi^s > pi^t", s, t, None))
    return out


def verify_sift(f: Filter, l: Layering) -> List[Violation]:
    """[phi_s, pi^{s+t}] <= pi^t for all box grades s, t.

    Checked once per distinct label triple (phi_s, pi^{s+t}, pi^t); only
    when one fails does the per-pair loop run, to list every violation.
    """
    if f.group is not l.group:
        raise ValueError("filter and layering live on different groups")
    if f.monoid != l.monoid:
        raise ValueError("monoid mismatch between filter and layering")
    ops = SubgroupOps(f.group)
    grades = f.grades()
    idx, _ = pair_index(f.box, l.box)
    fl, f_reps = value_labels([f.table[m] for m in grades])
    ll, l_reps = value_labels([l.table[m] for m in l.grades()])
    # one label space for both maps' values, phi's first
    reps = f_reps + l_reps
    ll = ll + len(f_reps)
    if _triples_hold(ops, fl[:, None], ll[idx], ll[idx[0]][None, :], reps):
        return []
    out: List[Violation] = []
    for s in grades:
        for t in grades:
            c = ops.comm(f.value(s), l.value(mon.add(s, t)))
            if not ops.is_subset(c, l.value(t)):
                w = _containment_witness(c, l.value(t))
                out.append(Violation("[phi_s, pi^{s+t}] <= pi^t", s, t, w))
    return out


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
                gens.append(embed(G, h, goff, G.n))
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
