"""Central series, filters, layerings, boundaries, axiom checks, products.

A pointwise filter or layering (an N-graded series, a product map) is stored
on a finite box past the stabilisation point of the underlying series: an
off-box grade reads the value at its clamp into the box, which is then the
true value, so the axiom checks on the box grades are exact.  A lex filter,
the output of ``refine.insert_refinement``, is stored as its chain of
distinct values (``LexFilter``): ends u_0 <_lex ... <_lex u_k and values
C_0 > ... > C_k, and its axioms are checked on the (k+1)^2 pairs of ends.

The axiom verifiers walk the pairs of grades in grade order and decide each
distinct triple or pair of values once, through a fresh ``SubgroupOps``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

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
    """Shared storage, evaluation and boundaries for pointwise maps."""

    def __init__(
        self,
        group: PcGroup,
        monoid: GradedMonoid,
        box: MonoidElem,
        table: Dict[MonoidElem, Subgroup],
    ):
        if len(box) != monoid.dim:
            raise ValueError("box dimension does not match monoid")
        if monoid.order_kind == mon.LEX:
            raise ValueError("a lex filter is stored as its chain (LexFilter), not on a box")
        self.group = group
        self.monoid = monoid
        self.box = box
        self.table = dict(table)
        for m in mon.box_enumerate(box):
            if m not in self.table:
                raise ValueError(f"missing table entry at {m}")

    def grades(self) -> List[MonoidElem]:
        return mon.box_enumerate(self.box)

    def value(self, m: MonoidElem) -> Subgroup:
        if len(m) != self.monoid.dim:
            raise ValueError(f"grade {m} does not match monoid dimension {self.monoid.dim}")
        got = self.table.get(m)
        return got if got is not None else self.table[mon.clamp(m, self.box)]

    def _fold_successors(self, s: MonoidElem, op) -> Subgroup:
        """The binary subgroup operation op folded over the values at s + a
        for the atoms a of the monoid; with one atom it is a single lookup.

        This is the fold over every t != 0 in N^d: t lies at or above an
        atom a = e_i with t_i > 0, then s + e_i <= s + t pointwise, which
        the clamp keeps, and the table is monotone, so phi_{s+t} <= phi_{s+a}
        and pi^{s+t} >= pi^{s+a}.  As clamp(s + a) = clamp(clamp(s) + a), an
        off-box s has the boundary of clamp(s).
        """
        values = [self.value(mon.add(s, a)) for a in self.monoid.atoms]
        return functools.reduce(op, values)

    def boundary(self):
        table = {s: self.boundary_at(s) for s in self.grades()}
        return type(self)(self.group, self.monoid, self.box, table)

    def orders(self) -> List[int]:
        return [self.value(m).order for m in self.grades()]


class Filter(_BoxMap):
    """Order-reversing phi with [phi_s, phi_t] <= phi_{s+t}, pointwise.

    Off the box the map is evaluated at the grade clamped into the box; with
    the box past stabilisation in every coordinate direction this is the true
    value (trivial for N-graded series, the stabilised factor value for
    pointwise products).
    """

    def boundary_at(self, s: MonoidElem) -> Subgroup:
        """The join of phi_{s+t} over t != 0, that is of phi_{s+a} over the
        atoms a."""
        return self._fold_successors(s, Subgroup.join)


class LexFilter:
    """A filter over N^d, lexicographic, stored as its chain of distinct
    values: ends u_0 <_lex ... <_lex u_k and values C_0, ..., C_k, with
    phi(w) = C_i for the least i with w <=_lex u_i, and phi(w) = 1 past u_k.

    Its grades are the ends.  For a chain C_0 > ... > C_k every u_i is a
    grade where phi steps down, phi(u_i) = C_i > phi(u_i + e_d), as u_i + e_d
    is the lex successor of u_i; and phi steps down nowhere else.  The
    filter axioms are then decided on the ends alone (``verify_filter``):

    - Order.  phi is order-reversing iff C_j <= C_i for i <= j: any w <= w'
      read C_i and C_j with i <= j, or 1 at w'.
    - Commutators.  Let phi(w) = C_i and phi(w') = C_j (a trivial value has
      trivial commutators).  Then w <= u_i and w' <= u_j, and lex order is
      compatible with addition (a <= b implies a + c <= b + c), so w + w' <=
      u_i + w' <= u_i + u_j, and phi(w + w') >= phi(u_i + u_j) >= [C_i, C_j]
      when the (k+1)^2 end pairs pass.  So they decide [phi_w, phi_w'] <=
      phi_{w+w'} on all of N^d.
    """

    def __init__(self, group: PcGroup, dim: int, ends: List[MonoidElem], values: List[Subgroup]):
        self.group, self.monoid = group, GradedMonoid(dim, mon.LEX)
        self.ends, self.values = tuple(ends), tuple(values)
        if len(self.ends) != len(self.values) or any(len(u) != dim for u in self.ends):
            raise ValueError("a chain needs one value per end, each end of the monoid dimension")
        if any(u >= v for u, v in zip(self.ends, self.ends[1:])):
            raise ValueError("chain ends must increase lexicographically")
        self.trivial = trivial_subgroup(group)

    def grades(self) -> List[MonoidElem]:
        return list(self.ends)

    def value(self, w: MonoidElem) -> Subgroup:
        if len(w) != self.monoid.dim:
            raise ValueError(f"grade {w} does not match monoid dimension {self.monoid.dim}")
        i = bisect.bisect_left(self.ends, w)
        return self.values[i] if i < len(self.values) else self.trivial

    def boundary_at(self, s: MonoidElem) -> Subgroup:
        """The join of phi_{s+t} over t != 0: the value at the lex successor
        s + e_d, which every such s + t lies at or above."""
        return self.value(mon.add(s, self.monoid.atoms[0]))


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


def _commutator_clause(ops, clause, grades, triple, igs_first=False) -> List[Violation]:
    """Every grade pair (s, t), in grade order, where [A, B] <= T fails for
    (A, B, T) = triple(s, t); each distinct triple is decided once.

    A failing triple's witness is the first commutator of igs members
    outside T when ``igs_first`` is set, else ``_containment_witness``.  A
    triple that passes is stored as None: one that fails always has a
    witness, as [A, B] is generated by its igs.
    """
    G = ops.group
    witness: Dict[tuple, Optional[Elem]] = {}
    out: List[Violation] = []
    for s, t in itertools.product(grades, repeat=2):
        A, B, T = triple(s, t)
        key = (A.igs, B.igs, T.igs)
        if key not in witness:
            C = ops.comm(A, B)
            w = None
            if not ops.is_subset(C, T):
                pairs = itertools.product(A.igs, B.igs) if igs_first else ()
                comms = (G.commutator(x, y) for x, y in pairs)
                w = next((c for c in comms if not T.contains(c)), _containment_witness(C, T))
            witness[key] = w
        if witness[key] is not None:
            out.append(Violation(clause, s, t, witness[key]))
    return out


def _order_clause(ops, clause, grades, monoid, pair) -> List[Violation]:
    """Every grade pair (s, t) with s <= t, in grade order, where A <= B
    fails for (A, B) = pair(s, t); each distinct pair is decided once, and
    the violations carry no witness."""
    holds: Dict[tuple, bool] = {}
    out: List[Violation] = []
    for s, t in itertools.product(grades, repeat=2):
        if monoid.preceq(s, t):
            A, B = pair(s, t)
            key = (A.igs, B.igs)
            if key not in holds:
                holds[key] = ops.is_subset(A, B)
            if not holds[key]:
                out.append(Violation(clause, s, t, None))
    return out


def verify_filter(f: Filter | LexFilter) -> List[Violation]:
    """Every violation of [phi_s, phi_t] <= phi_{s+t}, then of phi_t <= phi_s
    for s <= t, over the grades in grade order: the box grades of a
    ``Filter``, the ends of a ``LexFilter`` (enough, proof there).

    A clause depends on the grades only through their values, so it is
    decided once per distinct triple (phi_s, phi_t, phi_{s+t}) and once per
    distinct pair (phi_s, phi_t) with s <= t.
    """
    ops, grades, phi = SubgroupOps(f.group), f.grades(), f.value
    return _commutator_clause(
        ops,
        "[phi_s,phi_t] <= phi_{s+t}",
        grades,
        lambda s, t: (phi(s), phi(t), phi(mon.add(s, t))),
        igs_first=True,
    ) + _order_clause(
        ops, "s<t but phi_s < phi_t", grades, f.monoid, lambda s, t: (phi(t), phi(s))
    )


def verify_layering(l: Layering) -> List[Violation]:
    """Every violation of [pi^s, d^t pi] <= pi^t, then of pi^s <= pi^t for
    s <= t, over the box grades in grade order.

    Each boundary is taken once; the clauses are decided once per distinct
    triple (pi^s, d^t pi, pi^t) and once per distinct pair (pi^s, pi^t)
    with s <= t.
    """
    ops, grades, pi = SubgroupOps(l.group), l.grades(), l.value
    d = {t: l.boundary_at(t) for t in grades}
    return _commutator_clause(
        ops, "[pi^s, d^t pi] <= pi^t", grades, lambda s, t: (pi(s), d[t], pi(t))
    ) + _order_clause(
        ops, "s<t but pi^s > pi^t", grades, l.monoid, lambda s, t: (pi(s), pi(t))
    )


def verify_sift(f: Filter, l: Layering) -> List[Violation]:
    """Every violation of [phi_s, pi^{s+t}] <= pi^t over the box grades s, t
    of f, in grade order, decided once per distinct triple."""
    if f.group is not l.group:
        raise ValueError("filter and layering live on different groups")
    if f.monoid != l.monoid:
        raise ValueError("monoid mismatch between filter and layering")
    return _commutator_clause(
        SubgroupOps(f.group),
        "[phi_s, pi^{s+t}] <= pi^t",
        f.grades(),
        lambda s, t: (f.value(s), l.value(mon.add(s, t)), l.value(t)),
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
    for m in mon.box_enumerate(box):
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
