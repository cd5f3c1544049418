"""Filter refinement: lift characteristic subspaces, insert, iterate, classify.

Each insertion extends the grading monoid by one lexicographic coordinate
(appended least-significant), threading the new subgroup between phi_s and
its boundary.  The closure works on the chain of distinct values
(``series.LexFilter``) and its pairs of ends, and ends at the least filter
over the seeds (proofs in ``_close``); the result is verified against the
filter axioms, and a chain that fails them raises instead of being patched.
Every candidate inserts (proof in ``refine_to_fixpoint``), so a refinement
inserts the first candidate of each table and tries no other.  A table's
candidates are searched by provenance rank (``CandidateTable``): the rings
of a rank are built only when every lower rank is empty, and the seed
table builds the others only for ``ring_dims`` and ``seed_refined_by``.
"""

from __future__ import annotations

import bisect
import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import monoid as mon, scalars
from .lie import CosetBasis, GradedLieRing, graded_lie_ring
from .monoid import MonoidElem
from .pcgroup import (
    Elem,
    PcGroup,
    Subgroup,
    SubgroupOps,
    subgroup_from_gens,
    trivial_subgroup,
)
from .series import Filter, LexFilter, exponent_p_lcs, verify_filter


class RefinementError(RuntimeError):
    pass


def lift_subspace(comp: CosetBasis, subspace: np.ndarray) -> Subgroup:
    """H = <N, lifts of the subspace basis> for the component comp = H'/N of
    a Lie ring; strictly between the boundary N and the value H'."""
    G, bound = comp.group, comp.N
    rows = np.atleast_2d(np.asarray(subspace, dtype=np.int64)) % G.p
    rows = rows[~np.all(rows == 0, axis=1)] if rows.size else rows
    if rows.size == 0:
        raise RefinementError("nothing to insert: subspace is zero")
    if rows.shape[1] != comp.dim:
        raise RefinementError("subspace dimension does not match the component")
    lifts = [comp.lift(v) for v in rows]
    H = subgroup_from_gens(G, list(bound.igs) + lifts)
    if H.order >= comp.H.order:
        raise RefinementError("nothing to insert: subspace is the full component")
    if H.order <= bound.order:
        raise RefinementError("nothing to insert: subspace is zero")
    return H


def _close(ends: List[MonoidElem], values: List[Subgroup], ops: SubgroupOps):
    """The least lex filter above the chain (ends, values), as a chain.

    While some pair of ends has X = [C_i, C_j] outside psi(w), w = u_i + u_j,
    X is joined into every value at or below w, the interval that holds w is
    split at w, and equal neighbours merge, keeping the later end: the least
    order-reversing map above psi with X at w.

    Fixpoint.  Let T be the least lex filter above the seed chain sigma.
    Each join keeps psi <= T: if psi <= T, X <= [T(u_i), T(u_j)] <= T(w) <=
    T(v) for v <= w.  The join is monotone and inflationary, so psi only
    grows.  At the fixpoint all end pairs pass, so psi is a filter
    (``series.LexFilter``) above sigma, and psi = T.

    Termination.  Let rho(w) = eta(w_1), eta the exponent-p seed over N and
    b_1 its first grade with eta(b_1) = 1.  rho is order-reversing in lex
    order and [rho(u), rho(v)] <= rho(u + v).  By induction over the
    insertions every filter lies below rho, as H <= phi_s, and then so does
    T.  Every seed end has first coordinate >= 1, as phi_{e_1} = G = phi_0
    (``refine_to_fixpoint``).  A join at w has 1 != X <= T(w) <= rho(w), so
    w_1 < b_1, and every new end is such a w, the sum of two ends.  So each
    end is a sum of fewer than b_1 seed ends, in a finite set E.  psi is
    determined by its values on E, which holds its ends, and each join
    strictly grows psi at w in E, so the closure stops after at most
    |E| log_p|G| joins.
    """
    trivial = trivial_subgroup(ops.group)
    while True:
        for i, j in itertools.combinations_with_replacement(range(len(ends)), 2):
            w = mon.add(ends[i], ends[j])
            X = ops.comm(values[i], values[j])
            l = bisect.bisect_left(ends, w)
            at = values[l] if l < len(values) else trivial
            if not ops.is_subset(X, at):
                break
        else:
            return ends, values
        tail = l + (l < len(ends) and ends[l] == w)
        ends = ends[:l] + [w] + ends[tail:]
        values = [ops.join(C, X) for C in values[:l]] + [ops.join(at, X)] + values[tail:]
        keep = [i for i in range(len(ends)) if i + 1 == len(ends) or values[i] != values[i + 1]]
        ends, values = [ends[i] for i in keep], [values[i] for i in keep]


def insert_refinement(f: Filter | LexFilter, s: MonoidElem, H: Subgroup) -> LexFilter:
    """Extend f over N^(d+1), lexicographic, with H threaded at grade (s, 1).

    f is the exponent-p seed (over N, where pointwise is lex order) or an
    output of this function; its chain is its grades m with phi_m !=
    phi_{m+e_d}, and s is an end, as phi_s > H > phi_{s+e_d}.  The seed chain
    sigma appends 0 to every end and puts H at (s, 1), just after (s, 0):
    the least lex-monotone map with phi_m at (m, 0) and H at (s, 1).  The
    output is the least lex filter above sigma (``_close``).

    Relation to the box closure, which stored a lex filter on a box B with
    a table psi, read an off-box grade at its clamp into B, and proved for
    each output
    (P) psi(clamp w) = psi(ceil w), ceil w the lex-least grade of B at or
    above w, with psi = 1 past B.

    (a) A table with (P) is its chain, ends the grades g of B with psi(g)
        != psi(clamp(g + e_d)) = psi(g+), g+ the lex successor of g in B
        (ceil(g + e_d) = g+).  psi is lex-monotone on B, so psi(ceil w) is
        the value at the least such g at or above ceil w, that is at or
        above w, and 1 when there is none.
    (b) The box closure of the seeds phi_m at every (m, 0) of B and H at
        (s, 1), read through the clamp, is the least filter above them,
        which is the least filter above sigma.  It is a filter: (P) makes
        it lex-order-reversing, and [psi(clamp u), psi(clamp v)] <=
        psi(clamp(clamp u + clamp v)) = psi(clamp(u + v)), as the closure
        holds a commutator whose grade leaves B at its clamp.  A filter Z
        above the seeds is closed for the sums inside B, so Z >= psi on B,
        and off B, Z(w) >= Z(ceil w) >= psi(ceil w) = psi(clamp w).
    So the chain equals the box table read through the clamp.
    """
    G = f.group
    H = subgroup_from_gens(G, H.igs)  # canonical, as the chain's values are
    bound = f.boundary_at(s)
    val = f.value(s)
    if not (bound.is_subset(H) and H.is_subset(val)):
        raise RefinementError("containment violated: need boundary <= H <= phi_s")
    if H.order <= bound.order or H.order >= val.order:
        raise RefinementError("containment violated: insertion must be strict")
    if not H.is_normal():
        raise RefinementError("inserted subgroup is not normal")
    chain = [m for m in f.grades() if f.value(m) != f.boundary_at(m)]
    ends = [m + (0,) for m in chain]
    values = [f.value(m) for m in chain]
    at = chain.index(s) + 1
    ends.insert(at, s + (1,))
    values.insert(at, H)
    out = LexFilter(G, f.monoid.dim + 1, *_close(ends, values, SubgroupOps(G)))
    bad = verify_filter(out)
    if bad:
        raise RefinementError(f"refined table is not a filter: {bad[0]}")
    return out


@dataclass
class RefinementStep:
    grade: MonoidElem
    provenance: str
    new_index: int  # index of H inside phi_s
    igs: Tuple[Elem, ...]


CAP = 20  # insertions after which a refinement stops and records cap_hit


@dataclass
class RefinementReport:
    group: str
    order: int
    seed_dims: List[int]
    steps: List[RefinementStep]
    final: LexFilter | Filter
    classification: str
    cap_hit: bool
    runtime_ms: int
    seed_table: CandidateTable  # for ring_dims and seed_refined_by

    @property
    def flagged(self) -> bool:
        return self.classification == "non-semi-classical"


def _candidate_sort_key(rank: int, grade: MonoidElem, basis: np.ndarray):
    return (
        rank,
        grade,
        basis.shape[0],
        tuple(int(x) for x in basis.reshape(-1)),
    )


class CandidateTable:
    """The candidates of one table, searched rank by rank.

    A candidate is (sort key, grade, basis, provenances): a subspace that
    ``scalars.characteristic_subspaces`` returns for a product L_s x L_t
    with L_{s+t} != 0, proper (0 < dim < dim L_g, g the grade of its side).  The full
    sort orders all of them by (rank of provs[0], grade, dim, echelon form),
    stably over the products in loop order.  A product on which
    ``der_envelopes_full`` holds has no proper Der-invariant subspace (see
    its docstring): it adds no candidate, is left out of ``live``, and
    builds no ring but Der here.

    ``rank(r)`` merges each live product's rank-r emissions and sorts the
    proper ones; ``first()`` takes the ranks in order and stops at the
    first that is not empty, so the rings of rank r are built only when
    every lower rank is empty.  It returns the full sort's first candidate:

    1. ``characteristic_subspaces`` merges a product's emissions in rank
       order, so a subspace's provs[0], and its rank in the full sort, is
       its least emitting provenance.
    2. Rank r is reached only when no product has a proper Der-invariant
       emission of lower rank.  Properness and invariance depend only on
       the subspace, so no candidate of ``rank(r)`` has a lower-rank
       emitter: ``rank(r)`` holds the full sort's rank-r candidates.
    3. Within a rank both merges list the emitters in the same order, and
       both sorts are stable over the same products, so ``rank(r)[0]`` is
       the full sort's ``candidates[0]`` with the same provs[0], and
       ``first()`` is None iff the full sort is empty (``cap_hit``).  And
       ``rank(r)`` is not empty iff some candidate of the full sort lists a
       rank-r provenance (``seed_refined_by``).
    """

    def __init__(self, L: GradedLieRing):
        self.L = L
        self.products = []  # (s, t, rings) for every product with L_{s+t} != 0
        for s in L.comps:
            for t in L.comps:
                if L.dim(mon.add(s, t)):
                    b = scalars.bimap_from_lie_pair(L, s, t)
                    self.products.append((s, t, scalars.BimapRings(b)))
        self.live = [x for x in self.products if not x[2].der_envelopes_full()]
        self._ranks: Dict[int, list] = {}

    def rank(self, r: int) -> list:
        """The candidates of provenance rank ``r``, in full-sort order."""
        if r not in self._ranks:
            out = []
            for s, t, rings in self.live:
                side_grade = {"U": s, "V": t, "W": mon.add(s, t)}
                for e in rings.subspaces([r]):
                    g = side_grade[e.side]
                    if 0 < e.dim < self.L.dim(g):
                        out.append((_candidate_sort_key(r, g, e.basis), g, e.basis, e.provenances))
            out.sort(key=lambda c: c[0])
            self._ranks[r] = out
        return self._ranks[r]

    def first(self):
        """The first candidate of the full sort, or None if there is none."""
        for r in scalars.RANKS:
            if self.rank(r):
                return self.rank(r)[0]
        return None

    def ring_dims(self) -> Dict[str, Dict[str, int]]:
        """The five ring dimensions per product, keyed "s|t", from its cache."""
        return {
            ",".join(map(str, s)) + "|" + ",".join(map(str, t)):
                {k: rings.ring(k).dim for k in scalars.KINDS}
            for s, t, rings in self.products
        }


def refine_to_fixpoint(G: PcGroup, group_id: str = "") -> RefinementReport:
    """Seed with the exponent-p series, insert the first candidate, repeat.

    Insertion is total, so the first candidate of each table is inserted with
    no trial:

    1. The exponent-p seed has phi_(1) = G.  Each insertion seeds (m, 0) with
       f.value(m), and the closure only enlarges values, so phi_{e_1} = G in
       every refined filter, e_1 = (1, 0, ..., 0).
    2. By the filter axiom, [G, phi_s] = [phi_{e_1}, phi_s] <= phi_{s+e_1}
       <= phi_{s+e_d} = boundary(phi_s), as s + e_d <= s + e_1 in lex and
       phi is order-reversing.  So every H with boundary(phi_s) <= H <=
       phi_s is normal: [G, H] <= boundary(phi_s) <= H.
    3. A candidate has 0 < dim < dim L_s, and it lifts through the ring's
       own component L_s = phi_s / boundary(phi_s), so ``lift_subspace``
       gives boundary(phi_s) < H < phi_s.  None of ``insert_refinement``'s
       containment, strictness or normality checks can fail on it.
    4. The closure ends at the least filter over the seeds (``_close``), so
       only the ``verify_filter`` post-check is left.  A raise there is a
       defect: it propagates, and the census skips the group (stage refine).

    ``cap_hit`` means the run stopped after CAP steps with candidates left.
    """
    t0 = time.monotonic()
    f = exponent_p_lcs(G)
    L = graded_lie_ring(f)
    seed_dims = [L.dim(s) for s in L.grades()]
    steps: List[RefinementStep] = []
    table = seed_table = CandidateTable(L)
    first = table.first()
    while first is not None and len(steps) < CAP:
        _, grade, basis, provs = first
        H = lift_subspace(table.L.comps[grade], basis)
        new_index = f.value(grade).order // H.order
        f = insert_refinement(f, grade, H)
        steps.append(RefinementStep(grade, provs[0], new_index, H.igs))
        table = CandidateTable(graded_lie_ring(f))
        first = table.first()
    report = RefinementReport(
        group=group_id or (G.name or "group"),
        order=G.order,
        seed_dims=seed_dims,
        steps=steps,
        final=f,
        classification="",
        cap_hit=first is not None,
        runtime_ms=int((time.monotonic() - t0) * 1000),
        seed_table=seed_table,
    )
    report.classification = classify(report, G)
    return report


def seed_refined_by(report: RefinementReport, ring: str) -> bool:
    """Whether ``ring`` emitted some candidate of the seed table.

    For a group without declared direct factors this is the flag of a
    refinement restricted to the candidates ``ring`` emits, without the
    bimap radicals:

    1. A parsed ``.pcg`` group never declares direct factors: only
       ``direct_product`` sets ``G.factors``.  So ``classify`` flags such a
       group iff its refinement makes at least one step.
    2. A restricted run starts from the same exponent-p seed filter as the
       full run.  So it is flagged iff one of its first-table candidates
       lifts and inserts; later steps cannot change the flag.
    3. An emission of one ring depends only on the bimap, that ring, its
       radical and Der, and Der is always built.  So the restricted run's
       first-table candidates are the seed table's candidates of the ring's
       rank (``CandidateTable.rank``), where Der-invariance and properness
       are decided per subspace, whatever lower rank also emits it.
    4. Every candidate lifts and inserts (``refine_to_fixpoint``).  So the
       restricted run is flagged iff it has a first-table candidate at all.
    """
    # a ring's provenances share its rank
    return bool(report.seed_table.rank(scalars.PROVENANCE_RANK[ring.lower()]))


def _product_series_values(G: PcGroup) -> Optional[set]:
    """Subgroups of the product exponent-p filter, when factors are declared."""
    from .series import product_filter

    if len(G.factors) < 2:
        return None
    parts = [exponent_p_lcs(F) for _, F in G.factors]
    pf = product_filter(parts, G)
    return {pf.value(m).igs for m in pf.grades()}


def classify(r: RefinementReport, G: PcGroup) -> str:
    """classical: no insertion; semi-classical: insertions only reproduce a
    declared direct-product structure; non-semi-classical otherwise."""
    if not r.steps:
        return "classical"
    product_values = _product_series_values(G)
    if product_values is not None and all(
        step.igs in product_values for step in r.steps
    ):
        return "semi-classical"
    return "non-semi-classical"


def step_to_json(s: RefinementStep) -> dict:
    return {"grade": list(s.grade), "provenance": s.provenance, "new_index": s.new_index}


def report_to_json(r: RefinementReport) -> dict:
    return {
        "group": r.group,
        "order": r.order,
        "seed": {"dims": list(r.seed_dims)},
        "steps": [step_to_json(s) for s in r.steps],
        "classification": r.classification,
        "ring_dims": dict(sorted(r.seed_table.ring_dims().items())),
        "cap_hit": r.cap_hit,
        "runtime_ms": r.runtime_ms,
    }
