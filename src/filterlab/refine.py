"""Filter refinement: lift characteristic subspaces, insert, iterate, classify.

Each insertion extends the grading monoid by one lexicographic coordinate
(appended least-significant), threading the new subgroup between phi_s and
its boundary.  Grades for the extended filter are generated by the closure
rules (order rule plus iterated commutator rule), which touch each distinct
value once per sweep and cannot leave the box (proof in ``_closure``); the
result is verified against the filter axioms, and a table that fails them
raises instead of being patched.
Every candidate inserts (proof in ``refine_to_fixpoint``), so a refinement
inserts the first candidate of each table and tries no other.  A table's
candidates are searched by provenance rank (``CandidateTable``): the rings
of a rank are built only when every lower rank is empty, and the seed
table builds the others only for ``ring_dims`` and ``seed_refined_by``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import monoid as mon, scalars
from .lie import CosetBasis, GradedLieRing, graded_lie_ring
from .monoid import GradedMonoid, MonoidElem
from .pcgroup import (
    Elem,
    PcGroup,
    Subgroup,
    SubgroupOps,
    subgroup_from_gens,
    trivial_subgroup,
)
from .series import (
    Filter,
    distinct_codes,
    exponent_p_lcs,
    pair_index,
    value_labels,
    verify_filter,
)


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


def _closure(
    G: PcGroup,
    box: MonoidElem,
    seeds: Dict[MonoidElem, Subgroup],
    ops: SubgroupOps,
) -> Dict[MonoidElem, Subgroup]:
    """Smallest box table containing the seeds and closed under both rules.

    Each seed is a canonical subgroup and goes into its grade as it is.

    A sweep runs the order rule as a descending lex cascade, then the
    commutator rule as a Jacobi step: the values are labelled once, and for
    each distinct (in-box target w, label a, label b) with both values
    nontrivial, [A, B] is joined into the value at w.  Both rules are
    monotone and inflationary on the finite lattice of tables.  So each join
    keeps the table below the least table T that contains the seeds and is
    closed under both rules (if X <= T then [X_u, X_v] <= [T_u, T_v] <= T_w),
    and a sweep that changes nothing leaves a closed table, which is then T.
    The order in which the rules are applied does not change the table.

    A commutator whose grade w = u + v leaves the box is contained in
    phi_{clamp(w)} once the sweeps end, so it needs no check.  The final
    table is lex-monotone (the order rule), hence pointwise-monotone.  Set
    u' = clamp(w) - v.  Then 0 <= u' <= u pointwise, as v <= clamp(w), and
    u' + v = clamp(w) lies in the box, so
    [phi_u, phi_v] <= [phi_u', phi_v] <= phi_{clamp(w)}.
    ``verify_filter`` checks exactly these triples on the final table.
    """
    grades = mon.box_enumerate(box)
    n = len(grades)
    trivial = trivial_subgroup(G)
    vals: List[Subgroup] = [trivial] * n
    for i, m in enumerate(grades):
        if m in seeds:
            vals[i] = seeds[m]
    idx, inbox = pair_index(box)
    targets = idx[inbox]
    rows, cols = np.nonzero(inbox)

    changed = True
    while changed:
        changed = False
        # order rule: descending lex cascade
        for cur in range(n - 2, -1, -1):
            if not ops.is_subset(vals[cur + 1], vals[cur]):
                vals[cur] = ops.join(vals[cur], vals[cur + 1])
                changed = True
        # commutator rule, one join per distinct (target, value, value)
        labels, reps = value_labels(vals)
        k = len(reps)
        nontrivial = np.array([H.order > 1 for H in reps])
        a, b = labels[rows], labels[cols]
        live = nontrivial[a] & nontrivial[b]
        codes = (targets[live].astype(np.int64) * k + a[live]) * k + b[live]
        for code in distinct_codes(codes, n * k * k).tolist():
            rest, y = divmod(code, k)
            w, x = divmod(rest, k)
            c = ops.comm(reps[x], reps[y])
            if c.order > 1 and not ops.is_subset(c, vals[w]):
                vals[w] = ops.join(vals[w], c)
                changed = True
    return dict(zip(grades, vals))


def insert_refinement(f: Filter, s: MonoidElem, H: Subgroup) -> Filter:
    """Extend f over N^(d+1), lexicographic, with H threaded at grade (s, 1).

    One closure psi on the box (B, E), B = f.box, gives the table; the new
    coordinate is cut back to the least E' >= 1 from which its levels are
    equal up to E.  In B, m+ is the lex successor of m and ceil(w) the
    lex-least grade at or above w in N^d; phi is 1 past the last grade.  f is
    the exponent-p seed or an output of this function, so by induction
    (P) phi_clamp(w) = phi_ceil(w) for all w: B is past stabilisation.  And
    s_1 >= 1, as phi_{e_1} = G (``refine_to_fixpoint``) makes the boundary
    at s equal to G when s_1 = 0.

    1. phi_m at each (m, c) is a closed table holding the seeds, so
       psi_(m,c) <= phi_m = psi_(m,0).
    2. Degree bound.  Let k(m) be the largest k with k*s <= m pointwise, and
       X = psi at c <= k(m), X = phi_{m+} at c > k(m).  X <= psi, X holds
       the seeds and is lex-monotone, and X is closed: if u + v = (m, c)
       with c > k(m), say u = (m1, c1) has c1 > k(m1), then [X_u, X_v] <=
       [phi_{m1+}, phi_{m2}] <= phi_clamp(m1+ + m2) = phi_ceil(m1+ + m2) <=
       phi_{m+} by (P).  So X = psi: psi_(m,c) = phi_{m+} once c*s_1 > m_1,
       hence for c >= E = (b_1 - 1) // s_1 + 1 ((P): phi_m = 1 if m_1 = b_1).
    3. Cut-back.  psi restricted to (B, E') is closed, and the closure on
       (B, E') read through the clamp is closed on (B, E), so the two agree
       on (B, E'), and psi_(m,E') = psi_(m,E) = phi_{m+}.  With step 1 and
       (P) for f this gives (P) for the output.
    4. Old coordinates.  By (P), psi o clamp = psi o ceil is lex-monotone, so
       it is closed on (B+1, E'+1) and holds the closure Z there; Z restricted
       to (B, E') is closed, so Z_w >= Z_ceil(w) >= psi_ceil(w).  Hence Z =
       psi o clamp: the one-larger box adds nothing in any coordinate.
    """
    G = f.group
    H = subgroup_from_gens(G, H.igs)  # canonical, so the closure seeds it as is
    bound = f.boundary_at(s)
    val = f.value(s)
    if not (bound.is_subset(H) and H.is_subset(val)):
        raise RefinementError("containment violated: need boundary <= H <= phi_s")
    if H.order <= bound.order or H.order >= val.order:
        raise RefinementError("containment violated: insertion must be strict")
    if not H.is_normal():
        raise RefinementError("inserted subgroup is not normal")
    seeds: Dict[MonoidElem, Subgroup] = {m + (0,): f.value(m) for m in f.grades()}
    seeds[s + (1,)] = H
    top = (f.box[0] - 1) // s[0] + 1
    table = _closure(G, f.box + (top,), seeds, SubgroupOps(G))
    while top > 1 and all(table[m + (top - 1,)] == table[m + (top,)] for m in f.grades()):
        top -= 1
    box = f.box + (top,)
    table = {w: table[w] for w in mon.box_iter(box)}
    out = Filter(G, GradedMonoid(f.monoid.dim + 1, mon.LEX), box, table)
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
    final: Filter
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
    ``scalars.characteristic_subspaces`` returns for an in-box product
    L_s x L_t, proper (0 < dim < dim L_g, g the grade of its side).  The full
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
        self.products = []  # (s, t, rings) for every in-box product
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
       <= phi_{s+e_d} = boundary(phi_s), as s + e_d <= s + e_1 in lex ((P)
       of ``insert_refinement``).  So every H with boundary(phi_s) <= H <=
       phi_s is normal: [G, H] <= boundary(phi_s) <= H.
    3. A candidate has 0 < dim < dim L_s, and it lifts through the ring's
       own component L_s = phi_s / boundary(phi_s), so ``lift_subspace``
       gives boundary(phi_s) < H < phi_s.  None of ``insert_refinement``'s
       containment, strictness or normality checks can fail on it.
    4. The closure's box is past stabilisation (``insert_refinement``), so
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
