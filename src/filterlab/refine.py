"""Filter refinement: lift characteristic subspaces, insert, iterate, classify.

Each insertion extends the grading monoid by one lexicographic coordinate
(appended least-significant), threading the new subgroup between phi_s and
its boundary.  Grades for the extended filter are generated by the closure
rules (order rule plus iterated commutator rule), which touch each distinct
value once per sweep and cannot leave the box (proof in ``_closure``); the
result is verified against the filter axioms, and a table that fails them
raises instead of being patched.
Every candidate inserts (proof in ``refine_to_fixpoint``), so a refinement
inserts the first candidate of each table and tries no other.
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


def lift_subspace(
    G: PcGroup, f: Filter, s: MonoidElem, subspace: np.ndarray
) -> Subgroup:
    """H = <boundary, lifts of the subspace basis>; strictly between boundary and phi_s."""
    bound = f.boundary_at(s)
    comp = CosetBasis(f.value(s), bound)
    rows = np.atleast_2d(np.asarray(subspace, dtype=np.int64)) % G.p
    rows = rows[~np.all(rows == 0, axis=1)] if rows.size else rows
    if rows.size == 0:
        raise RefinementError("nothing to insert: subspace is zero")
    if rows.shape[1] != comp.dim:
        raise RefinementError("subspace dimension does not match the component")
    lifts = [comp.lift(v) for v in rows]
    H = subgroup_from_gens(G, list(bound.igs) + lifts)
    if H.order >= f.value(s).order:
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
    ring_dims: Dict[str, Dict[str, int]]
    cap_hit: bool
    runtime_ms: int
    seed_candidates: List[tuple]  # _gather_candidates on the seed, in order

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


def _gather_candidates(L: GradedLieRing, seed: bool = False):
    """All proper emitted subspaces over all in-box products, ordered.

    Each candidate is (sort key, grade, basis, provenances).  With ``seed``
    the five ring dimensions of every bimap are returned too (keyed
    "s|t"); otherwise that dict is empty.  A bimap whose Der acts with the
    full matrix algebra as envelope on every side
    (``scalars.der_envelopes_full``) adds no candidate, so its emissions are
    not computed:

    1. ``characteristic_subspaces`` returns only emissions S with S x in S
       for every Der element x (``scalars._der_invariant``).
    2. So S is invariant under the unital algebra those x generate.  When
       that algebra is M_d(GF(p)), s M_d = GF(p)^d for any s != 0 (Burnside;
       Jacobson density), so S is 0 or the whole side.
    3. Only emissions with 0 < dim < d are kept below, so such a bimap adds
       nothing: the candidates, their order and their provenances are those
       of the unpruned loop.  Der is built first; the other four rings are
       built only when the bimap emits or its ``ring_dims`` are asked for.
    """
    out = []
    ring_dims: Dict[str, Dict[str, int]] = {}
    grades = [s for s in L.comps if L.dim(s) > 0]
    for s in grades:
        for t in grades:
            u = mon.add(s, t)
            if L.dim(u) == 0:
                continue
            b = scalars.bimap_from_lie_pair(L, s, t)
            der = scalars.derivation_algebra(b)
            pruned = scalars.der_envelopes_full(der)
            if pruned and not seed:
                continue
            rings = scalars.all_rings(b, der)
            if seed:
                key = ",".join(str(x) for x in s) + "|" + ",".join(str(x) for x in t)
                ring_dims[key] = {k: rings[k].dim for k in scalars.KINDS}
            if pruned:
                continue
            ems = scalars.characteristic_subspaces(b, rings)
            side_grade = {"U": s, "V": t, "W": u}
            for e in ems:
                g = side_grade[e.side]
                comp_dim = L.dim(g)
                if 0 < e.dim < comp_dim:
                    rank = scalars.PROVENANCE_RANK[e.provenance]
                    out.append(
                        (
                            _candidate_sort_key(rank, g, e.basis),
                            g,
                            e.basis,
                            e.provenances,
                        )
                    )
    out.sort(key=lambda c: c[0])
    return out, ring_dims


def refine_to_fixpoint(G: PcGroup, group_id: str = "") -> RefinementReport:
    """Seed with the exponent-p series, insert the first candidate, repeat.

    Insertion is total, so the first candidate of each table is inserted with
    no trial:

    1. The exponent-p seed has phi_(1) = G.  Each insertion seeds (m, 0) with
       f.value(m), and the closure only enlarges values, so phi_{e_1} = G in
       every refined filter, e_1 = (1, 0, ..., 0).
    2. By the filter axiom, [G, phi_s] = [phi_{e_1}, phi_s] <= phi_{s+e_1},
       a term of the join boundary(phi_s).  So every H with
       boundary(phi_s) <= H <= phi_s is normal: [G, H] <= boundary(phi_s) <= H.
    3. A candidate has 0 < dim < dim L_s, so ``lift_subspace`` gives
       boundary(phi_s) < H < phi_s.  None of ``insert_refinement``'s
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
    seed_candidates, ring_dims = _gather_candidates(L, seed=True)
    candidates = seed_candidates
    while candidates and len(steps) < CAP:
        _, grade, basis, provs = candidates[0]
        H = lift_subspace(G, f, grade, basis)
        new_index = f.value(grade).order // H.order
        f = insert_refinement(f, grade, H)
        steps.append(RefinementStep(grade, provs[0], new_index, H.igs))
        candidates, _ = _gather_candidates(graded_lie_ring(f))
    report = RefinementReport(
        group=group_id or (G.name or "group"),
        order=G.order,
        seed_dims=seed_dims,
        steps=steps,
        final=f,
        classification="",
        ring_dims=ring_dims,
        cap_hit=bool(candidates),
        runtime_ms=int((time.monotonic() - t0) * 1000),
        seed_candidates=seed_candidates,
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
       first-table candidates are the full run's seed emissions that the
       ring emitted, without the bimap radicals.  A duplicate emitted by
       several rings is merged into one emission that lists all their
       provenances, so the ring is found there even when it is not first.
    4. Every candidate lifts and inserts (``refine_to_fixpoint``).  So the
       restricted run is flagged iff it has a first-table candidate at all.
    """
    rank = scalars.PROVENANCE_RANK[ring.lower()]  # a ring's provenances share its rank
    return any(
        scalars.PROVENANCE_RANK[p] == rank for c in report.seed_candidates for p in c[3]
    )


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


def report_to_json(r: RefinementReport) -> dict:
    return {
        "group": r.group,
        "order": r.order,
        "seed": {"dims": list(r.seed_dims)},
        "steps": [
            {
                "grade": list(s.grade),
                "provenance": s.provenance,
                "new_index": s.new_index,
            }
            for s in r.steps
        ],
        "classification": r.classification,
        "ring_dims": {k: dict(v) for k, v in sorted(r.ring_dims.items())},
        "cap_hit": r.cap_hit,
        "runtime_ms": r.runtime_ms,
    }
