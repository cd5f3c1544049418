"""The box closure of a lex filter: the differential reference for the chain
closure of ``refine.insert_refinement``.

A lex filter was stored on a box B, with a table psi on the grades of B; an
off-box grade w read psi at clamp(w), which was exact by

(P) psi(clamp w) = psi(ceil w), ceil w the lex-least grade of B at or above
    w, and psi = 1 past B.

An insertion closes the seeds on the box (B, E), E = (b_1 - 1) // s_1 + 1
the degree bound past which the new coordinate adds nothing, and cuts the
new coordinate back to the least E' >= 1 from which its levels are equal;
``test_insertion_total`` checks that sizing against a retry loop.  The
chain must equal this table read through the clamp, and its ends must be
the grades where the table steps down (proofs in ``insert_refinement``).
"""

from typing import Dict, List, Tuple

import numpy as np

from filterlab import monoid as mon, refine
from filterlab.monoid import MonoidElem
from filterlab.pcgroup import Subgroup, SubgroupOps, subgroup_from_gens, trivial_subgroup

Table = Dict[MonoidElem, Subgroup]


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


def pair_index(box: MonoidElem):
    """For the grades g_0, ..., g_{n-1} of ``box_enumerate(box)``:
    ``idx[i, j]`` is the index of clamp(g_i + g_j) and ``inbox[i, j]`` marks
    the sums that lie in the box.  A grade's index is the sum of its
    coordinates times the lex strides, and clamping works per coordinate."""
    grades = np.array(mon.box_enumerate(box), dtype=np.int32).reshape(-1, len(box))
    n = grades.shape[0]
    idx = np.zeros((n, n), dtype=np.int32)
    inbox = np.ones((n, n), dtype=bool)
    stride = 1
    for k in reversed(range(len(box))):
        c = grades[:, k]
        total = c[:, None] + c[None, :]
        inbox &= total <= box[k]
        idx += np.minimum(total, box[k]) * np.int32(stride)
        stride *= box[k] + 1
    return idx, inbox


def box_closure(G, box: MonoidElem, seeds: Table, ops: SubgroupOps) -> Table:
    """Smallest box table containing the seeds and closed under both rules.

    A sweep runs the order rule as a descending lex cascade, then the
    commutator rule as a Jacobi step: the values are labelled once, and for
    each distinct (in-box target w, label a, label b) with both values
    nontrivial, [A, B] is joined into the value at w.  Both rules are
    monotone and inflationary on the finite lattice of tables, so each join
    keeps the table below the least closed table T that holds the seeds,
    and a sweep that changes nothing leaves T.

    A commutator whose grade w = u + v leaves the box lies in
    phi_{clamp(w)} at the end: with u' = clamp(w) - v, 0 <= u' <= u
    pointwise and u' + v = clamp(w) is in the box, so [phi_u, phi_v] <=
    [phi_u', phi_v] <= phi_{clamp(w)} (the final table is lex-monotone,
    hence pointwise-monotone).
    """
    grades = mon.box_enumerate(box)
    n = len(grades)
    trivial = trivial_subgroup(G)
    vals: List[Subgroup] = [seeds.get(m, trivial) for m in grades]
    idx, inbox = pair_index(box)
    targets = idx[inbox]
    rows, cols = np.nonzero(inbox)
    changed = True
    while changed:
        changed = False
        for cur in range(n - 2, -1, -1):
            if not ops.is_subset(vals[cur + 1], vals[cur]):
                vals[cur] = ops.join(vals[cur], vals[cur + 1])
                changed = True
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


def reference_insertion(box: MonoidElem, table: Table, s: MonoidElem, H: Subgroup) -> Tuple[MonoidElem, Table]:
    """The box and table of the insertion of H at (s, 1) into the box table
    (box, table): one closure on the box sized by the degree bound, then the
    new coordinate cut back to where its levels stop changing."""
    G = H.group
    seeds = {m + (0,): table[m] for m in mon.box_enumerate(box)}
    seeds[s + (1,)] = subgroup_from_gens(G, H.igs)
    top = (box[0] - 1) // s[0] + 1
    out = box_closure(G, box + (top,), seeds, SubgroupOps(G))
    old = mon.box_enumerate(box)
    while top > 1 and all(out[m + (top - 1,)] == out[m + (top,)] for m in old):
        top -= 1
    box = box + (top,)
    return box, {w: out[w] for w in mon.box_enumerate(box)}


def read(box: MonoidElem, table: Table, w: MonoidElem) -> Subgroup:
    return table[mon.clamp(w, box)]


def steps_down(box: MonoidElem, table: Table) -> List[MonoidElem]:
    """The grades g of the box with psi(g) != psi(clamp(g + e_d)), in lex
    order."""
    unit = mon.GradedMonoid(len(box), mon.LEX).atoms[0]
    return [g for g in mon.box_enumerate(box) if table[g] != read(box, table, mon.add(g, unit))]


def chain_mismatches(f, box: MonoidElem, table: Table) -> List[Tuple[str, MonoidElem]]:
    """Where the chain filter f and the box table disagree: every grade of
    the box grown by 2 in each coordinate, compared with the table read
    through the clamp, and the ends against the grades where the table
    steps down."""
    grown = tuple(b + 2 for b in box)
    bad = [("value", w) for w in mon.box_enumerate(grown) if f.value(w) != read(box, table, w)]
    if f.grades() != steps_down(box, table):
        bad.append(("ends", tuple(f.grades())))
    return bad


def refine_with_reference(G):
    """Refine G, and repeat each insertion on the reference's box table.
    Returns the report, every mismatch of a chain with its reference (step,
    grade, kind, where), and the (chain, box, table) of each insertion."""
    insert = refine.insert_refinement
    states = []
    bad = []

    def compared(f, s, H):
        out = insert(f, s, H)
        prev = next(((box, table) for g, box, table in states if g is f), None)
        box, table = reference_insertion(*(prev or (f.box, f.table)), s, H)
        bad.extend((len(states), s, kind, w) for kind, w in chain_mismatches(out, box, table))
        states.append((out, box, table))
        return out

    refine.insert_refinement = compared
    try:
        report = refine.refine_to_fixpoint(G)
    finally:
        refine.insert_refinement = insert
    return report, bad, states
