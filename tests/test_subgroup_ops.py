"""Differential tests for the per-call subgroup memo, for the refinement
closure's Jacobi sweep over distinct values and the axiom verifiers'
distinct-triple checks, for the depth-by-depth solve (inverse, commutator,
conjugate, collection with negative letters), for the one-commutator
subgroup closure and for the product maps' concatenated factor igs, each
against the per-pair, Gauss-Seidel, word-based or closure code it
replaces."""

import functools
import itertools
import random

import pytest

from filterlab import pcgroup, refine, series
from filterlab import monoid as mon
from filterlab.pcgroup import (
    PcgError,
    Subgroup,
    SubgroupOps,
    comm_subgroup,
    direct_product,
    full_subgroup,
    parse_pcgroup,
    subgroup_from_gens,
    trivial_subgroup,
)
from filterlab.series import Layering, Violation

from conftest import corpus_paths, load


# -- per-pair references ---------------------------------------------------------


def _ref_verify_filter(f):
    out = []
    grades = f.grades()
    for s in grades:
        for t in grades:
            c = comm_subgroup(f.value(s), f.value(t))
            target = f.value(mon.add(s, t))
            if not c.is_subset(target):
                w = next(
                    (
                        f.group.commutator(x, y)
                        for x in f.value(s).igs
                        for y in f.value(t).igs
                        if not target.contains(f.group.commutator(x, y))
                    ),
                    series._containment_witness(c, target),
                )
                out.append(Violation("[phi_s,phi_t] <= phi_{s+t}", s, t, w))
    for s in grades:
        for t in grades:
            if f.monoid.preceq(s, t) and not f.value(t).is_subset(f.value(s)):
                out.append(Violation("s<t but phi_s < phi_t", s, t, None))
    return out


def _ref_verify_layering(l):
    out = []
    grades = l.grades()
    for s in grades:
        for t in grades:
            c = comm_subgroup(l.value(s), l.boundary_at(t))
            if not c.is_subset(l.value(t)):
                w = series._containment_witness(c, l.value(t))
                out.append(Violation("[pi^s, d^t pi] <= pi^t", s, t, w))
    for s in grades:
        for t in grades:
            if l.monoid.preceq(s, t) and not l.value(s).is_subset(l.value(t)):
                out.append(Violation("s<t but pi^s > pi^t", s, t, None))
    return out


def _ref_verify_sift(f, l):
    out = []
    grades = f.grades()
    for s in grades:
        for t in grades:
            c = comm_subgroup(f.value(s), l.value(mon.add(s, t)))
            if not c.is_subset(l.value(t)):
                w = series._containment_witness(c, l.value(t))
                out.append(Violation("[phi_s, pi^{s+t}] <= pi^t", s, t, w))
    return out


def _invert_word(inv_words, w):
    """The inverse of the word w as positive letters, given the inverse words
    of its generators."""
    out = []
    for k, e in reversed(w):
        out.extend(inv_words[k] * e if e >= 0 else ((k, 1),) * -e)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _inverse_words(G):
    """g_k^-1 = g_k^(p-1) w_k^-1 as positive words, w_k the power word of g_k,
    built from the deepest generator up."""
    inv = {}
    for k in range(G.n, 0, -1):
        inv[k] = ((k, G.p - 1),) + _invert_word(inv, G.pow_words.get(k, ()))
    return inv


def _word_inverse(G, x):
    """The inverse rebuilt from the inverse words of the generators."""
    inv = _inverse_words(G)
    acc = G.identity
    for k in range(G.n, 0, -1):
        for _ in range(x[k - 1]):
            acc = G.mult_word(acc, inv[k])
    return acc


# -- fault injection ---------------------------------------------------------------


def _swapped(bm):
    """The table with the values at the first two grades of different value
    swapped, or None if every value is equal."""
    grades = bm.grades()
    for a, b in itertools.combinations(grades, 2):
        if bm.table[a] != bm.table[b]:
            table = dict(bm.table)
            table[a], table[b] = table[b], table[a]
            return type(bm)(bm.group, bm.monoid, bm.box, table)
    return None


def _shrunk(bm):
    """The table with its largest proper value replaced by the subgroup its
    igs tail generates (one generator fewer)."""
    G = bm.group
    grades = [m for m in bm.grades() if 1 < bm.table[m].order < G.order]
    if not grades:
        return None
    m = max(grades, key=lambda g: (bm.table[g].order, g))
    table = dict(bm.table)
    table[m] = subgroup_from_gens(G, bm.table[m].igs[1:])
    return type(bm)(bm.group, bm.monoid, bm.box, table)


def _with_faults(bm):
    return [x for x in (bm, _swapped(bm), _shrunk(bm)) if x is not None]


@functools.lru_cache(maxsize=None)
def _refined_up_to_81():
    out = {}
    for path in corpus_paths():
        G = load(path.stem)
        if G.order <= 81:
            out[path.stem] = refine.refine_to_fixpoint(G, group_id=path.stem).final
    return out


# the ladder products of the benchmark
LADDER = (
    ("g81_12_maxclass1", "c3"),
    ("d8", "q8", "d8"),
    ("h27", "h27"),
    ("h27", "h27", "c3"),
)


@functools.lru_cache(maxsize=None)
def _ladder_group(factors):
    G = load(factors[0])
    for name in factors[1:]:
        G = direct_product(G, load(name))
    return G


@functools.lru_cache(maxsize=None)
def _largest_ladder_filter():
    """The refined filter of the ladder product with the most box grades."""
    finals = [refine.refine_to_fixpoint(_ladder_group(names)).final for names in LADDER]
    return max(finals, key=lambda f: len(f.grades()))


# -- verifiers ---------------------------------------------------------------------


def test_verifiers_match_per_pair_reference_on_corpus_maps(corpus_groups):
    violations = 0
    for name, G in corpus_groups.items():
        lc, ep = series.lower_central(G), series.exponent_p_lcs(G)
        uc = series.upper_central(G)
        for f in _with_faults(lc) + _with_faults(ep):
            got = series.verify_filter(f)
            assert got == _ref_verify_filter(f), name
            violations += len(got)
            for l in _with_faults(uc):
                assert series.verify_sift(f, l) == _ref_verify_sift(f, l), name
        for l in _with_faults(uc):
            got = series.verify_layering(l)
            assert got == _ref_verify_layering(l), name
            violations += len(got)
    assert violations  # the faults were seen


def test_verify_filter_matches_reference_on_refined_lex_filters():
    filters = _refined_up_to_81()
    assert {2, 3} <= {f.monoid.dim for f in filters.values()}
    violations = 0
    for name, f in filters.items():
        for g in _with_faults(f):
            got = series.verify_filter(g)
            assert got == _ref_verify_filter(g), name
            violations += len(got)
    assert violations


POINTWISE_PRODUCTS = LADDER[::2] + (("c4", "c2", "c4"),)


@pytest.mark.parametrize(
    "names", POINTWISE_PRODUCTS, ids=["x".join(f) for f in POINTWISE_PRODUCTS]
)
def test_verifiers_match_reference_on_pointwise_products(names):
    """Pointwise-graded product maps, where s <= t is not the lex order,
    layering boxes that differ from the filter's, and layering boundaries
    that are meets.  On the abelian product every commutator is trivial, so
    a fault shows in the order clause only."""
    G = _ladder_group(names)
    parts = [load(name) for name in names]
    filters = [
        series.product_filter([series.lower_central(H) for H in parts], G),
        series.product_filter([series.exponent_p_lcs(H) for H in parts], G),
    ]
    ul = series.product_layering([series.upper_central(H) for H in parts], G)
    assert any(f.box != ul.box for f in filters)
    violations = 0
    for l in _with_faults(ul):
        got = series.verify_layering(l)
        assert got == _ref_verify_layering(l)
        violations += len(got)
    for f in filters:
        for g in _with_faults(f):
            got = series.verify_filter(g)
            assert got == _ref_verify_filter(g)
            violations += len(got)
            for l in _with_faults(ul):
                got = series.verify_sift(g, l)
                assert got == _ref_verify_sift(g, l)
                violations += len(got)
    assert violations


def _assert_product_maps_are_closures(names):
    """Each product value is the closure of its embedded factor igs."""
    G = _ladder_group(names)
    parts = [load(name) for name in names]
    maps = [
        series.product_filter([series.lower_central(H) for H in parts], G),
        series.product_filter([series.exponent_p_lcs(H) for H in parts], G),
        series.product_layering([series.upper_central(H) for H in parts], G),
    ]
    for bm in maps:
        for m in bm.grades():
            assert subgroup_from_gens(G, bm.value(m).igs) == bm.value(m), (names, m)


@pytest.mark.parametrize("names", LADDER, ids=["x".join(f) for f in LADDER])
def test_product_maps_match_closure_on_ladder(names):
    _assert_product_maps_are_closures(names)


def test_product_maps_match_closure_on_basic_pairs():
    basic = [p.stem for p in corpus_paths() if p.parent.name == "basic"]
    pairs = [(a, b) for a in basic for b in basic if load(a).p == load(b).p]
    assert len(pairs) > 40
    for names in pairs:
        _assert_product_maps_are_closures(names)


def test_verify_filter_computes_each_unordered_pair_once(monkeypatch):
    f = max(_refined_up_to_81().values(), key=lambda f: len(f.grades()))
    values = {f.value(m).igs for m in f.grades()}
    assert len(f.grades()) >= 16 and len(values) < len(f.grades())
    pairs = []
    original = pcgroup.comm_subgroup

    def counting(A, B):
        pairs.append(frozenset((A.igs, B.igs)))
        return original(A, B)

    monkeypatch.setattr(pcgroup, "comm_subgroup", counting)
    assert not series.verify_filter(f)
    assert len(pairs) == len(set(pairs))
    assert len(pairs) <= len(values) * (len(values) + 1) // 2


def test_verify_filter_checks_each_distinct_triple_once(monkeypatch):
    """On the largest refined ladder table, one containment per distinct
    (phi_s, phi_t, phi_{s+t}) and per distinct (phi_s, phi_t) with s <= t."""
    f = _largest_ladder_filter()
    grades = f.grades()
    igs = {m: f.value(m).igs for m in grades}
    triples = {(igs[s], igs[t], f.value(mon.add(s, t)).igs) for s in grades for t in grades}
    pairs = {(igs[s], igs[t]) for s in grades for t in grades if f.monoid.preceq(s, t)}
    assert len(grades) >= 64 and 10 * len(triples) < len(grades) ** 2
    calls = []
    original = SubgroupOps.is_subset

    def counting(self, A, B):
        calls.append((A.igs, B.igs))
        return original(self, A, B)

    monkeypatch.setattr(SubgroupOps, "is_subset", counting)
    assert not series.verify_filter(f)
    assert len(calls) <= len(triples) + len(pairs)


def test_verify_filter_decides_each_distinct_triple_once_on_faults(monkeypatch):
    """On each faulted version of the largest refined ladder table, one
    commutator per distinct (phi_s, phi_t, phi_{s+t}) and one containment
    per distinct triple and per distinct (phi_s, phi_t) with s <= t: the
    violations are listed without a second pass."""
    f = _largest_ladder_filter()
    faulted = _with_faults(f)[1:]
    assert len(f.grades()) >= 64 and len(faulted) == 2
    calls = {"comm": 0, "is_subset": 0}
    for name in calls:
        original = getattr(SubgroupOps, name)

        def counting(self, A, B, name=name, original=original):
            calls[name] += 1
            return original(self, A, B)

        monkeypatch.setattr(SubgroupOps, name, counting)
    for g in faulted:
        grades = g.grades()
        igs = {m: g.value(m).igs for m in grades}
        triples = {(igs[s], igs[t], g.value(mon.add(s, t)).igs) for s in grades for t in grades}
        pairs = {(igs[s], igs[t]) for s in grades for t in grades if g.monoid.preceq(s, t)}
        calls.update(comm=0, is_subset=0)
        assert series.verify_filter(g)
        assert calls["comm"] <= len(triples)
        assert calls["is_subset"] <= len(triples) + len(pairs)


def test_verify_layering_takes_each_boundary_once(corpus_groups, monkeypatch):
    G = corpus_groups["g81_12_maxclass1"]
    uc = series.upper_central(G)
    calls = []
    original = Layering.boundary_at

    def counting(self, s):
        calls.append(s)
        return original(self, s)

    monkeypatch.setattr(Layering, "boundary_at", counting)
    assert not series.verify_layering(uc)
    assert sorted(calls) == uc.grades()


# -- refinement closure ------------------------------------------------------------


def test_closure_puts_seeds_in_as_they_are(monkeypatch):
    """A closed table seeds a closure that joins nothing and keeps every
    seed object."""
    f = _refined_up_to_81()["g16_03_c2sq_rtimes_c4"]
    joins = []
    original = Subgroup.join

    def counting(self, other):
        joins.append((self, other))
        return original(self, other)

    monkeypatch.setattr(Subgroup, "join", counting)
    seeds = dict(f.table)
    table = refine._closure(f.group, f.box, seeds, SubgroupOps(f.group))
    assert not joins
    assert all(table[m] is seeds[m] for m in f.grades())


def _gauss_seidel_closure(G, box, seeds, ops):
    """The closure as it was: the commutator rule over every pair of box
    grades, each join seen by the later pairs of the same sweep, and a
    commutator leaving the box checked against its clamped grade."""
    grades = mon.box_enumerate(box)
    trivial = trivial_subgroup(G)
    table = {m: trivial for m in grades}
    for m, H in seeds.items():
        if mon.in_box(m, box):
            table[m] = H
    changed = True
    while changed:
        changed = False
        desc = sorted(grades, reverse=True)
        for prev, cur in zip(desc, desc[1:]):
            if not ops.is_subset(table[prev], table[cur]):
                table[cur] = ops.join(table[cur], table[prev])
                changed = True
        for u in grades:
            if table[u].order == 1:
                continue
            for v in grades:
                if table[v].order == 1:
                    continue
                w = mon.add(u, v)
                c = ops.comm(table[u], table[v])
                if c.order == 1:
                    continue
                if mon.in_box(w, box):
                    if not ops.is_subset(c, table[w]):
                        table[w] = ops.join(table[w], c)
                        changed = True
                elif not ops.is_subset(c, table[mon.clamp(w, box)]):
                    raise refine.RefinementError(f"closure escapes the box at {w}")
    return table


@pytest.mark.parametrize(
    "names",
    [None] + list(LADDER),
    ids=["corpus<=81"] + ["x".join(f) for f in LADDER],
)
def test_jacobi_closure_matches_gauss_seidel(names, monkeypatch):
    """Every closure of a refinement, and the closure on each insertion's
    box one larger in every coordinate, equals the Gauss-Seidel closure, and
    keeps the seed objects it keeps."""
    jacobi = refine._closure
    insert = refine.insert_refinement
    calls = []

    def compared(G, box, seeds, ops):
        got = jacobi(G, box, seeds, ops)
        want = _gauss_seidel_closure(G, box, seeds, SubgroupOps(G))
        assert got == want, box
        for m, H in seeds.items():
            if mon.in_box(m, box) and want[m] is H:
                assert got[m] is H, m
        calls.append(seeds)
        return got

    def inserted(f, s, H):
        out = insert(f, s, H)
        compared(f.group, tuple(b + 1 for b in out.box), calls[-1], SubgroupOps(f.group))
        return out

    monkeypatch.setattr(refine, "_closure", compared)
    monkeypatch.setattr(refine, "insert_refinement", inserted)
    if names is None:
        groups = [load(p.stem) for p in corpus_paths() if load(p.stem).order <= 81]
    else:
        groups = [_ladder_group(names)]
    for G in groups:
        refine.refine_to_fixpoint(G)
    assert calls


def test_a_commutator_join_runs_another_sweep():
    """A sweep whose commutator pass joins something runs again, even when
    its order pass changed nothing.  In g16_08_sd16, box (2,), the first
    sweep joins [G, g1] = <g3, g4> into grade (1,); only the second finds
    [g3, g1] = g4 for grade (2,)."""
    G = load("g16_08_sd16")
    seeds = {(0,): full_subgroup(G), (1,): subgroup_from_gens(G, [(1, 0, 0, 0)])}
    for closure in (refine._closure, _gauss_seidel_closure):
        assert closure(G, (2,), seeds, SubgroupOps(G))[(2,)].order == 2


def test_insert_refinement_canonicalises_a_hand_built_subgroup():
    G = parse_pcgroup("p 3\nn 2\n", name="c3sq")
    f = series.exponent_p_lcs(G)
    H = subgroup_from_gens(G, [G.generator(1)])
    hand = Subgroup(G, (G.power(G.generator(1), 2),))  # leading exponent 2
    assert hand.igs != H.igs
    assert refine.insert_refinement(f, (1,), hand).table == refine.insert_refinement(f, (1,), H).table


# -- the memo ---------------------------------------------------------------------


def test_subgroup_ops_match_direct_operations(corpus_groups):
    for name in ("d8", "q8", "h27", "g16_11_d8xc2", "g81_08_h27_on_a9"):
        G = corpus_groups[name]
        subs = {G.identity: trivial_subgroup(G)}
        for x in itertools.islice(G.elements(), 1, 40, 3):
            subs[x] = subgroup_from_gens(G, [x])
        subs = list(subs.values()) + [full_subgroup(G)]
        ops = SubgroupOps(G)
        for _ in range(2):  # the second round reads the memo
            for A in subs:
                for B in subs:
                    assert ops.comm(A, B) == comm_subgroup(A, B)
                    assert ops.join(A, B) == A.join(B)
                    assert ops.is_subset(A, B) == A.is_subset(B)


def test_subgroup_ops_store_symmetric_results_once(d8, monkeypatch):
    A, B = subgroup_from_gens(d8, [d8.generator(1)]), subgroup_from_gens(d8, [d8.generator(2)])
    comms, joins = [], []
    comm, join = pcgroup.comm_subgroup, Subgroup.join
    monkeypatch.setattr(pcgroup, "comm_subgroup", lambda X, Y: comms.append(1) or comm(X, Y))
    monkeypatch.setattr(Subgroup, "join", lambda X, Y: joins.append(1) or join(X, Y))
    ops = SubgroupOps(d8)
    assert ops.comm(A, B) == ops.comm(B, A) == subgroup_from_gens(d8, [d8.generator(3)])
    assert ops.join(A, B) == ops.join(B, A) == full_subgroup(d8)
    assert len(comms) == 1 and len(joins) == 1


def test_subgroup_ops_parent_mismatch(d8):
    other = load("q8")
    ops = SubgroupOps(d8)
    with pytest.raises(PcgError):
        ops.comm(full_subgroup(d8), full_subgroup(other))
    with pytest.raises(PcgError):
        ops.is_subset(full_subgroup(other), full_subgroup(other))


# -- inverse ---------------------------------------------------------------------


def test_inverse_matches_word_inverse_on_corpus(corpus_groups):
    for name, G in corpus_groups.items():
        for x in G.elements():
            y = G.inverse(x)
            assert y == _word_inverse(G, x), (name, x)
            assert G.multiply(x, y) == G.identity == G.multiply(y, x)


@pytest.mark.parametrize("factors", LADDER, ids=["x".join(f) for f in LADDER])
def test_inverse_matches_word_inverse_on_ladder(factors):
    G = _ladder_group(factors)
    for x in G.elements():
        assert G.inverse(x) == _word_inverse(G, x), x


# -- the solve: divide, commutator, conjugate ----------------------------------------


def _check_solve(G, a, b, ia, ib):
    """divide, commutator and conjugate at (a, b) against the products of
    the word inverses ia, ib that they replace."""
    q = G.divide(a, b)
    assert q == G.multiply(ia, b), (a, b)
    assert G.multiply(a, q) == b, (a, b)
    assert G.commutator(a, b) == G.multiply(G.multiply(G.multiply(ia, ib), a), b), (a, b)
    assert G.conjugate(a, b) == G.multiply(G.multiply(ib, a), b), (a, b)


def _random_elem(G, rng):
    return tuple(rng.randrange(G.p) for _ in range(G.n))


def test_solve_matches_word_inverse_on_every_pair_up_to_64(corpus_groups):
    seen = 0
    for name, G in corpus_groups.items():
        if G.order > 64:
            continue
        inv = {x: _word_inverse(G, x) for x in G.elements()}
        for a, ia in inv.items():
            for b, ib in inv.items():
                _check_solve(G, a, b, ia, ib)
        seen += 1
    assert seen >= 25


def test_solve_matches_word_inverse_on_sampled_pairs(corpus_groups):
    rng = random.Random(10)
    groups = [G for G in corpus_groups.values() if G.order > 64]
    groups += [_ladder_group(f) for f in LADDER]
    for G in groups:
        for _ in range(400):
            a, b = _random_elem(G, rng), _random_elem(G, rng)
            _check_solve(G, a, b, _word_inverse(G, a), _word_inverse(G, b))


def test_divide_checks_both_arguments(d8):
    with pytest.raises(PcgError):
        d8.divide((1, 0), d8.identity)
    with pytest.raises(PcgError):
        d8.divide(d8.identity, (1, 0))


# -- collection with negative letters --------------------------------------------------


NEGATIVE_PRESENTATIONS = (
    "p 3\nn 3\ncomm 2 1 = g3^-1\n",
    "p 2\nn 3\npow 1 = g3^-1\npow 2 = g3\ncomm 2 1 = g3^-3\n",
    "p 5\nn 3\npow 1 = g3^-2\ncomm 2 1 = g3^-1\n",
)


def _with_negative_letters(G):
    """The same group with every relation letter g_k^e, g_k of order p,
    written as g_k^(e-p)."""
    def neg(w):
        return tuple((k, e - G.p if k not in G.pow_words else e) for k, e in w)

    return pcgroup.PcGroup(
        G.p,
        G.n,
        {i: neg(w) for i, w in G.pow_words.items()},
        {ji: neg(w) for ji, w in G.comm_words.items()},
        name=G.name + "_neg",
    )


def _positive(inv_words, w):
    """w with each negative letter g_k^-e written as e inverse words of g_k."""
    return tuple(
        letter
        for k, e in w
        for letter in (((k, e),) if e >= 0 else inv_words[k] * -e)
    )


def _positive_presentation(G):
    """The same group with every relation word rewritten in positive letters,
    so collecting in it never meets a negative letter."""
    inv = _inverse_words(G)
    return pcgroup.PcGroup(
        G.p,
        G.n,
        {i: _positive(inv, w) for i, w in G.pow_words.items()},
        {ji: _positive(inv, w) for ji, w in G.comm_words.items()},
    )


def test_collect_with_negative_letters_matches_positive_rewrite():
    groups = [parse_pcgroup(text) for text in NEGATIVE_PRESENTATIONS]
    groups += [
        _with_negative_letters(load(name))
        for name in ("g16_09_q16", "g81_12_maxclass1", "g81_08_h27_on_a9", "d8xq8")
    ]
    rng = random.Random(3)
    for G in groups:
        relations = list(G.pow_words.values()) + list(G.comm_words.values())
        assert any(e < 0 for w in relations for _, e in w), G.name
        P = _positive_presentation(G)
        inv = _inverse_words(G)
        for _ in range(200):
            word = tuple(
                (rng.randrange(1, G.n + 1), rng.randrange(-2 * G.p, 2 * G.p))
                for _ in range(rng.randrange(1, 8))
            )
            assert G.collect(word) == P.collect(_positive(inv, word)), (G.name, word)


# -- closure: one commutator per pair ---------------------------------------------------


def _two_commutator_closure(G, gens):
    """subgroup_from_gens queueing both [x, h] and [h, x] for each pair."""
    by_depth = {}
    queue = list(gens)
    while queue:
        x = pcgroup.sift(G, by_depth, queue.pop())
        if x == G.identity:
            continue
        by_depth[pcgroup.depth(x)] = x
        queue.append(G.power(x, G.p))
        for h in list(by_depth.values()):
            if h != x:
                queue += [G.commutator(x, h), G.commutator(h, x)]
    return pcgroup._canonicalize_igs(G, by_depth)


def test_closure_matches_two_commutator_closure(corpus_groups):
    rng = random.Random(11)
    groups = list(corpus_groups.values()) + [_ladder_group(f) for f in LADDER]
    proper = 0
    for G in groups:
        for _ in range(60):
            gens = [_random_elem(G, rng) for _ in range(rng.randrange(1, 4))]
            H = subgroup_from_gens(G, gens)
            assert H.igs == _two_commutator_closure(G, gens), (G.name, gens)
            proper += 1 < H.order < G.order
    assert proper
