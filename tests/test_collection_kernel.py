"""The collection kernel against the letter-by-letter collector it replaces.

``multiply``, ``divide`` and ``power`` read the power tables
``PcGroup._powers[k][e]`` (x -> x * g_k^e) once per nonzero letter; the
reference below is the old collector, one cached ``_mult_gen`` call per
single step keyed on (x, k), with ``power`` starting from the identity.
Also here: the table bound, each table entry against its e single steps,
the argument checks, and the zero sections of ``lie.CosetBasis``.
"""

import functools
import random

import numpy as np
import pytest

from filterlab import refine
from filterlab.lie import CosetBasis
from filterlab.pcgroup import (
    PcgError,
    depth,
    parse_pcg_file,
    parse_pcgroup,
    sift,
    subgroup_from_gens,
)

from conftest import CORPUS, corpus_paths, perfbench_workloads

workloads = perfbench_workloads()


class _LetterCollector:
    """The old kernel: every letter is one ``mult_gen`` call with an (x, k)
    key, and ``power`` makes e multiplies from the identity."""

    def __init__(self, G):
        self.G = G
        self.cache = {}

    def mult_gen(self, x, k):
        key = (x, k)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        G = self.G
        if all(x[m] == 0 for m in range(k, G.n)):
            e = x[k - 1] + 1
            if e < G.p:
                res = x[: k - 1] + (e,) + x[k:]
            else:
                base = x[: k - 1] + (0,) + x[k:]
                res = self.mult_word(base, G.pow_words.get(k, ()))
        else:
            acc = self.mult_gen(x[:k] + (0,) * (G.n - k), k)
            for m in range(k + 1, G.n + 1):
                comm = G.comm_words.get((m, k), ())
                for _ in range(x[m - 1]):
                    acc = self.mult_gen(acc, m)
                    if comm:
                        acc = self.mult_word(acc, comm)
            res = acc
        self.cache[key] = res
        return res

    def mult_word(self, x, w):
        for k, e in w:
            if e >= 0:
                for _ in range(e):
                    x = self.mult_gen(x, k)
            else:
                gi = self.inverse(self.G.generator(k))
                for _ in range(-e):
                    x = self.multiply(x, gi)
        return x

    def multiply(self, x, y):
        for k in range(1, self.G.n + 1):
            for _ in range(y[k - 1]):
                x = self.mult_gen(x, k)
        return x

    def divide(self, a, b):
        y = []
        for k in range(1, self.G.n + 1):
            e = (b[k - 1] - a[k - 1]) % self.G.p
            for _ in range(e):
                a = self.mult_gen(a, k)
            y.append(e)
        return tuple(y)

    def inverse(self, x):
        return self.divide(x, self.G.identity)

    def power(self, x, e):
        if e < 0:
            return self.power(self.inverse(x), -e)
        acc = self.G.identity
        for _ in range(e):
            acc = self.multiply(acc, x)
        return acc


SMALL = [p for p in corpus_paths() if parse_pcg_file(p).order <= 64]
LARGE = [p for p in corpus_paths() if parse_pcg_file(p).order > 64]

# Inconsistent presentations, parsed as ``verify`` parses them (check=False):
# the one of tests/test_cli.py::test_verify_inconsistent_relations and two
# with p > 2, the second with relation exponents of p or more.
INCONSISTENT = {
    "incoherent": "p 2\nn 4\ncomm 2 1 = g3\ncomm 3 2 = g4\n",
    "incoherent3": "p 3\nn 3\npow 1 = g2\ncomm 2 1 = g3\n",
    "incoherent5": "p 5\nn 3\npow 1 = g2^7 g3^3\ncomm 2 1 = g3^9\n",
}
# Every pair is met in these: the small corpus groups, the inconsistent
# presentations, and h125, where p = 5 and so e runs up to 4.
FULL = {
    **{p.stem: lambda p=p: parse_pcg_file(p) for p in SMALL},
    **{
        name: lambda name=name, text=text: parse_pcgroup(text, name, check=False)
        for name, text in INCONSISTENT.items()
    },
    "h125": lambda: parse_pcg_file(CORPUS / "basic" / "h125.pcg"),
}


def _check_pair(G, ref, a, b):
    assert G.multiply(a, b) == ref.multiply(a, b), (G.name, a, b)
    assert G.divide(a, b) == ref.divide(a, b), (G.name, a, b)
    want = ref.divide(ref.multiply(b, a), ref.multiply(a, b))
    assert G.commutator(a, b) == want, (G.name, a, b)


def _check_powers(G, ref, x):
    for e in range(-G.p, 2 * G.p + 1):
        assert G.power(x, e) == ref.power(x, e), (G.name, x, e)


def _check_tables(G):
    """Every (k, e) table: at most |G| entries, keyed by normal forms; the
    e = 1 table is ``_mult_cache[k]`` and agrees with the reference, and
    each e >= 2 entry is e single steps through it."""
    ref = _LetterCollector(G)
    assert len(G._mult_cache) == len(G._powers) == G.n + 1
    for k in range(1, G.n + 1):
        row = G._powers[k]
        assert len(row) == G.p and row[0] is None and row[1] is G._mult_cache[k]
        for e in range(1, G.p):
            assert len(row[e]) <= G.order, (G.name, k, e, len(row[e]))
            for x, z in row[e].items():
                assert len(x) == G.n and all(0 <= c < G.p for c in x), (G.name, k, e, x)
                if e == 1:
                    want = ref.mult_gen(x, k)
                else:
                    want = x
                    for _ in range(e):
                        want = G._mult_cache[k][want]
                assert z == want, (G.name, k, e, x)


@functools.lru_cache(maxsize=None)
def _full_pass(name):
    """A fresh copy of the group ``FULL[name]`` after the kernel has met
    every pair and every power."""
    G = FULL[name]()
    assert bool(G.consistency_violations()) == (name in INCONSISTENT)
    ref = _LetterCollector(G)
    elems = list(G.elements())
    for a in elems:
        for b in elems:
            _check_pair(G, ref, a, b)
        _check_powers(G, ref, a)
    return G


@pytest.mark.parametrize("name", FULL)
def test_kernel_matches_letter_collector_on_every_pair(name):
    G = _full_pass(name)
    for x in G.elements():
        # the lemma power() starts from: identity * x = x for a normal form
        assert G.multiply(G.identity, x) == x


@pytest.mark.parametrize("name", FULL)
def test_each_table_holds_at_most_the_group_order(name):
    G = _full_pass(name)
    _check_tables(G)
    assert all(G._mult_cache[1:]), "a full pass fills every generator's table"
    assert all(G._powers[k][G.p - 1] for k in range(1, G.n + 1)), "and every power table"


def _cases(paths):
    """Builders of the given corpus groups and of the benchmark's ladder products."""
    return [pytest.param(lambda p=p: parse_pcg_file(p), id=p.stem) for p in paths] + [
        pytest.param(lambda f=factors: workloads.build_product(f), id=name)
        for name, factors in workloads.LADDER
    ]


@pytest.mark.parametrize("build", _cases(LARGE))
def test_kernel_matches_letter_collector_on_sampled_pairs(build):
    G = build()
    ref = _LetterCollector(G)
    rng = random.Random(13)

    def draw():
        return tuple(rng.randrange(G.p) for _ in range(G.n))

    for _ in range(400):
        _check_pair(G, ref, draw(), draw())
    for _ in range(20):
        _check_powers(G, ref, draw())
    _check_tables(G)


@pytest.mark.parametrize("e", [-3, -1, 0, 1, 2, 5])
def test_wrong_length_arguments_raise(d8, e):
    short, good = (0, 0), d8.identity
    with pytest.raises(PcgError):
        d8.power(short, e)
    for args in ((short, good), (good, short), (good + (0,), good)):
        for op in (d8.multiply, d8.divide, d8.commutator, d8.conjugate):
            with pytest.raises(PcgError):
                op(*args)
    for op in (d8.inverse, lambda x: sift(d8, {}, x)):
        with pytest.raises(PcgError):
            op(short)


def test_negative_entries_of_y_take_no_steps(d8):
    # y must be a normal form; an entry below 0 is skipped as it was by the
    # letter-by-letter collector, not walked down forever, and reads no
    # table (index -1 would be the last power table); an entry of p or
    # more is walked as that many single steps
    x = d8.generator(2)
    assert d8.multiply(x, (-1,) + (0,) * (d8.n - 1)) == x
    assert d8.multiply(x, (-1,) + (0,) * (d8.n - 2) + (1,)) == _LetterCollector(d8).multiply(
        x, (-1,) + (0,) * (d8.n - 2) + (1,)
    )
    h27 = parse_pcg_file(CORPUS / "basic" / "h27.pcg")
    ref = _LetterCollector(h27)
    g2 = h27.generator(2)
    assert h27.multiply(g2, (4, 0, 0)) == h27.multiply(g2, (1, 0, 0))
    for y in [(-1, 0, 0), (0, -1, 0), (-2, -1, 1), (0, 0, -1), (4, 0, 0), (3, 5, 0), (2, 7, 3)]:
        for a in (h27.identity, g2, (2, 1, 2)):
            assert h27.multiply(a, y) == ref.multiply(a, y), (a, y)
    for a in h27.elements():
        _check_pair(h27, ref, a, (2, 2, 2))
    _check_tables(h27)


# -- zero sections of CosetBasis -----------------------------------------------------


def _slow_zero_basis(H, N):
    """A test-local copy of the general GF(p) build of CosetBasis:
    containment loop for the representatives, then every igs member of N
    sifted and tagged."""
    G = H.group
    cb = object.__new__(CosetBasis)
    cb.group, cb.p, cb.H, cb.N = G, G.p, H, N
    assert N.is_subset(H)
    reps, cur = [], N
    for h in H.igs:
        if not cur.contains(h):
            reps.append(h)
            cur = cur.join(subgroup_from_gens(G, [h]))
    cb.reps = reps
    cb.dim = len(reps)
    cb._by_depth, cb._vecs = {}, {}
    for x in N.igs:
        steps = []
        r = sift(G, cb._by_depth, x, steps)
        v = (np.zeros(cb.dim, dtype=np.int64) - cb._combine(steps)) % G.p
        if r != G.identity:
            cb._by_depth[depth(r)] = r
            cb._vecs[depth(r)] = v
    return cb


@pytest.mark.parametrize("build", _cases(corpus_paths()))
def test_zero_sections_match_the_general_build(build):
    """The zero section H/H on every value H of the refined filter, as
    ``graded_module`` builds it where a layering does not step: H's depth
    map, zero-length coordinates, and a raise outside H."""
    G = build()
    f = refine.refine_to_fixpoint(G, group_id=G.name).final
    rng = random.Random(13)
    for H in dict.fromkeys(f.value(m) for m in f.grades()):
        fast, slow = CosetBasis(H, H), _slow_zero_basis(H, H)
        assert fast.dim == slow.dim == 0
        assert fast._by_depth == slow._by_depth == H._by_depth
        assert {d: v.shape for d, v in fast._vecs.items()} == {
            d: v.shape for d, v in slow._vecs.items()
        }
        members = H.elements() if H.order <= 243 else [H.random_element(rng) for _ in range(50)]
        for y in members:
            assert np.array_equal(fast.coords(y), slow.coords(y))
        for g in G.generators():
            if not H.contains(g):
                for cb in (fast, slow):
                    with pytest.raises(ValueError):
                        cb.coords(g)
                break
