"""The collection kernel against the letter-by-letter collector it replaces.

``multiply``, ``divide`` and ``power`` read the per-generator tables
``PcGroup._mult_cache[k]`` inline; the reference below is the old collector,
one cached ``_mult_gen`` call per letter keyed on (x, k), with ``power``
starting from the identity.  Also here: the table bound, the argument
checks, and the zero sections of ``lie.CosetBasis``.
"""

import functools
import random

import numpy as np
import pytest

from filterlab import refine
from filterlab.lie import CosetBasis
from filterlab.pcgroup import PcgError, depth, parse_pcg_file, sift, subgroup_from_gens

from conftest import corpus_paths, perfbench_workloads

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


def _check_pair(G, ref, a, b):
    assert G.multiply(a, b) == ref.multiply(a, b), (G.name, a, b)
    assert G.divide(a, b) == ref.divide(a, b), (G.name, a, b)


def _check_powers(G, ref, x):
    for e in range(-G.p, 2 * G.p + 1):
        assert G.power(x, e) == ref.power(x, e), (G.name, x, e)


def _check_tables(G):
    assert len(G._mult_cache) == G.n + 1
    for k, table in enumerate(G._mult_cache):
        assert len(table) <= G.order, (G.name, k, len(table))
        for x in table:
            assert len(x) == G.n and all(0 <= c < G.p for c in x), (G.name, k, x)


@functools.lru_cache(maxsize=None)
def _full_pass(path):
    """A fresh copy of a group of order <= 64 after the kernel has met every
    pair and every power."""
    G = parse_pcg_file(path)
    ref = _LetterCollector(G)
    elems = list(G.elements())
    for a in elems:
        for b in elems:
            _check_pair(G, ref, a, b)
        _check_powers(G, ref, a)
    return G


@pytest.mark.parametrize("path", SMALL, ids=[p.stem for p in SMALL])
def test_kernel_matches_letter_collector_on_every_pair(path):
    G = _full_pass(path)
    for x in G.elements():
        # the lemma power() starts from: identity * x = x for a normal form
        assert G.multiply(G.identity, x) == x


@pytest.mark.parametrize("path", SMALL, ids=[p.stem for p in SMALL])
def test_each_table_holds_at_most_the_group_order(path):
    G = _full_pass(path)
    _check_tables(G)
    assert all(G._mult_cache[1:]), "a full pass fills every generator's table"


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
        with pytest.raises(PcgError):
            d8.multiply(*args)
        with pytest.raises(PcgError):
            d8.divide(*args)



def test_negative_entries_of_y_take_no_steps(d8):
    # y must be a normal form; an entry below 0 is skipped as it was by the
    # letter-by-letter collector, not walked down forever
    x = d8.generator(2)
    assert d8.multiply(x, (-1,) + (0,) * (d8.n - 1)) == x
    assert d8.multiply(x, (-1,) + (0,) * (d8.n - 2) + (1,)) == _LetterCollector(d8).multiply(
        x, (-1,) + (0,) * (d8.n - 2) + (1,)
    )

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
