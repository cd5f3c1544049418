"""The array oracle against the set-based routines it replaced.

``TableGroup.comm_table``, ``closure``, ``brute_comm_set``, ``brute_series``
and ``brute_center_mod`` are whole-array operations on the Cayley table.
``SetOracle`` below keeps the earlier per-pair loops over index sets as the
reference; both must give the same sets on every corpus group of order at
most 243 and on the smoke ladder product."""

import functools

import numpy as np
import pytest

from filterlab import oracle
from filterlab.pcgroup import parse_pcg_file

from conftest import corpus_paths, perfbench_workloads

MAX_ORDER = 243


def _groups():
    groups = {p.stem: parse_pcg_file(p) for p in corpus_paths()}
    wl = perfbench_workloads()
    groups.update((name, wl.build_product(factors)) for name, factors in wl.LADDER_SMOKE)
    return {name: G for name, G in groups.items() if G.order <= MAX_ORDER}


GROUPS = _groups()


class SetOracle:
    """The set-based table routines: one lookup per commutator, closures and
    centres over Python sets of indices."""

    def __init__(self, T):
        self.identity = T.identity
        self.order = T.order
        self.t = T.table.tolist()
        self.inv = [row.index(T.identity) for row in self.t]

    def comm(self, i, j):
        t = self.t
        return t[t[t[self.inv[i]][self.inv[j]]][i]][j]

    def closure(self, seed):
        have = {self.identity} | set(int(s) for s in seed)
        frontier = list(have)
        while frontier:
            new = {self.t[x][y] for x in have for y in frontier}
            new |= {self.t[y][x] for x in have for y in frontier}
            new -= have
            have |= new
            frontier = list(new)
        return frozenset(have)

    def comm_set(self, left, right):
        return self.closure({self.comm(x, y) for x in left for y in right})

    def center_mod(self, modulus):
        return frozenset(
            x
            for x in range(self.order)
            if all(self.comm(x, g) in modulus for g in range(self.order))
        )

    def series(self):
        whole = frozenset(range(self.order))
        gamma = [whole]
        while True:
            nxt = self.comm_set(whole, gamma[-1])
            if nxt == gamma[-1]:
                break
            gamma.append(nxt)
            if len(nxt) == 1:
                break
        zeta = [frozenset({self.identity})]
        while True:
            cur = zeta[-1]
            nxt = frozenset(
                x
                for x in range(self.order)
                if all(self.comm(x, g) in cur for g in range(self.order))
            )
            if nxt == cur:
                break
            zeta.append(nxt)
            if len(nxt) == self.order:
                break
        return gamma, zeta


@functools.lru_cache(maxsize=None)
def _tables(name):
    T = oracle.cayley_from_pc(GROUPS[name])
    ref = SetOracle(T)
    return T, ref, ref.series()


names = pytest.mark.parametrize("name", sorted(GROUPS))


@names
def test_comm_table_and_inverses_match_per_pair_lookups(name):
    T, ref, _ = _tables(name)
    assert T.inv.tolist() == ref.inv
    n = T.order
    assert T.comm_table.tolist() == [[ref.comm(i, j) for j in range(n)] for i in range(n)]


@names
def test_brute_series_matches_set_loops(name):
    T, _, (gamma, zeta) = _tables(name)
    assert oracle.brute_series(T) == (gamma, zeta)


@names
def test_brute_center_mod_matches_set_loop_on_every_series_term(name):
    T, ref, (gamma, zeta) = _tables(name)
    for modulus in gamma + zeta:
        assert oracle.brute_center_mod(T, modulus) == ref.center_mod(modulus)


@names
def test_brute_comm_set_matches_set_loop(name):
    T, ref, (gamma, zeta) = _tables(name)
    whole = frozenset(range(T.order))
    for g in gamma:
        assert oracle.brute_comm_set(T, whole, g) == ref.comm_set(whole, g)
    for z in zeta:
        assert oracle.brute_comm_set(T, z, whole) == ref.comm_set(z, whole)


@names
def test_closure_matches_set_loop(name):
    T, ref, _ = _tables(name)
    G = GROUPS[name]
    seeds = [{T.index[G.generator(k)]} for k in range(1, G.n + 1)]
    rng = np.random.default_rng(5)
    seeds += [set(rng.integers(0, T.order, 1 + k % 3).tolist()) for k in range(5)]
    for seed in seeds:
        assert T.closure(seed) == ref.closure(seed), seed


def test_table_row_without_identity_is_named():
    with pytest.raises(ValueError, match="row 1"):
        oracle.TableGroup(2, np.array([[0, 1], [1, 1]]), [(0,), (1,)])
