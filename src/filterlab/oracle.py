"""Brute-force Cayley-table engine used as ground truth for pc computations.

The table is built column by column: column of element y = column of y's
parent (last pc letter removed) composed with one generator column, so only
n * p^n collections are needed.  Series and subgroup computations on the
table are whole-array operations: boolean membership masks over the table and
its commutator table, fully independent of the igs machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from .pcgroup import Elem, PcGroup

ORDER_CAP = 2 ** 12


class TableGroup:
    def __init__(self, order: int, table: np.ndarray, labels: List[Elem]):
        self.order = order
        self.table = table
        self.labels = labels
        self.index: Dict[Elem, int] = {x: i for i, x in enumerate(labels)}
        self.identity = self.index[labels[0]] if labels else 0
        is_id = table == self.identity
        missing = np.flatnonzero(~is_id.any(axis=1))
        if missing.size:
            raise ValueError(f"table row {int(missing[0])} has no identity")
        self.inv = inv = is_id.argmax(axis=1)
        # comm_table[i, j] = [x_i, x_j] = x_i^-1 x_j^-1 x_i x_j
        rows = np.arange(order)
        self.comm_table = table[table[table[np.ix_(inv, inv)], rows[:, None]], rows]

    def mult(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def closure(self, seed) -> FrozenSet[int]:
        """Subgroup of the table generated by an iterable of indices: products
        cur x frontier and frontier x cur until nothing new appears."""
        t = self.table
        have = _mask(self.order, seed)
        have[self.identity] = True
        frontier = np.flatnonzero(have)
        while frontier.size:
            cur = np.flatnonzero(have)
            prods = np.concatenate((t[np.ix_(cur, frontier)].ravel(), t[np.ix_(frontier, cur)].ravel()))
            frontier = np.unique(prods[~have[prods]])
            have[frontier] = True
        return frozenset(np.flatnonzero(have).tolist())

    def associativity_violation(self):
        """A triple (i, j, k) with (x_i x_j) x_k != x_i (x_j x_k), or None.

        Light's test: it checks (x a) y = x (a y) for all x, y and every a in
        A, where A is the identity, the pc generators (the unit exponent
        vectors among ``labels``) and every element outside their
        ``closure``; for a table from ``cayley_from_pc`` there are none.

        Proof that this decides associativity.  Let S be the set of a with
        (x a) y = x (a y) for all x, y.  S is closed under products: for a, b
        in S, (x (a b)) y = ((x a) b) y = (x a) (b y) = x (a (b y)) =
        x ((a b) y), using a, b, a and b in S in turn (the last for
        (a b) y = a (b y)).  So S contains the closure of A, which contains
        A and the closure of the generators, so it is the whole table.
        """
        t = self.table
        n_gens = len(self.labels[0]) if self.labels else 0
        units = (tuple(int(k == i) for k in range(n_gens)) for i in range(n_gens))
        gens = [self.index[u] for u in units if u in self.index]
        outside = np.ones(self.order, dtype=bool)
        outside[list(self.closure(gens))] = False
        for a in [self.identity] + gens + np.flatnonzero(outside).tolist():
            left = t[t[:, a]]  # (x, y) -> (x a) y
            right = t[:, t[a]]  # (x, y) -> x (a y)
            if not np.array_equal(left, right):
                x, y = np.argwhere(left != right)[0]
                return int(x), a, int(y)
        return None


def cayley_from_pc(G: PcGroup) -> TableGroup:
    """Full multiplication table from collection; |G| <= ORDER_CAP."""
    if G.order > ORDER_CAP:
        raise ValueError(f"order {G.order} exceeds oracle cap {ORDER_CAP}")
    labels = list(G.elements())
    index = {x: i for i, x in enumerate(labels)}
    n, p = G.n, G.p
    order = G.order
    table = np.zeros((order, order), dtype=np.int64)
    # generator columns by collection, the rest by column composition
    gen_cols = {}
    for k in range(1, n + 1):
        col = np.empty(order, dtype=np.int64)
        for i, x in enumerate(labels):
            col[i] = index[G.mult_word(x, ((k, 1),))]
        gen_cols[k] = col
    ident_col = np.arange(order, dtype=np.int64)
    for j, y in enumerate(labels):
        last = None
        for k in range(n, 0, -1):
            if y[k - 1]:
                last = k
                break
        if last is None:
            table[:, j] = ident_col
            continue
        parent = y[: last - 1] + (y[last - 1] - 1,) + y[last:]
        table[:, j] = gen_cols[last][table[:, index[parent]]]
    return TableGroup(order, table, labels)


def _mask(order: int, indices) -> np.ndarray:
    mask = np.zeros(order, dtype=bool)
    mask[np.fromiter(indices, dtype=np.int64)] = True
    return mask


def brute_comm_set(T: TableGroup, left: FrozenSet[int], right: FrozenSet[int]) -> FrozenSet[int]:
    rows, cols = (np.fromiter(s, dtype=np.int64) for s in (left, right))
    return T.closure(np.unique(T.comm_table[np.ix_(rows, cols)]))


def brute_series(T: TableGroup) -> Tuple[List[FrozenSet[int]], List[FrozenSet[int]]]:
    """Lower central chain (gamma_1, gamma_2, ...) and upper chain (zeta^0, ...)."""
    whole = frozenset(range(T.order))
    gamma = [whole]
    while True:
        nxt = brute_comm_set(T, whole, gamma[-1])
        if nxt == gamma[-1]:
            break
        gamma.append(nxt)
        if len(nxt) == 1:
            break
    zeta = [frozenset({T.identity})]
    while True:
        nxt = brute_center_mod(T, zeta[-1])
        if nxt == zeta[-1]:
            break
        zeta.append(nxt)
        if len(nxt) == T.order:
            break
    return gamma, zeta


def brute_center_mod(T: TableGroup, modulus: FrozenSet[int]) -> FrozenSet[int]:
    """Elements x with [x, g] in modulus for every g of the table."""
    inside = _mask(T.order, modulus)
    return frozenset(np.flatnonzero(inside[T.comm_table].all(axis=1)).tolist())


@dataclass
class EquivReport:
    discrepancies: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def add(self, msg: str) -> None:
        self.discrepancies.append(msg)


def check_equiv(G: PcGroup, T: TableGroup) -> EquivReport:
    """Compare pc-engine arithmetic, subgroup ops, and series with the table."""
    from . import series as series_mod
    from .pcgroup import full_subgroup

    rep = EquivReport()
    bad = T.associativity_violation()
    if bad is not None:
        i, j, k = bad
        rep.add(
            f"table not associative at ({T.labels[i]}, {T.labels[j]}, {T.labels[k]})"
        )
        return rep
    if T.labels[T.identity] != G.identity:
        rep.add("identity mismatch")
    for i, x in enumerate(T.labels):
        if T.labels[T.inv[i]] != G.inverse(x):
            rep.add(f"inverse mismatch at {x}")
            break
    # commutators on all pairs for small orders, a fixed sample above
    if T.order <= 128:
        ii, jj = np.divmod(np.arange(T.order * T.order), T.order)
    else:
        rng = np.random.default_rng(1)
        ii, jj = rng.integers(0, T.order, 4000), rng.integers(0, T.order, 4000)
    for i, j, c in zip(ii.tolist(), jj.tolist(), T.comm_table[ii, jj].tolist()):
        if T.labels[c] != G.commutator(T.labels[i], T.labels[j]):
            rep.add(f"commutator mismatch at ({T.labels[i]}, {T.labels[j]})")
            break
    # subgroup machinery vs table closures, series order by order: the
    # derived subgroup is gamma_2 and the centre zeta^1
    gamma_tab, zeta_tab = brute_series(T)
    full = full_subgroup(G)
    if full.order != T.order:
        rep.add(f"full subgroup order {full.order} != {T.order}")
    lc = series_mod.lower_central(G)
    for i, g_set in enumerate(gamma_tab, start=1):
        got = lc.value((i,))
        if frozenset(T.index[x] for x in got.elements()) != g_set:
            rep.add(f"gamma_{i} mismatch")
            break
    uc = series_mod.upper_central(G)
    for i, z_set in enumerate(zeta_tab):
        got = uc.value((i,))
        if frozenset(T.index[x] for x in got.elements()) != z_set:
            rep.add(f"zeta^{i} mismatch")
            break
    return rep
