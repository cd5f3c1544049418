"""``abelian_invariants`` against a count of element orders in the Cayley table.

For an abelian section A = H/N, Omega_k(A) is the set of classes killed by
p^k, so |Omega_k(A)| = #{x in H : x^(p^k) in N} / |N|.  If A is the sum of
cyclic groups of orders p^(e_i), log_p |Omega_k(A)| = sum_i min(e_i, k), and
the number of factors of order at least p^k is
log_p |Omega_k(A)| - log_p |Omega_(k-1)(A)|.  That is another algorithm
(element orders, not power subgroups) on another engine (the oracle's table,
not sifting).  The sections are (G, G'), (Z(G), 1) and every nontrivial lower
and upper central factor of every corpus group: 254 in all.
"""

import numpy as np
import pytest

from filterlab import oracle, series
from filterlab.pcgroup import comm_subgroup, full_subgroup, parse_pcg_file, trivial_subgroup

from conftest import build_corpus, corpus_paths

abelian_invariants = build_corpus().abelian_invariants


def _sections(G):
    full = full_subgroup(G)
    lc, uc = series.lower_central(G), series.upper_central(G)
    factors = [(lc.value(s), lc.boundary_at(s)) for s in lc.grades() if s != (0,)]
    factors += [(uc.boundary_at(s), uc.value(s)) for s in uc.grades()]
    return [(full, comm_subgroup(full, full)), (uc.value((1,)), trivial_subgroup(G))] + [
        (H, N) for H, N in factors if H.order > N.order
    ]


def _log(p, n):
    k = 0
    while n > 1:
        n, r = divmod(n, p)
        assert r == 0
        k += 1
    return k


def _table_invariants(T, H, N, p):
    """Invariants of H/N from |Omega_k(H/N)|, counted in the table."""
    in_H, in_N = np.zeros((2, T.order), dtype=bool)
    in_H[[T.index[x] for x in H.elements()]] = True
    in_N[[T.index[x] for x in N.elements()]] = True
    rows = np.arange(T.order)
    to_p = rows
    for _ in range(p - 1):
        to_p = T.table[to_p, rows]  # x -> x^p
    logs = []  # log_p |Omega_k| for k = 0, 1, ... up to log_p |H/N|
    power = rows  # x -> x^(p^k)
    while not logs or p ** logs[-1] < H.order // N.order:
        logs.append(_log(p, int((in_H & in_N[power]).sum()) // N.order))
        power = to_p[power]
    at_least = [b - a for a, b in zip(logs, logs[1:])] + [0]  # factors of order >= p^(k+1)
    return [p ** (j + 1) for j in range(len(at_least) - 1) for _ in range(at_least[j] - at_least[j + 1])]


@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_invariants_match_omega_counts_in_the_table(path):
    G = parse_pcg_file(path)
    T = oracle.cayley_from_pc(G)
    for H, N in _sections(G):
        assert abelian_invariants(H, N) == _table_invariants(T, H, N, G.p)


def test_section_count():
    assert sum(len(_sections(parse_pcg_file(p))) for p in corpus_paths()) == 254
