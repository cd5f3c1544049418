import numpy as np
import pytest

from filterlab import oracle, pcgroup, series
from filterlab.pcgroup import PcGroup, full_subgroup, parse_pcg_file, parse_pcgroup, trivial_subgroup

from conftest import corpus_paths, load


def test_cayley_d8(d8):
    T = oracle.cayley_from_pc(d8)
    assert T.order == 8
    assert T.associativity_violation() is None
    # the two order-4 elements square to the same central involution
    order4 = [i for i in range(8) if T.mult(i, i) != T.identity]
    squares = {T.mult(i, i) for i in order4}
    assert len(order4) == 2 and len(squares) == 1


def test_cayley_c3_and_trivial():
    c3 = parse_pcgroup("p 3\nn 1\n")
    T = oracle.cayley_from_pc(c3)
    assert T.order == 3
    assert T.mult(1, 1) == 2 and T.mult(1, 2) == 0
    triv = parse_pcgroup("p 2\nn 0\n")
    T0 = oracle.cayley_from_pc(triv)
    assert T0.order == 1


def test_cayley_cap(monkeypatch):
    # 2^13 is above ORDER_CAP = 2^12: refused before any element is listed
    big = parse_pcgroup("p 2\nn 13\n")
    monkeypatch.setattr(big, "elements", lambda: pytest.fail("elements listed"))
    with pytest.raises(ValueError, match="order 8192 exceeds oracle cap 4096"):
        oracle.cayley_from_pc(big)


def test_brute_series_examples(d8, h27):
    gam, zet = oracle.brute_series(oracle.cayley_from_pc(d8))
    assert [len(s) for s in gam] == [8, 2, 1]
    assert [len(s) for s in zet] == [1, 2, 8]
    gam, zet = oracle.brute_series(oracle.cayley_from_pc(h27))
    assert [len(s) for s in gam] == [27, 3, 1]
    assert [len(s) for s in zet] == [1, 3, 27]
    ab = parse_pcgroup("p 2\nn 3\n")
    gam, zet = oracle.brute_series(oracle.cayley_from_pc(ab))
    assert [len(s) for s in gam] == [8, 1]
    assert [len(s) for s in zet] == [1, 8]


def test_check_equiv_clean(d8):
    rep = oracle.check_equiv(d8, oracle.cayley_from_pc(d8))
    assert rep.ok, rep.discrepancies


def test_check_equiv_trivial_group():
    # both table chains have one term, which stands for gamma_2 and zeta^1
    triv = parse_pcgroup("p 2\nn 0\n")
    rep = oracle.check_equiv(triv, oracle.cayley_from_pc(triv))
    assert rep.ok, rep.discrepancies


@pytest.mark.parametrize("name", ["d8", "g81_12_maxclass1"])
def test_check_equiv_reports_a_wrong_derived_subgroup(name, monkeypatch):
    """check_equiv reads the derived subgroup as gamma_2 of lower_central:
    a mutant [G, G] = 1 is reported there."""
    G = load(name)
    T = oracle.cayley_from_pc(G)
    original = series.comm_subgroup

    def mutant(H, K):
        full = full_subgroup(G)
        return trivial_subgroup(G) if H == full and K == full else original(H, K)

    monkeypatch.setattr(series, "comm_subgroup", mutant)
    assert oracle.check_equiv(G, T).discrepancies == ["gamma_2 mismatch"]


@pytest.mark.parametrize("name", ["d8", "g81_12_maxclass1"])
def test_check_equiv_reports_a_wrong_centre(name, monkeypatch):
    """check_equiv reads the centre as zeta^1 of upper_central: a mutant
    Z(G) = G is reported there."""
    G = load(name)
    T = oracle.cayley_from_pc(G)
    original = series.centralizer_mod

    def mutant(G_, H, N):
        return full_subgroup(G) if N.order == 1 else original(G_, H, N)

    monkeypatch.setattr(series, "centralizer_mod", mutant)
    assert oracle.check_equiv(G, T).discrepancies == ["zeta^1 mismatch"]


def test_check_equiv_builds_each_centralizer_once(monkeypatch):
    """One check_equiv on g81_12 calls centralizer_mod once per step of the
    upper central series and nowhere else."""
    G = load("g81_12_maxclass1")
    T = oracle.cayley_from_pc(G)
    _, zeta = oracle.brute_series(T)
    calls = []
    original = pcgroup.centralizer_mod

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (pcgroup, series):
        monkeypatch.setattr(module, "centralizer_mod", counting)
    assert oracle.check_equiv(G, T).ok
    assert len(zeta) == 4 and len(calls) == len(zeta) - 1


def test_check_equiv_fault_injection():
    # legal-looking but inconsistent relations: the oracle names a bad product
    bad = PcGroup(
        2,
        4,
        {},
        {(2, 1): ((3, 1),), (3, 2): ((4, 1),)},
        check=False,
    )
    T = oracle.cayley_from_pc(bad)
    rep = oracle.check_equiv(bad, T)
    assert not rep.ok
    assert any("associative" in d or "mismatch" in d for d in rep.discrepancies)


def test_closure_matches_subgroup(d8):
    T = oracle.cayley_from_pc(d8)
    got = T.closure({T.index[d8.generator(3)]})
    assert len(got) == 2
    got = T.closure({T.index[d8.generator(1)], T.index[d8.generator(2)]})
    assert len(got) == 8


# -- Light's associativity test against the full pass ---------------------------


def _full_associativity_violation(T):
    """The n^3 reference: every triple, one right factor k at a time."""
    t = T.table
    for k in range(T.order):
        left = t[t, k]  # (i, j) -> (ij)k
        right = t[:, t[:, k]]  # (i, j) -> i(jk)
        if not np.array_equal(left, right):
            i, j = np.argwhere(left != right)[0]
            return int(i), int(j), k
    return None


@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_light_associativity_matches_full_pass_on_corpus(path):
    T = oracle.cayley_from_pc(parse_pcg_file(path))
    assert T.associativity_violation() is None
    assert _full_associativity_violation(T) is None


def test_light_associativity_matches_full_pass_on_swapped_rows():
    """Two entries of one row swapped.  Every other case relabels the table
    so that no label is a pc generator: then every element lies outside the
    generators' closure and is checked as a middle factor."""
    rng = np.random.default_rng(7)
    small = [p for p in corpus_paths() if parse_pcg_file(p).order <= 81]
    caught = 0
    for case in range(20):
        T = oracle.cayley_from_pc(parse_pcg_file(small[case * 7 % len(small)]))
        table = T.table.copy()
        r = int(rng.integers(T.order))
        c1, c2 = rng.choice(T.order, size=2, replace=False)
        table[r, [c1, c2]] = table[r, [c2, c1]]
        labels = T.labels if case % 2 else [("x", i) for i in range(T.order)]
        S = oracle.TableGroup(T.order, table, labels)
        got, ref = S.associativity_violation(), _full_associativity_violation(S)
        assert (got is None) == (ref is None)
        if got is not None:
            i, j, k = got
            assert table[table[i, j], k] != table[i, table[j, k]]
            caught += 1
    # case 0 swaps row 1 of c2, which leaves the associative x y = y
    assert caught == 19


@pytest.mark.parametrize(
    "table, sub",
    [
        ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 0], [3, 2, 0, 0]], {0, 1}),
        ([[0, 1, 2, 3], [1, 0, 3, 3], [2, 3, 0, 1], [3, 3, 1, 0]], {0, 2}),
    ],
)
def test_light_associativity_checks_every_generator(table, sub):
    """Tables on the labels of C2 x C2 where (x a) y = x (a y) holds for all
    x, y exactly when a lies in ``sub``, the span of one generator: leaving
    the other generator out of the middle factors would miss the fault."""
    T = oracle.TableGroup(4, np.array(table), [(0, 0), (0, 1), (1, 0), (1, 1)])
    i, j, k = T.associativity_violation()
    t = T.table
    assert t[t[i, j], k] != t[i, t[j, k]] and j not in sub
    assert _full_associativity_violation(T) is not None
