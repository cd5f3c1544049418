#!/usr/bin/env python3
"""Construct and verify the shipped .pcg corpus.

Writes hand-checked presentations for every group of order 16 and 81 (14 and
15 isomorphism classes), a handful of basic groups over p = 2, 3, 5, 7, and
direct products.  Each presentation must pass the consistency check, and the
order-16/81 sets must have pairwise distinct isomorphism fingerprints: since
the class counts 14 and 15 are known, distinct fingerprints prove the sets
are complete systems of representatives.

Run from the repository root:  python scripts/build_corpus.py
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from filterlab import oracle, series
from filterlab.lie import dual_abelian
from filterlab.pcgroup import (
    PcGroup,
    PcgError,
    comm_subgroup,
    full_subgroup,
    parse_pcgroup,
    subgroup_from_gens,
    trivial_subgroup,
)

CORPUS = ROOT / "corpus"


def fingerprint(G: PcGroup):
    """Isomorphism-invariant tuple strong enough to separate the corpus."""
    T = oracle.cayley_from_pc(G)
    # element order statistics
    orders = Counter()
    for i in range(T.order):
        k, x = 1, i
        while x != T.identity:
            x = T.mult(x, i)
            k += 1
        orders[k] += 1
    # conjugacy class sizes
    seen = set()
    class_sizes = Counter()
    for i in range(T.order):
        if i in seen:
            continue
        orbit = set(T.table[T.table[T.inv, i], np.arange(T.order)].tolist())
        seen |= orbit
        class_sizes[len(orbit)] += 1
    gamma, zeta = oracle.brute_series(T)
    full = full_subgroup(G)
    trivial = trivial_subgroup(G)
    derived = comm_subgroup(full, full)
    ab = tuple(dual_abelian(full, derived).invariants)
    center = subgroup_from_gens(
        G, [T.labels[i] for i in oracle.brute_center_mod(T, frozenset({T.identity}))]
    )
    center_type = tuple(dual_abelian(center, trivial).invariants)
    # honest G^p: p-th powers of every element (igs powers alone miss the
    # Hall-Petrescu correction terms in class >= 3)
    powers = subgroup_from_gens(
        G, [T.labels[_table_power(T, i, G.p)] for i in range(T.order)]
    )
    derived_meet_powers = derived.meet(powers).order
    return (
        G.order,
        tuple(sorted(orders.items())),
        tuple(sorted(class_sizes.items())),
        tuple(len(s) for s in gamma),
        tuple(len(s) for s in zeta),
        ab,
        center_type,
        powers.order,
        derived_meet_powers,
    )


def _table_power(T, i, e):
    x = T.identity
    for _ in range(e):
        x = T.mult(x, i)
    return x


ORDER16 = {
    # name: presentation body (p/n lines added automatically)
    "g16_01_c16": "pow 1 = g2\npow 2 = g3\npow 3 = g4",
    "g16_02_c4xc4": "pow 1 = g3\npow 2 = g4",
    "g16_03_c2sq_rtimes_c4": "pow 1 = g3\ncomm 2 1 = g4",
    "g16_04_c4_rtimes_c4": "pow 1 = g4\npow 2 = g3\ncomm 2 1 = g3",
    "g16_05_c8xc2": "pow 1 = g2\npow 2 = g3",
    "g16_06_m4_2": "pow 2 = g3\npow 3 = g4\ncomm 2 1 = g4",
    "g16_07_d16": "pow 2 = g3\npow 3 = g4\ncomm 2 1 = g3 g4\ncomm 3 1 = g4",
    "g16_08_sd16": "pow 2 = g3\npow 3 = g4\ncomm 2 1 = g3\ncomm 3 1 = g4",
    "g16_09_q16": "pow 1 = g4\npow 2 = g3\npow 3 = g4\ncomm 2 1 = g3 g4\ncomm 3 1 = g4",
    "g16_10_c4xc2xc2": "pow 1 = g2",
    "g16_11_d8xc2": "pow 2 = g3\ncomm 2 1 = g3",
    "g16_12_q8xc2": "pow 1 = g3\npow 2 = g3\ncomm 2 1 = g3",
    "g16_13_pauli": "pow 2 = g4\npow 3 = g4\ncomm 2 1 = g4",
    "g16_14_c2_4": "",
}

ORDER81_FIXED = {
    "g81_01_c81": "pow 1 = g2\npow 2 = g3\npow 3 = g4",
    "g81_02_c27xc3": "pow 1 = g2\npow 2 = g3",
    "g81_03_c9xc9": "pow 1 = g3\npow 2 = g4",
    "g81_04_c9xc3xc3": "pow 1 = g2",
    "g81_05_c3_4": "",
    "g81_06_h27xc3": "comm 2 1 = g3",
    "g81_07_m27xc3": "pow 2 = g3\ncomm 2 1 = g3",
    "g81_08_h27_on_a9": "pow 2 = g3\ncomm 2 1 = g4",           # [a,b] = c central, a of order 9
    "g81_09_c9_rtimes_c9": "pow 1 = g4\npow 2 = g3\ncomm 2 1 = g3",
    "g81_10_m81": "pow 2 = g3\npow 3 = g4\ncomm 2 1 = g4",
    "g81_11_h27_circ_c9": "pow 3 = g4\ncomm 2 1 = g4",          # central product H27 * C9
}

BASICS = {
    "c2": ("p 2\nn 1\n"),
    "c3": ("p 3\nn 1\n"),
    "c4": ("p 2\nn 2\npow 1 = g2\n"),
    "c9": ("p 3\nn 2\npow 1 = g2\n"),
    "c2_3": ("p 2\nn 3\n"),
    "c3_3": ("p 3\nn 3\n"),
    "c5_2": ("p 5\nn 2\n"),
    "c7_2": ("p 7\nn 2\n"),
    "d8": ("p 2\nn 3\npow 2 = g3\ncomm 2 1 = g3\n"),
    "q8": ("p 2\nn 3\npow 1 = g3\npow 2 = g3\ncomm 2 1 = g3\n"),
    "h27": ("p 3\nn 3\ncomm 2 1 = g3\n"),
    "m27": ("p 3\nn 3\npow 2 = g3\ncomm 2 1 = g3\n"),
    "h125": ("p 5\nn 3\ncomm 2 1 = g3\n"),
}


def body_to_source(p: int, n: int, body: str) -> str:
    lines = [f"p {p}", f"n {n}"]
    if body:
        lines.extend(line for line in body.splitlines() if line.strip())
    return "\n".join(lines) + "\n"


def nilpotency_class(G: PcGroup) -> int:
    lc = series.lower_central(G)
    orders = lc.orders()
    return len([o for o in orders[1:] if o > 1])


def find_maximal_class_81():
    """Search pc data for the four maximal-class groups of order 81."""
    found = {}
    words3 = [(), ((4, 1),), ((4, 2),)]
    words2 = [
        tuple(w)
        for w in itertools.chain.from_iterable(
            [[((3, a), (4, b))] for a in range(3) for b in range(3)]
        )
    ]
    words2 = [tuple((k, e) for k, e in w if e) for w in words2]
    for pow1 in words2:
        for pow2 in words2:
            for pow3 in words3:
                for comm32 in words3:
                    pw = {k: w for k, w in ((1, pow1), (2, pow2), (3, pow3)) if w}
                    cw = {
                        (2, 1): ((3, 1),),
                        (3, 1): ((4, 1),),
                    }
                    if comm32:
                        cw[(3, 2)] = comm32
                    try:
                        G = PcGroup(3, 4, pw, cw, check=True)
                    except PcgError:
                        continue
                    if nilpotency_class(G) != 3:
                        continue
                    fp = fingerprint(G)
                    if fp not in found:
                        found[fp] = (pw, cw)
    return found


def write_group(path: Path, source: str, aut_lines: str = ""):
    path.parent.mkdir(parents=True, exist_ok=True)
    text = source
    if aut_lines:
        text += aut_lines
    path.write_text(text)
    G = parse_pcg_check(path)
    return G


def parse_pcg_check(path: Path) -> PcGroup:
    G = parse_pcgroup(path.read_text(), name=path.stem, check=True)
    T = oracle.cayley_from_pc(G)
    bad = T.associativity_violation()
    if bad is not None:
        raise SystemExit(f"{path}: inconsistent table at {bad}")
    return G


def main():
    # order 16
    groups16 = {}
    for name, body in ORDER16.items():
        src = body_to_source(2, 4, body)
        path = CORPUS / "order16" / f"{name}.pcg"
        G = write_group(path, src)
        groups16[name] = fingerprint(G)
    fps = list(groups16.values())
    if len(set(fps)) != 14:
        raise SystemExit(f"order-16 fingerprints not distinct: {len(set(fps))}")
    print(f"order 16: {len(fps)} groups, all fingerprints distinct")

    # order 81: fixed presentations
    groups81 = {}
    for name, body in ORDER81_FIXED.items():
        src = body_to_source(3, 4, body)
        path = CORPUS / "order81" / f"{name}.pcg"
        G = write_group(path, src)
        groups81[name] = fingerprint(G)
    if len(set(groups81.values())) != len(groups81):
        raise SystemExit("order-81 fixed set collides")

    # order 81: the four maximal-class groups by search
    mc = find_maximal_class_81()
    fresh = {
        fp: data for fp, data in mc.items() if fp not in set(groups81.values())
    }
    print(f"maximal-class search: {len(mc)} classes, {len(fresh)} new")
    if len(fresh) != 4:
        raise SystemExit(f"expected 4 maximal-class groups, got {len(fresh)}")
    for idx, (fp, (pw, cw)) in enumerate(sorted(fresh.items()), start=12):
        lines = []
        for i in sorted(pw):
            word = " ".join(f"g{k}" + (f"^{e}" if e != 1 else "") for k, e in pw[i])
            lines.append(f"pow {i} = {word}")
        for (j, i) in sorted(cw):
            word = " ".join(f"g{k}" + (f"^{e}" if e != 1 else "") for k, e in cw[(j, i)])
            lines.append(f"comm {j} {i} = {word}")
        name = f"g81_{idx}_maxclass{idx - 11}"
        src = body_to_source(3, 4, "\n".join(lines))
        path = CORPUS / "order81" / f"{name}.pcg"
        G = write_group(path, src)
        groups81[name] = fingerprint(G)
    if len(set(groups81.values())) != 15:
        raise SystemExit(f"order-81 fingerprints not distinct: {len(set(groups81.values()))}")
    print(f"order 81: {len(groups81)} groups, all fingerprints distinct")

    # basics
    for name, src in BASICS.items():
        path = CORPUS / "basic" / f"{name}.pcg"
        write_group(path, src)
    print(f"basics: {len(BASICS)} groups verified")

    # aut sidecar for d8 (central automorphisms, for the aut subcommand demo;
    # blank lines separate the two maps)
    (CORPUS / "basic" / "d8.aut").write_text(
        "# central automorphisms of d8\n"
        "aut: g1 -> g1 g3\n"
        "\n"
        "aut: g2 -> g2 g3\n"
    )

    # direct products, written as flat presentations
    from filterlab.pcgroup import direct_product

    d8 = parse_pcgroup(BASICS["d8"], name="d8")
    q8 = parse_pcgroup(BASICS["q8"], name="q8")
    c4 = parse_pcgroup(BASICS["c4"], name="c4")
    h27 = parse_pcgroup(BASICS["h27"], name="h27")
    c3 = parse_pcgroup(BASICS["c3"], name="c3")

    def product_source(G: PcGroup) -> str:
        lines = [f"p {G.p}", f"n {G.n}"]
        for i in sorted(G.pow_words):
            w = " ".join(f"g{k}" + (f"^{e}" if e != 1 else "") for k, e in G.pow_words[i])
            lines.append(f"pow {i} = {w}")
        for (j, i) in sorted(G.comm_words):
            w = " ".join(f"g{k}" + (f"^{e}" if e != 1 else "") for k, e in G.comm_words[(j, i)])
            lines.append(f"comm {j} {i} = {w}")
        return "\n".join(lines) + "\n"

    products = {
        "d8xc4": direct_product(d8, c4),
        "d8xq8": direct_product(d8, q8),
        "h27xc3": direct_product(h27, c3),
        "h27xh27": direct_product(h27, h27),
    }
    for name, G in products.items():
        path = CORPUS / "products" / f"{name}.pcg"
        write_group(path, product_source(G))
    print(f"products: {len(products)} groups verified")
    print("corpus complete")


if __name__ == "__main__":
    main()
