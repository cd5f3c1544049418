"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and time budgets are pinned here and nowhere else.
"""

import itertools
import json
import time

import numpy as np
import pytest

from filterlab import census, lie, oracle, scalars, series
from filterlab.autfilter import central_automorphisms, delta_layer_dims, delta_membership, induced_derivation, check_derivation_law
from filterlab.lie import NonElementaryAbelianError, graded_lie_ring, graded_module
from filterlab.pcgroup import parse_pcg_file

from conftest import CORPUS, aut_inverse, corpus_paths

ORACLE_CAP = 2 ** 10


def _announce(number: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {detail}"


def all_groups():
    return [(p.stem, parse_pcg_file(p)) for p in corpus_paths()]


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    bad = []
    for name, G in all_groups():
        if G.order > ORACLE_CAP:
            continue
        T = oracle.cayley_from_pc(G)
        rep = oracle.check_equiv(G, T)
        if not rep.ok:
            bad.append((name, rep.discrepancies[:1]))
    elapsed = time.monotonic() - t0
    _announce(
        1,
        not bad and elapsed < 60.0,
        f"(all corpus groups agree with the Cayley oracle; {elapsed:.1f}s < 60s)"
        if not bad
        else f"discrepancies: {bad}",
    )


def test_criterion_2_axiom_suites():
    bad = []
    for name, G in all_groups():
        lc = series.lower_central(G)
        uc = series.upper_central(G)
        ep = series.exponent_p_lcs(G)
        for label, violations in (
            ("filter(gamma)", series.verify_filter(lc)),
            ("filter(eta)", series.verify_filter(ep)),
            ("layering(zeta)", series.verify_layering(uc)),
            ("sift(gamma,zeta)", series.verify_sift(lc, uc)),
            ("sift(eta,zeta)", series.verify_sift(ep, uc)),
        ):
            if violations:
                bad.append((name, label, str(violations[0])))
    _announce(
        2,
        not bad,
        "(filter, layering, and sift axioms hold on every corpus group)"
        if not bad
        else f"violations: {bad[:3]}",
    )


def test_criterion_3_lie_laws():
    t0 = time.monotonic()
    bad = []
    matrix_pairs = 0
    for name, G in all_groups():
        ep = series.exponent_p_lcs(G)
        uc = series.upper_central(G)
        L = graded_lie_ring(ep)
        if lie.check_jacobi(L) or lie.check_alternating(L):
            bad.append((name, "ring laws"))
        try:
            M = graded_module(ep, uc, L)
            matrix_pairs += 1
            if lie.check_module_law(L, M):
                bad.append((name, "matrix module law"))
        except NonElementaryAbelianError:
            pass  # integral mode covers these groups
        lc = series.lower_central(G)
        if lie.check_module_law_integral(lc, uc, trials=500):
            bad.append((name, "integral module law"))
    elapsed = time.monotonic() - t0
    _announce(
        3,
        not bad and elapsed < 120.0,
        f"(Jacobi, alternating, and module laws hold; {matrix_pairs} matrix-mode pairs; "
        f"{elapsed:.1f}s < 120s)"
        if not bad
        else f"violations: {bad[:3]}",
    )


def test_criterion_4_automorphism_suite():
    bad = []
    for name in ("d8", "h27"):
        G = parse_pcg_file(next(CORPUS.glob(f"**/{name}.pcg")))
        f = series.exponent_p_lcs(G)
        gens = central_automorphisms(G)
        if not gens:
            bad.append((name, "no central automorphisms"))
            continue
        s = (1,)
        for a in gens:
            if not delta_membership(a, f, s):
                bad.append((name, "membership at grade 1"))
            if not delta_membership(aut_inverse(a), f, s):
                bad.append((name, "inverse law"))
            for b in gens:
                if not delta_membership(a.compose(b), f, s):
                    bad.append((name, "composition law"))
        rep = delta_layer_dims(gens, f)
        if rep.pair_violations:
            bad.append((name, rep.pair_violations[0]))
        L = graded_lie_ring(f)
        for a in gens:
            D = induced_derivation(a, s, L)
            errs = check_derivation_law(L, D, s)
            if errs:
                bad.append((name, errs[0]))
    _announce(
        4,
        not bad,
        "(Delta subgroup law, Hall-Witt containment, and derivation law hold "
        "for the central generator sets of D8 and H27)"
        if not bad
        else f"violations: {bad[:3]}",
    )


def test_criterion_5_scalar_ring_dims():
    # brute-force oracle first: exhaustive solution counts over GF(3)
    t = np.zeros((2, 2, 1), dtype=np.int64)
    t[0, 1, 0], t[1, 0, 0] = 1, 2
    b = scalars.Bimap(3, t)
    T = b.tensor
    basU = np.eye(2, dtype=np.int64)

    def der_ok(F, G, H):
        for u in basU:
            for v in basU:
                lhs = (
                    np.einsum("a,b,abc->c", u @ F % 3, v, T)
                    + np.einsum("a,b,abc->c", u, v @ G % 3, T)
                ) % 3
                if not np.array_equal(lhs, (np.einsum("a,b,abc->c", u, v, T) @ H) % 3):
                    return False
        return True

    der_count = 0
    mats = [np.array(fv, dtype=np.int64).reshape(2, 2)
            for fv in itertools.product(range(3), repeat=4)]
    for F in mats:
        for G in mats:
            for hv in range(3):
                if der_ok(F, G, np.array([[hv]])):
                    der_count += 1

    mid_count = 0
    for F in mats:
        for G in mats:
            ok = all(
                np.array_equal(
                    np.einsum("a,b,abc->c", u @ F % 3, v, T) % 3,
                    np.einsum("a,b,abc->c", u, v @ G % 3, T) % 3,
                )
                for u in basU
                for v in basU
            )
            mid_count += ok

    rings = scalars.all_rings(b)
    oracle_ok = der_count == 3 ** 5 and mid_count == 3 ** 4
    solver_ok = (
        rings["Mid"].dim == 4 and rings["Cent"].dim == 1 and rings["Der"].dim == 5
    )
    bz = scalars.Bimap(3, np.zeros((2, 2, 1), dtype=np.int64))
    rz = scalars.all_rings(bz)
    zero_ok = (
        rz["Der"].dim == 9
        and rz["Mid"].dim == 8
        and rz["Left"].dim == 5
        and rz["Right"].dim == 5
        and rz["Cent"].dim == 3
    )
    _announce(
        5,
        oracle_ok and solver_ok and zero_ok,
        "(symplectic GF(3)^2: Mid 4, Cent 1, Der 5 confirmed against exhaustive "
        "enumeration; zero bimap gives the vacuous dims)"
        if oracle_ok and solver_ok and zero_ok
        else f"der_count={der_count}, mid_count={mid_count}, dims={[rings[k].dim for k in scalars.KINDS]}",
    )


def test_criterion_6_census_counts():
    t0 = time.monotonic()
    s16 = census.run_census(CORPUS / "order16")
    t16 = time.monotonic() - t0
    t0 = time.monotonic()
    s81 = census.run_census(CORPUS / "order81")
    t81 = time.monotonic() - t0
    f16 = s16.per_order[16]["flagged"]
    f81 = s81.per_order[81]["flagged"]
    ok = (
        abs(f16 - 8) <= 1
        and s16.per_order[16]["total"] == 14
        and abs(f81 - 9) <= 1
        and s81.per_order[81]["total"] == 15
        and t16 < 300
        and t81 < 600
    )
    _announce(
        6,
        ok,
        f"(order 16: {f16}/14 flagged, target 8+-1, {t16:.1f}s < 300s; "
        f"order 81: {f81}/15 flagged, target 9+-1, {t81:.1f}s < 600s)",
    )
    test_criterion_6_census_counts.result = (s16, s81)


def test_criterion_7_der_breakdown():
    s16 = census.run_census(CORPUS / "order16")
    f16 = s16.per_order[16]["flagged"]
    der_row = s16.per_order[16]["by_ring"]["Der"]
    ok = der_row >= f16 - 2
    _announce(
        7,
        ok,
        f"(breakdown emitted; Der row {der_row} >= flagged {f16} - 2)",
    )


def test_criterion_8_census_determinism():
    serial = census.run_census(CORPUS / "order16", jobs=1)
    parallel = census.run_census(CORPUS / "order16", jobs=8)
    a = json.dumps(serial.to_json(), sort_keys=True)
    b = json.dumps(parallel.to_json(), sort_keys=True)
    _announce(
        8,
        a == b,
        "(serial and 8-way parallel census summaries are byte-identical)",
    )
