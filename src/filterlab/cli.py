"""Command-line surface: verify, report, census, aut.

Exit codes: 0 all checks pass, 1 a check failed, 2 input error.  All JSON is
emitted with sorted keys; everything is deterministic.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import census as census_mod
from . import lie, oracle, refine, scalars, series
from .autfilter import (
    central_automorphisms,
    delta_layer_dims,
    load_sidecar,
    parse_aut_lines,
)
from .lie import NonElementaryAbelianError
from .pcgroup import PcgError, parse_pcg_file

ORACLE_LIMIT = 2 ** 10


def _verify_checks(G):
    """Yield (name, violations-as-strings) pairs for the verify suite."""
    yield "consistency", G.consistency_violations(limit=3)

    if G.order <= ORACLE_LIMIT:
        T = oracle.cayley_from_pc(G)
        rep = oracle.check_equiv(G, T)
        yield "oracle-equivalence", rep.discrepancies
    else:
        yield "oracle-equivalence (skipped: order above cap)", []

    rng = random.Random(2024)
    hw_bad = []
    pool = list(G.elements()) if G.order <= 512 else None
    for _ in range(100):
        if pool is not None:
            x, y, z = (rng.choice(pool) for _ in range(3))
        else:
            x, y, z = (
                tuple(rng.randrange(G.p) for _ in range(G.n)) for _ in range(3)
            )
        a = G.conjugate(G.commutator(G.commutator(x, G.inverse(y)), z), y)
        b = G.conjugate(G.commutator(G.commutator(y, G.inverse(z)), x), z)
        c = G.conjugate(G.commutator(G.commutator(z, G.inverse(x)), y), x)
        if G.multiply(G.multiply(a, b), c) != G.identity:
            hw_bad.append(f"hall-witt fails at {x},{y},{z}")
            break
    yield "hall-witt", hw_bad

    lc = series.lower_central(G)
    ep = series.exponent_p_lcs(G)
    uc = series.upper_central(G)
    yield "filter-axioms (lower central)", [str(v) for v in series.verify_filter(lc)]
    yield "filter-axioms (exponent-p)", [str(v) for v in series.verify_filter(ep)]
    yield "layering-axioms (upper central)", [str(v) for v in series.verify_layering(uc)]
    yield "sift (gamma, zeta)", [str(v) for v in series.verify_sift(lc, uc)]
    yield "sift (eta, zeta)", [str(v) for v in series.verify_sift(ep, uc)]

    L = lie.graded_lie_ring(ep)
    yield "jacobi", lie.check_jacobi(L)
    yield "alternating", lie.check_alternating(L)
    try:
        M = lie.graded_module(ep, uc, L)
        yield "module-law (matrix)", lie.check_module_law(L, M)
    except NonElementaryAbelianError as exc:
        yield f"module-law (matrix skipped: {exc})", []
    yield "module-law (integral)", lie.check_module_law_integral(lc, uc, trials=200)


def cmd_verify(args) -> int:
    # parse without the consistency gate: verify IS the checker, so a bad
    # relation set must surface as a failed suite (exit 1), not a parse error
    try:
        G = parse_pcg_file(args.file, check=False)
    except (PcgError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    failed = False
    for name, bad in _verify_checks(G):
        status = "PASS" if not bad else "FAIL"
        print(f"{status} {name}")
        for msg in bad[:3]:
            print(f"     {msg}")
        failed = failed or bool(bad)
        if name == "consistency" and bad:
            # arithmetic downstream of an inconsistent presentation is noise
            break
    return 1 if failed else 0


STAGES = ("series", "lie", "scalars", "aut", "refine")


def _stage_payloads(G, stages, sidecar_maps=()):
    out = {"group": G.name or "group", "order": G.order, "p": G.p}
    want = set(stages)
    # dependency resolution: lie and scalars need series objects anyway
    lc = series.lower_central(G)
    uc = series.upper_central(G)
    ep = series.exponent_p_lcs(G)
    if "series" in want:
        out["series"] = {
            "lower_central": {"orders": lc.orders(), "filter": series.boxmap_to_json(lc)},
            "upper_central": {"orders": uc.orders(), "layering": series.boxmap_to_json(uc)},
            "exponent_p": {"orders": ep.orders(), "filter": series.boxmap_to_json(ep)},
        }
    L = None
    if want & {"lie", "scalars", "aut", "refine"}:
        L = lie.graded_lie_ring(ep)
    if "lie" in want:
        lie_payload = {
            "dims": {"|".join(map(str, s)): L.dim(s) for s in L.grades()},
            "brackets": {
                "|".join(map(str, s)) + ";" + "|".join(map(str, t)): T.tolist()
                for (s, t), T in sorted(L.brackets.items())
            },
        }
        try:
            M = lie.graded_module(ep, uc, L)
            lie_payload["module"] = {
                "strata_dims": {
                    "|".join(map(str, s)): M.stratum_dim(s) for s in sorted(M.strata)
                },
                "actions": {
                    "|".join(map(str, s)) + ";" + "|".join(map(str, t)): A.tolist()
                    for (s, t), A in sorted(M.actions.items())
                },
            }
        except NonElementaryAbelianError as exc:
            lie_payload["module_error"] = str(exc)
        out["lie"] = lie_payload
    if "scalars" in want:
        pairs = {}
        grades = [s for s in L.comps if L.dim(s) > 0]
        for s in grades:
            for t in grades:
                if L.dim((tuple(a + b for a, b in zip(s, t)))) == 0:
                    continue
                b = scalars.bimap_from_lie_pair(L, s, t)
                rings = scalars.all_rings(b)
                ems = scalars.characteristic_subspaces(b, rings)
                pairs["|".join(map(str, s)) + ";" + "|".join(map(str, t))] = {
                    "dims": {k: rings[k].dim for k in scalars.KINDS},
                    "radical_dims": {
                        k: len(scalars.radical(rings[k]))
                        for k in ("Left", "Mid", "Right", "Cent")
                    },
                    "cent_idempotents": len(scalars.split_idempotents(rings["Cent"])),
                    "emitted": len(ems),
                }
        out["scalars"] = pairs
    if "aut" in want:
        gens = central_automorphisms(G) + list(sidecar_maps)
        payload = {"central_generators": len(gens)}
        if gens:
            rep = delta_layer_dims(gens, ep)
            payload["max_grades"] = [
                list(r["max_grade"]) for r in rep.generator_grades
            ]
            payload["dims_by_grade"] = {
                "|".join(map(str, s)): c for s, c in sorted(rep.dims_by_grade.items())
            }
            payload["pair_violations"] = rep.pair_violations
        out["aut"] = payload
    if "refine" in want:
        out["refine"] = refine.report_to_json(refine.refine_to_fixpoint(G, group_id=G.name))
    return out


def cmd_report(args) -> int:
    try:
        G = parse_pcg_file(args.file)
    except (PcgError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    stages = [s.strip() for s in args.stages.split(",") if s.strip()]
    for s in stages:
        if s not in STAGES:
            print(f"unknown stage {s!r} (choose from {', '.join(STAGES)})", file=sys.stderr)
            return 2
    sidecar_maps = []
    if args.sidecar and "aut" in stages:
        try:
            sidecar_maps = load_sidecar(G, args.sidecar)
        except (PcgError, OSError) as exc:
            print(f"sidecar error: {exc}", file=sys.stderr)
            return 2
    payload = _stage_payloads(G, stages, sidecar_maps)
    json.dump(payload, sys.stdout, sort_keys=True, indent=2)
    print()
    return 0


def cmd_census(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"not a directory: {directory}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    summary = census_mod.run_census(
        directory, jobs=args.jobs, order_filter=args.order_filter
    )
    if args.json:
        json.dump(summary.to_json(), sys.stdout, sort_keys=True, indent=2)
        print()
    else:
        print(census_mod.summary_to_text(summary))
    return 0


def cmd_aut(args) -> int:
    try:
        G = parse_pcg_file(args.file)
    except (PcgError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.sidecar:
            maps = load_sidecar(G, args.sidecar)
        else:
            maps = parse_aut_lines(G, [l for _, l in getattr(G, "aut_lines", [])])
    except PcgError as exc:
        print(f"automorphism error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"sidecar error: {exc}", file=sys.stderr)
        return 2
    if not maps:
        print("no automorphisms supplied", file=sys.stderr)
        return 2
    ep = series.exponent_p_lcs(G)
    rep = delta_layer_dims(maps, ep)
    payload = {
        "group": G.name,
        "order": G.order,
        "generators": len(maps),
        "max_grades": [list(r["max_grade"]) for r in rep.generator_grades],
        "dims_by_grade": {
            "|".join(map(str, s)): c for s, c in sorted(rep.dims_by_grade.items())
        },
        "pair_violations": rep.pair_violations,
    }
    json.dump(payload, sys.stdout, sort_keys=True, indent=2)
    print()
    return 1 if rep.pair_violations else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="filterlab",
        description="Graded filters and layerings on finite p-groups: "
        "verification, reports, and the refinement census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run all verification suites on one group")
    p_verify.add_argument("file")
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="JSON report of selected stages")
    p_report.add_argument("file")
    p_report.add_argument("--stages", default="series", help=f"comma list of {','.join(STAGES)}")
    p_report.add_argument("--sidecar", default=None, help="optional .aut sidecar for the aut stage")
    p_report.set_defaults(func=cmd_report)

    p_census = sub.add_parser("census", help="refinement census over a directory of .pcg files")
    p_census.add_argument("dir")
    p_census.add_argument("--jobs", type=int, default=1)
    p_census.add_argument("--json", action="store_true")
    p_census.add_argument("--order-filter", type=int, default=None)
    p_census.set_defaults(func=cmd_census)

    p_aut = sub.add_parser("aut", help="validate automorphisms and report Delta grades")
    p_aut.add_argument("file")
    p_aut.add_argument("--sidecar", default=None)
    p_aut.set_defaults(func=cmd_aut)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
