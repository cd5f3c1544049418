"""Census of refinement behaviour over a directory of .pcg files.

Each group is refined with the full emission set and classified, then
re-refined restricted to each of the Der, Mid, Cent toolkits for the
per-ring breakdown.  Workers share nothing; aggregation is a deterministic
fold over results sorted by group id, so serial and parallel runs produce
byte-identical summaries.
"""

from __future__ import annotations

import functools
import multiprocessing
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from . import refine
from .pcgroup import PcgError, parse_pcg_file

BREAKDOWN_RINGS = ("Der", "Mid", "Cent")


@dataclass
class GroupResult:
    group: str
    order: int
    classification: str
    steps: List[dict]
    flagged_by: List[str]
    error: str = ""


@dataclass
class CensusSummary:
    per_order: Dict[int, dict]
    groups: Dict[str, dict]
    skipped: List[str]

    def to_json(self) -> dict:
        return {
            "orders": {
                str(o): self.per_order[o] for o in sorted(self.per_order)
            },
            "groups": {k: self.groups[k] for k in sorted(self.groups)},
            "skipped": sorted(self.skipped),
        }


def analyze_file(path_str: str, order_filter: Optional[int] = None) -> GroupResult:
    """Refine one group; a group whose order is not ``order_filter`` (when
    given) is parsed but not refined.  A failure while refining is returned
    as the result's error, "<stage>: <message>", so the census goes on."""
    path = Path(path_str)
    try:
        G = parse_pcg_file(path)
    except (PcgError, OSError) as exc:
        return GroupResult(path.stem, 0, "", [], [], error=str(exc))
    if order_filter is not None and G.order != order_filter:
        return GroupResult(path.stem, G.order, "", [], [])
    stage = "refine"
    flagged_by = []
    try:
        full = refine.refine_to_fixpoint(G, group_id=path.stem)
        if full.flagged:
            for ring in BREAKDOWN_RINGS:
                stage = f"refine[{ring}]"
                opts = refine.RefineOptions(
                    ring_kinds=(ring,), include_bimap_radicals=False
                )
                restricted = refine.refine_to_fixpoint(G, opts, group_id=path.stem)
                if restricted.flagged:
                    flagged_by.append(ring)
    # NonElementaryAbelianError and PcgError are ValueErrors
    except (refine.RefinementError, ArithmeticError, ValueError) as exc:
        return GroupResult(path.stem, G.order, "", [], [], error=f"{stage}: {exc}")
    steps = refine.report_to_json(full)["steps"]
    return GroupResult(
        path.stem, G.order, full.classification, steps, flagged_by
    )


def run_census(
    directory,
    jobs: int = 1,
    order_filter: Optional[int] = None,
) -> CensusSummary:
    directory = Path(directory)
    paths = sorted(str(p) for p in directory.glob("**/*.pcg"))
    skipped: List[str] = []
    results: List[GroupResult] = []
    # unfiltered runs call analyze_file with the path alone: perfbench's
    # census workload swaps in a one-argument wrapper to time each group
    analyze = (
        analyze_file
        if order_filter is None
        else functools.partial(analyze_file, order_filter=order_filter)
    )
    if jobs > 1 and len(paths) > 1:
        with multiprocessing.Pool(min(jobs, len(paths))) as pool:
            results = pool.map(analyze, paths)
    else:
        results = [analyze(p) for p in paths]
    per_order: Dict[int, dict] = {}
    groups: Dict[str, dict] = {}
    for res in sorted(results, key=lambda r: r.group):
        if res.error:
            skipped.append(f"{res.group}: {res.error}")
            continue
        if order_filter is not None and res.order != order_filter:
            continue
        bucket = per_order.setdefault(
            res.order,
            {
                "total": 0,
                "flagged": 0,
                "proportion": 0.0,
                "by_ring": {r: 0 for r in BREAKDOWN_RINGS},
            },
        )
        bucket["total"] += 1
        flagged = res.classification == "non-semi-classical"
        if flagged:
            bucket["flagged"] += 1
            for ring in res.flagged_by:
                bucket["by_ring"][ring] += 1
        groups[res.group] = {
            "order": res.order,
            "classification": res.classification,
            "flagged": flagged,
            "flagged_by": res.flagged_by,
            "steps": res.steps,
        }
    for bucket in per_order.values():
        t = bucket["total"]
        bucket["proportion"] = round(bucket["flagged"] / t, 4) if t else None
    return CensusSummary(per_order, groups, skipped)


def summary_to_text(s: CensusSummary) -> str:
    lines = []
    header = f"{'order':>8} {'total':>6} {'flagged':>8} {'prop':>7}  " + " ".join(
        f"{r:>5}" for r in BREAKDOWN_RINGS
    )
    lines.append(header)
    for order in sorted(s.per_order):
        b = s.per_order[order]
        prop = "n/a" if b["proportion"] is None else f"{b['proportion']:.3f}"
        ring_cols = " ".join(f"{b['by_ring'][r]:>5}" for r in BREAKDOWN_RINGS)
        lines.append(
            f"{order:>8} {b['total']:>6} {b['flagged']:>8} {prop:>7}  {ring_cols}"
        )
    if not s.per_order:
        lines.append("   (no groups; proportion n/a)")
    if s.skipped:
        lines.append(f"skipped: {len(s.skipped)}")
        for msg in s.skipped:
            lines.append(f"  ! {msg}")
    return "\n".join(lines)
