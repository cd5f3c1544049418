"""Census of refinement behaviour over a directory of .pcg files.

Each group is refined once with the full emission set and classified.  A
flagged group counts for Der, Mid or Cent when that ring emitted some
candidate of the seed table.  Every candidate inserts and a parsed group
declares no direct factors, so that is the flag of a refinement restricted to
the ring (``refine.seed_refined_by``), decided at the first proper
Der-invariant emission of the ring's rank.  The census prints no
``ring_dims``, so a ring other than Der is built only where the rank search
or that flag asks for it (on orders 16 and 81: Mid and Cent of flagged
groups).  Every such Cent there is GF(p) 1, which emits with no radical or
lift, and a Mid flag builds A/J only where no radical emission of Mid is a
candidate.  An error while deciding a flag skips the group, as one while
refining does.

A run opens a fresh ring scope (``scalars.ring_scope``) and drops it on
exit, so the groups of the run share each distinct bimap's rings and the
radicals those rings keep, and nothing outlives the run.  With ``jobs > 1``
each worker opens its own scope when it starts and shares it with no other
process.  A ring build or radical certification that raises is not kept,
so every group that meets it raises and is skipped as it would be alone.  Aggregation is a deterministic fold over
results sorted by group id, so serial and parallel runs produce
byte-identical summaries.
"""

from __future__ import annotations

import functools
import multiprocessing
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from . import refine, scalars
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
    given) is parsed but not refined.  A flagged group is flagged by each
    breakdown ring that emitted a seed candidate; every candidate inserts
    and the group has no declared factors, so that is the flag of a
    refinement restricted to the ring.  A failure while refining or
    deciding a flag is returned as the result's error, "refine: <message>",
    so the census goes on."""
    path = Path(path_str)
    try:
        G = parse_pcg_file(path)
    except (PcgError, OSError) as exc:
        return GroupResult(path.stem, 0, "", [], [], error=str(exc))
    if order_filter is not None and G.order != order_filter:
        return GroupResult(path.stem, G.order, "", [], [])
    try:
        full = refine.refine_to_fixpoint(G, group_id=path.stem)
        flagged_by = [
            ring for ring in BREAKDOWN_RINGS if full.flagged and refine.seed_refined_by(full, ring)
        ]
    # NonElementaryAbelianError and PcgError are ValueErrors; a MemoryError
    # is numpy refusing an oversize array for this group alone
    except (refine.RefinementError, ArithmeticError, ValueError, MemoryError) as exc:
        return GroupResult(path.stem, G.order, "", [], [], error=f"refine: {exc}")
    steps = [refine.step_to_json(s) for s in full.steps]
    return GroupResult(path.stem, G.order, full.classification, steps, flagged_by)


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
        with multiprocessing.Pool(min(jobs, len(paths)), initializer=scalars.open_ring_scope) as pool:
            results = pool.map(analyze, paths)
    else:
        with scalars.ring_scope():
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
