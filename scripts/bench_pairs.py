#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summed up in one JSON file.

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in a checkout of the parent revision and once in this tree: the parent
first in even pairs, the change first in odd pairs, with seed S = first
seed + pair index.  The workloads W and the run length T are the ones
``BENCHMARK.json`` declares.  The parent is extracted with ``git archive``
into a temporary directory, so the repository gets no second worktree.  The
script only shells out to the benchmark and reads the JSON object on the
last line of each run's output; it imports nothing from ``perfbench/``.

For every end-to-end metric of ``BENCHMARK.json`` it writes the medians and
quartiles of both sides, the pairs the change wins and loses, and whether
the change's median is within the metric's bound.  A claimed gain
(``--claim WORKLOAD:METRIC``) is met when the change wins at least 9 pairs
in 10 and its median is further from the parent's than the parent's
interquartile range.  ``--trace WORKLOAD`` adds one ``--trace 1`` run per
side and records its per-layer metrics.

Usage:
    python3 scripts/bench_pairs.py --parent REV --out BENCH_<n>.json \\
        [--pairs 10] [--first-seed 100] [--claim verify:wall_s] \\
        [--trace verify] [--description TEXT]
"""

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
SIDES = ("parent", "change")


def summarize(parent, change, better, bound):
    """Paired summary of one metric; ``better`` is "lower" or "higher" and
    ``bound`` the largest relative loss of the median that is allowed.

    The verdict is "better" (or "worse") when the change wins (or loses) at
    least 9 pairs in 10, ties counting for neither side, and the medians are
    further apart than the parent's interquartile range; else "unresolved".
    """
    sign = 1 if better == "lower" else -1
    p_q1, p_med, p_q3 = (float(v) for v in np.percentile(parent, [25, 50, 75]))
    c_q1, c_med, c_q3 = (float(v) for v in np.percentile(change, [25, 50, 75]))
    gaps = [sign * (c - p) for p, c in zip(parent, change)]
    wins, losses = sum(g < 0 for g in gaps), sum(g > 0 for g in gaps)
    separated = abs(c_med - p_med) > p_q3 - p_q1
    needed = math.ceil(WIN_SHARE * len(gaps))
    if separated and wins >= needed:
        verdict = "better"
    elif separated and losses >= needed:
        verdict = "worse"
    else:
        verdict = "unresolved"
    if p_med:
        rel = (c_med - p_med) / p_med
    else:
        rel = 0.0 if c_med == 0 else math.copysign(math.inf, c_med)
    return {
        "parent_median": p_med,
        "parent_q1": p_q1,
        "parent_q3": p_q3,
        "change_median": c_med,
        "change_q1": c_q1,
        "change_q3": c_q3,
        "change_better_pairs": wins,
        "change_worse_pairs": losses,
        "pairs": len(gaps),
        "median_change_rel": rel,
        "median_gap_exceeds_parent_iqr": separated,
        "verdict": verdict,
        "bound_rel": bound,
        "within_bound": sign * rel <= bound,
        "parent_runs": list(parent),
        "change_runs": list(change),
    }


def extract(rev, dest):
    """Write the files of revision ``rev`` into the empty directory ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run; returns (result object, environment record)."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} failed:\n{done.stderr}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    return json.loads(lines[-1]), env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--claim", help="WORKLOAD:METRIC of a claimed gain")
    ap.add_argument("--trace", help="workload to run once per side with --trace 1")
    ap.add_argument("--description", default="", help="what the change does")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    if args.claim:
        w, _, name = args.claim.partition(":")
        if w not in workloads or name not in e2e:
            ap.error(f"--claim {args.claim}: need a benchmark workload and an end-to-end metric")
    if args.trace and args.trace not in workloads:
        ap.error(f"--trace {args.trace}: not a benchmark workload")
    parent_sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", args.parent], capture_output=True, text=True, check=True
    ).stdout.strip()

    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / f"parent-{parent_sha[:12]}"
        extract(parent_sha, parent)
        roots = {"parent": parent, "change": ROOT}
        env = None
        runs = {w: {s: [] for s in SIDES} for w in workloads}
        for w in workloads:
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    result, run_env = run_once(roots[side], w, args.first_seed + i, seconds, 0)
                    if side == "change" and env is None:
                        env = run_env
                    runs[w][side].append(result)
                    print(f"{w} pair {i} {side}: "
                          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                          flush=True)
        traced = {}
        if args.trace:
            for side in SIDES:
                traced[side], _ = run_once(roots[side], args.trace, args.first_seed, seconds, 1)

    out = {
        "change": args.description,
        "machine": env,
        "commands": {
            "each_run": f"python3 perfbench/run.py --workload {{{','.join(workloads)}}} "
                        f"--seed S --seconds {seconds:g} --trace 0",
            "pairs": f"{args.pairs} pairs per workload, seed S = {args.first_seed} + pair index; parent first "
                     f"in even pairs, change first in odd pairs; parent = {parent_sha[:7]} extracted with "
                     "git archive, change = this tree",
            "quartiles": f"numpy.percentile 25/50/75 (linear) over the {args.pairs} runs of each side",
        },
        "workloads": {},
    }
    for w, sides in runs.items():
        out["workloads"][w] = {
            "correct": {s: all(r["correct"] for r in sides[s]) for s in SIDES},
            "failed": {s: sum(r["failed"] for r in sides[s]) for s in SIDES},
            "attempted": {s: sum(r["attempted"] for r in sides[s]) for s in SIDES},
            "metrics": {
                name: {"unit": m["unit"], **summarize(
                    [r["metrics"][name]["value"] for r in sides["parent"]],
                    [r["metrics"][name]["value"] for r in sides["change"]],
                    m["better"], m["bound"],
                )}
                for name, m in e2e.items()
            },
        }
    out["regressions_beyond_bound"] = [
        f"{w}.{name}"
        for w, rec in out["workloads"].items()
        for name, s in rec["metrics"].items()
        if not s["within_bound"]
    ]
    if args.claim:
        w, _, name = args.claim.partition(":")
        s = out["workloads"][w]["metrics"][name]
        out["claim"] = {
            "workload": w,
            "metric": name,
            "rule": f"change better in >= {math.ceil(WIN_SHARE * args.pairs)} of {args.pairs} pairs "
                    "and median gap > parent IQR",
            "result": {
                "parent_median": s["parent_median"],
                "parent_iqr": s["parent_q3"] - s["parent_q1"],
                "change_median": s["change_median"],
                "change_better_pairs": s["change_better_pairs"],
                "met": s["verdict"] == "better",
            },
        }
    if traced:
        values = {s: {k: v["value"] for k, v in traced[s]["metrics"].items()} for s in SIDES}
        out[f"{args.trace}_trace"] = {
            "command": f"python3 perfbench/run.py --workload {args.trace} --seed {args.first_seed} "
                       f"--seconds {seconds:g} --trace 1, once per side",
            "correct": {s: traced[s]["correct"] for s in SIDES},
            "all": values,
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}; regressions beyond bound: {out['regressions_beyond_bound'] or 'none'}"
          + (f"; claim met: {out['claim']['result']['met']}" if args.claim else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
