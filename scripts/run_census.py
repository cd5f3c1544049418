#!/usr/bin/env python3
"""Run the desk-scale refinement census and write JSON summaries.

Reproduces the two prime-power rows the corpus covers (orders 16 and 81):
around 57% and 60% of the groups carry a non-semi-classical refinement.

Usage: python scripts/run_census.py [--jobs N] [--out DIR]
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from filterlab import census


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out", default=str(ROOT / "artifacts"))
    args = ap.parse_args()
    if args.jobs < 1:
        print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        sys.exit(2)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in ("order16", "order81"):
        t0 = time.monotonic()
        summary = census.run_census(ROOT / "corpus" / name, jobs=args.jobs)
        elapsed = time.monotonic() - t0
        print(f"== {name} ({elapsed:.1f}s)")
        print(census.summary_to_text(summary))
        path = outdir / f"census_{name}.json"
        path.write_text(json.dumps(summary.to_json(), sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}\n")


if __name__ == "__main__":
    main()
