"""Print every benchmark metric by name, with its unit, for every workload.

Runs ``perfbench/run.py`` once untraced and once traced per workload, one
run at a time, and prints a table of the end-to-end and per-layer metrics
plus each run's ``fail_ratio`` (failed / attempted groups). Exits with code
1 if any run reports a wrong output.

Usage: python3 perfbench/report.py [--seed N] [--seconds S] [--workload W ...]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = next(line[4:] for line in lines if line.startswith("env "))
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()

    all_correct = True
    for workload in args.workload or names:
        for trace in (0, 1):
            res = run(workload, args.seed, args.seconds, trace)
            all_correct &= res["correct"]
            ratio = res["failed"] / res["attempted"]
            print(f"{workload} trace={trace} env {res['env']}")
            print(f"{workload} trace={trace} fail_ratio {ratio:.4f} ({res['failed']}/{res['attempted']})")
            for name, m in res["metrics"].items():
                print(f"{workload:8} {name:44} {m['value']:>16.6g} {m['unit']}")
            sys.stdout.flush()
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
