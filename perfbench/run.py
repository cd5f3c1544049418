"""Run one benchmark workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload {census,ladder,verify} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics (see ``perfbench/metrics.py``). Every metric
is printed as ``metric <name> <value> <unit>``, and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The run environment, each unit's raw times and any failures
are printed before it and written, with the raw group times, the reference
loop times and the spans of a traced run, to ``.perfbench_out/`` at the
root of the checkout.

The program is imported from ``src/`` of the checkout this file sits in; the
run exits with code 2, printing no result, if it is not there.
"""

import os

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def import_program() -> str:
    """Put the checkout's ``src`` first on the path and import filterlab from
    it; returns an error message, or "" on success."""
    package = SRC / "filterlab"
    if not (package / "__init__.py").is_file():
        return f"no program to measure: {package} is missing"
    for data in (ROOT / "corpus", ROOT / "artifacts"):
        if not data.is_dir():
            return f"no benchmark inputs: {data} is missing"
    sys.path.insert(0, str(SRC))
    import filterlab

    if Path(filterlab.__file__).resolve().parent != package.resolve():
        return f"filterlab was imported from {filterlab.__file__}, not {package}"
    return ""


def environment() -> dict:
    import numpy
    import sympy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "machine": platform.machine(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("census", "ladder", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # BLAS threads are pinned before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    err = import_program()
    if err:
        print(err, file=sys.stderr)
        return 2

    import harness
    import metrics as metric_defs
    import workloads

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    units = workloads.WORKLOADS[args.workload](args.seed)
    result = harness.measure(units, args.seed, args.seconds, bool(args.trace))

    for r in result.runs:
        tag = "traced" if r.traced else "plain"
        print(f"unit {r.unit} {tag} raw_wall_s={r.wall_s:.4f} raw_setup_s={r.builds[-1]:.5f}")
    for msg in result.failures[:20]:
        print(f"FAIL {msg}")
    wanted = metric_defs.PER_LAYER if args.trace else metric_defs.END_TO_END
    metrics = {m.name: {"value": result.metrics[m.name], "unit": m.unit} for m in wanted}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "units": [
            {"unit": r.unit, "raw_wall_s": r.wall_s, "raw_builds_s": r.builds, "scale": r.scale, "traced": r.traced,
             "groups": {o.group: {"start": o.start, "raw_s": o.seconds, "scale": o.scale} for o in r.outcomes}}
            for r in result.runs
        ],
        "references": result.references,
        "failures": result.failures,
        "metrics": metrics,
    }
    if result.tracer is not None:
        spans = OUT / f"{stem}.spans.json"
        record["spans_file"] = spans.name
        record["spans"] = result.tracer.write_spans(spans)
    (OUT / f"{stem}.json").write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")

    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
