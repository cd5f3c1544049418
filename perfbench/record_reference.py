"""Record the ladder reference: each ladder product's refinement report
without ``runtime_ms``, as ``perfbench/reference/ladder.json``.

The reference is the expected output of the ``ladder`` workload. Record it
only from code whose refinement output is trusted, since every later run is
checked against it.

Usage: python3 perfbench/record_reference.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    ref = {}
    for name, factors in workloads.LADDER + workloads.LADDER_SMOKE:
        ref[name] = workloads.ladder_report(workloads.build_product(factors), name)
        print(f"{name}: {len(ref[name]['steps'])} steps, {ref[name]['classification']}")
    out = workloads.REFERENCE / "ladder.json"
    out.write_text(json.dumps(ref, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
