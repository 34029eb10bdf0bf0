"""Same seed, same counts: run a workload twice with one seed (traced) and
check that the exact counts and the journal digest are identical.

    python3 perfbench/repeat_check.py --workloads upload_stream mixed_dedup --seed 7

Exit code 0 when every exact count (layers.EXACT_COUNTS) and, for the
warm workloads, the sha256 of the journal bytes the first timed ops
appended agree between the two runs; 1 otherwise.  Later changes can
cite these as counts, and a hot-path change can show "same journal bytes".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from layers import EXACT_COUNTS  # noqa: E402
from spread import run_once  # noqa: E402


def _digest(result: dict) -> str | None:
    for line in result["stdout"]:
        if line.startswith("journal_digest:"):
            return line.split()[1]
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=5)
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first, second = (run_once(workload, args.seed, args.seconds, 1)
                         for _ in range(2))
        for name in EXACT_COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            same = a == b
            ok &= same
            print(f"{workload:14s} {name:38s} {a!r:>22} {'==' if same else '!='} {b!r}")
        da, db = _digest(first), _digest(second)
        same = da == db
        ok &= same
        print(f"{workload:14s} {'journal_digest':38s} {da} {'==' if same else '!='} {db}")
    print("same-seed repeat:", "identical" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
