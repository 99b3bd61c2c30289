"""Run every workload once and print each metric by name, with its unit.

    python3 perfbench/report.py [--seed 1] [--seconds N] [--trace 0|1]

Each workload runs in its own interpreter through ``run.py``.  Failing
items are listed under the table; the exit code is 1 when any workload
returned a wrong answer or did not finish.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    failures = []
    print(f"{'workload':<10} {'metric':<44} {'value':>16} unit")
    for workload in (w["name"] for w in SPEC["workloads"]):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{workload:<10} run failed (exit {done.returncode}): {done.stderr.strip()}")
            status = 1
            continue
        meta = json.loads(lines[-2])["meta"]
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            print(f"{workload:<10} {name:<44} {m['value']:>16.6g} {m['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"{workload:<10} {'error_rate':<44} {rate:>16.6g} "
              f"({result['failed']} of {result['attempted']} items)")
        failures += [(workload, f) for f in meta["failures"]]
        status |= not result["correct"]
    for workload, f in failures:
        print(f"FAILED {workload}: {f['item']} x{f['count']}: {f['reason']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
