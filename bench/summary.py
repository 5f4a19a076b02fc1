"""Run every workload once, each in its own process, and print every metric
by name with its unit, plus op_fail_ratio and the report digest.

    python3 bench/summary.py [--seed N] [--seconds S] [--trace 0|1]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    status = 0
    for w in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=BENCH.parent)
        if proc.returncode != 0:
            print(f"{w}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        *_, info_line, result_line = proc.stdout.strip().split("\n")
        info, result = json.loads(info_line), json.loads(result_line)
        print(f"== {w}  correct={result['correct']}  "
              f"failed/attempted={result['failed']}/{result['attempted']}")
        for name, m in result["metrics"].items():
            print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'op_fail_ratio':42s} {info['op_fail_ratio']:>14.6g} ratio")
        print(f"  reports_sha256 {info['reports_sha256']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
