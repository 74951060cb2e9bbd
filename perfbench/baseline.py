"""Every workload, untraced and traced, in one command.

    python3 perfbench/baseline.py [--seed N] [--seconds S]

Run from the root of a source checkout.  Prints one line per metric,
``workload  metric  value  unit``, end-to-end metrics first, for the
workloads of BENCHMARK.json and verify-stock; about five minutes at the
default run length.  The numbers recorded in README.md
come from this command.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description="run every workload once, untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    ok = True
    for trace in (0, 1):
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
            )
            if proc.returncode != 0:
                print(f"{workload:<16} FAILED (exit {proc.returncode})")
                ok = False
                continue
            out = json.loads(proc.stdout.splitlines()[-1])
            print(f"{workload:<16} {'attempted':<42} {out['attempted']:>14} count")
            for name, body in out["metrics"].items():
                print(f"{workload:<16} {name:<42} {body['value']:>14.6g} {body['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
