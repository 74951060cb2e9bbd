"""cylab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; cylab is imported from ``src``.
Each workload runs in a child process of its own (``worker.py``), one
thread, a closed loop with one caller.  With ``--trace 0`` the last
stdout line is the end-to-end metrics; with ``--trace 1`` it is the
per-layer metrics of a traced run.  Work is counted in instructions and
times are CPU seconds (see ``worker.py``).  ``setup_s`` is the least,
over several child processes, of the CPU time from process start to the
first timed op: the set-up work is the same in each, so the least is
the one other tenants' load slowed least.  Scratch files go under
``.perfbench/`` in the checkout.

``verify-stock`` runs here but is not one of the workloads listed in
``BENCHMARK.json``: one pass is a whole suite of about 6.5 s, so a run
holds five suites, and the suite's work and peak memory swing with its
seed (check 9) more than five samples can average out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("verify-stock", "partition-scale", "formula-eval", "cli-queries")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5  # the timed child plus four set-up-only children
TIME_LIMIT = 175.0  # every run must end within 180 s


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="cylab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child(args, workdir: str, setup_only: bool, deadline: float) -> tuple[dict, list[str]]:
    """Run the worker; returns its JSON result and its summary lines."""
    env = dict(os.environ)
    env.pop("CYLAB_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    # a session of its own, so that a timeout also ends the pass process
    # the worker forks
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"perfbench: {args.workload} did not finish in time") from None
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: worker for {args.workload} exited with code {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT
    if not os.path.isfile(os.path.join(ROOT, "src", "cylab", "__init__.py")):
        print(f"perfbench: no cylab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = os.path.join(SCRATCH, f"work-{os.getpid()}")
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                got, _ = child(args, workdir, True, deadline)
                setups.append(got["setup_s"])
        result, summary = child(args, workdir, False, deadline)
        setups.append(result["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in summary:
        print(line)
    if setups:
        print("# set-up CPU seconds: " + " ".join(f"{s:.3f}" for s in setups))
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": min(setups), "unit": "s"}
    print(f"# attempted {result['attempted']}, failed {result['failed']} {result['failures']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
