"""Run one workload and print its measurements.

Started by ``run.py``, one process per workload run, with ``src`` on
``PYTHONPATH``.  The last stdout line is one JSON object; lines before
it are a human-readable summary.

Passes repeat until ``--seconds`` of wall time is used.  This process
draws each pass's inputs (untimed) and then forks a child for the pass:
the child runs the ops (timed), reads its peak RSS, checks every answer
(untimed) and sends back only timings, verdicts and trace summaries.
Every pass therefore starts from the same state, with nothing cached by
an earlier pass, and its peak RSS is its own.  With ``--trace 1`` each
pass runs twice on the same inputs, untraced and then traced, so that
the two differ only by the tracing.

The work of a pass and of each op is counted in user-space instructions
(``perfctr.py``): on a shared host the time of identical work moves with
the load other tenants put on the same cores and caches, and the count
does not.  Times are CPU time of the process that spent them
(``time.process_time``), which leaves out the time the hypervisor gave
to other guests; they are reported per layer, and as the set-up time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict

from perfctr import InstructionCounter

FAILURE_KINDS = ("wrong_answer", "bad_witness", "exception", "memory")
MEMORY_CAP = 2 << 30  # address-space cap for workloads that set none of their own


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    from workloads import WORKLOADS  # imports cylab: part of set-up

    cls = WORKLOADS[args.workload]
    cap = cls.memory_cap or MEMORY_CAP
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    workload = cls(args.seed, args.workdir)
    try:
        ops = workload.ops(0)
        setup = time.process_time()  # CPU time since this process started
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        run = Run(workload, args.trace == 1)
        run.loop(ops, time.perf_counter(), args.seconds)
    finally:
        workload.close()
    result = run.result()
    result["setup_s"] = setup
    run.summary(sys.stdout)
    if args.trace:
        path = os.path.join(os.path.dirname(args.workdir), f"trace-{args.workload}-seed{args.seed}.json")
        run.write_trace(path)
    print(json.dumps(result))
    return 0


# --- one pass, in a child process ----------------------------------------------------


def in_child(fn, *args):
    """``fn(*args)`` in a forked child; returns its (picklable) result."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                out = {"ok": fn(*args)}
            except BaseException:  # reported to the parent, which stops the run
                out = {"error": traceback.format_exc()}
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(out, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"pass process ended without a result (status {status})")
    out = pickle.loads(data)
    if "error" in out:
        raise RuntimeError("pass process failed:\n" + out["error"])
    return out["ok"]


def run_pass(ops, traced: bool) -> dict:
    """Time the ops, then check their answers; runs in a pass child."""
    tracer = None
    if traced:
        from spans import Tracer, install, uninstall

        tracer = Tracer()
        undo = install(tracer)
    count = tracer.count if tracer is not None else _no_count
    counter = InstructionCounter()
    instructions = counter.read
    timed = []
    try:
        begin, begin_instr = time.process_time(), instructions()
        for idx, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = idx
            t0, i0 = time.process_time(), instructions()
            try:
                result, failure = op.run(count), None
            except MemoryError as err:
                result, failure = None, ("memory", f"MemoryError {err}")
            except Exception as err:  # any raise is a failed op, counted by kind
                result, failure = None, ("exception", f"{type(err).__name__}: {err}")
            timed.append((op, time.process_time() - t0, instructions() - i0, result, failure))
        seconds, instr = time.process_time() - begin, instructions() - begin_instr
    finally:
        counter.close()
        if tracer is not None:
            uninstall(undo)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {
        "seconds": seconds,
        "instructions": instr,
        "peak_rss_mb": peak,
        "samples": [],
        "outcomes": [],
        "parts": [],
    }
    if tracer is not None:
        out["trace"] = trace_summary(tracer, seconds)
    for op, op_seconds, op_instr, result, failure in timed:
        if failure is None:
            try:
                failure = op.check(result)
            except Exception as err:  # a malformed answer is a wrong answer
                failure = ("wrong_answer", f"check raised {type(err).__name__}: {err}")
        out["samples"].append((op.kind, op.n, op.size, op_seconds, op_instr))
        if op.split is not None and result is not None:
            for label, part_seconds, part_failure in op.split(result):
                out["parts"].append((label, part_seconds))
                out["outcomes"].append((label, part_failure or failure))
        else:
            out["outcomes"].append((op.kind, failure))
    return out


def trace_summary(tracer, seconds: float) -> dict:
    from cylab.algebra import cached_algebra
    from spans import formula_sizes

    info = cached_algebra.cache_info()
    dag, tree = formula_sizes(list(tracer.formulas.values()))
    return {
        "self_s": dict(tracer.self_times()),
        "calls": Counter(tracer.names),
        "counters": dict(tracer.counters),
        "partitions": tracer.partitions,
        "largest_partition_s": tracer.largest("algebra.partition"),
        "unattributed_s": seconds - tracer.top_level_seconds(),
        "cache": (info.hits, info.misses),
        "formula_nodes": (dag, tree),
        "spans": tracer.spans(),
    }


def _no_count(name, value=1):
    pass


# --- the run ---------------------------------------------------------------------------


class Run:
    def __init__(self, workload, traced: bool):
        self.workload = workload
        self.traced = traced
        self.passes: list[dict] = []  # untraced
        self.traced_passes: list[dict] = []
        self.failures: Counter = Counter()
        self.attempted = 0
        self.messages: list[str] = []

    def loop(self, ops, start: float, seconds: float) -> None:
        k = 0
        while True:
            if k:
                ops = self.workload.ops(k)
            self.passes.append(self.record(in_child(run_pass, ops, False)))
            if self.traced:
                self.traced_passes.append(self.record(in_child(run_pass, ops, True)))
            k += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / k > seconds:
                return

    def record(self, got: dict) -> dict:
        for label, failure in got["outcomes"]:
            self.attempted += 1
            if failure is not None:
                kind, message = failure
                self.failures[kind] += 1
                if len(self.messages) < 20:
                    self.messages.append(f"{label}: {kind}: {message}")
        return got

    def samples(self):
        return [s for p in self.passes for s in p["samples"]]

    def failed(self) -> int:
        return sum(self.failures.values())

    def result(self) -> dict:
        metrics = self.layer_metrics() if self.traced else self.end_to_end()
        return {
            "correct": self.failed() == 0,
            "attempted": self.attempted,
            "failed": self.failed(),
            "failures": dict(self.failures),
            "metrics": metrics,
        }

    def end_to_end(self) -> dict:
        ops = [s[4] / 1e6 for s in self.samples()]
        return {
            "pass_minstr": {"value": statistics.median(p["instructions"] / 1e6 for p in self.passes), "unit": "Minstr"},
            "op_minstr_geomean": {"value": geomean(ops), "unit": "Minstr"},
            "op_minstr_p90": {"value": p90(ops), "unit": "Minstr"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in self.passes), "unit": "MB"},
        }

    def layer_metrics(self) -> dict:
        from spans import SPAN_NAMES, size_exponent

        traces = [p["trace"] for p in self.traced_passes]
        per = 1.0 / len(traces)
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        counters: dict = defaultdict(float)
        partitions = []
        for tr in traces:
            for name, value in tr["self_s"].items():
                self_s[name] += value
            calls.update(tr["calls"])
            for name, value in tr["counters"].items():
                counters[name] += value
            partitions += tr["partitions"]
        m = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        latencies = [s[3] * 1000 for s in self.samples()]
        put("cpu.pass_s", statistics.median(p["seconds"] for p in self.passes), "s")
        put("cpu.op_geomean_ms", geomean(latencies), "ms")
        put("cpu.op_p90_ms", p90(latencies), "ms")
        for span in SPAN_NAMES:
            put(f"{span}.self_s", self_s[span] * per, "s")
        tuples = counters["algebra.partition.tuples"]
        put("algebra.partition.us_per_tuple", self_s["algebra.partition"] / tuples * 1e6 if tuples else 0.0, "us")
        put("algebra.partition.largest_ms", max(tr["largest_partition_s"] for tr in traces) * 1000, "ms")
        put("algebra.partition.size_exponent", size_exponent(partitions), "exponent")
        hits = sum(tr["cache"][0] for tr in traces)
        lookups = hits + sum(tr["cache"][1] for tr in traces)
        put("algebra.cache_hit_ratio", hits / lookups if lookups else 0.0, "ratio")
        put("algebra.defining_formula.dag_nodes", sum(tr["formula_nodes"][0] for tr in traces) * per, "count")
        put("algebra.defining_formula.tree_nodes", sum(tr["formula_nodes"][1] for tr in traces) * per, "count")
        for span in CALL_COUNTS:
            put(f"{span}.calls", calls[span] * per, "count")
        for name, unit in COUNTERS:
            put(name, counters[name] * per, unit)
        checks = defaultdict(list)
        for label, seconds in (part for p in self.passes for part in p["parts"]):
            checks[label].append(seconds)
        # verify-stock only: each check's wall time as run_suite measures it
        for label in sorted(checks):
            put(f"verify.{label}_s", statistics.median(checks[label]), "s")
        put("ops.attempted", self.attempted, "count")
        for kind in FAILURE_KINDS:
            put(f"ops.failed.{kind}", self.failures[kind], "count")
        put("fail_rate", self.failed() / self.attempted, "ratio")
        traced_seconds = [p["seconds"] for p in self.traced_passes]
        put("trace.cpu_s", sum(traced_seconds) * per, "s")
        put("trace.unattributed_s", sum(tr["unattributed_s"] for tr in traces) * per, "s")
        put(
            "trace.overhead_s",
            statistics.median(t - p["seconds"] for t, p in zip(traced_seconds, self.passes)),
            "s",
        )
        return m

    def summary(self, out) -> None:
        """Median op time per (kind, n, size): the scaling axis."""
        groups = defaultdict(list)
        samples = self.samples()
        for kind, n, size, seconds, instr in samples:
            groups[(kind, n, size)].append((seconds, instr))
        print(f"# {len(self.passes)} passes, {len(samples)} op samples", file=out)
        print("# pass CPU seconds: " + " ".join(f"{p['seconds']:.3f}" for p in self.passes), file=out)
        print("# pass Minstr: " + " ".join(f"{p['instructions'] / 1e6:.1f}" for p in self.passes), file=out)
        for (kind, n, size), values in sorted(groups.items()):
            print(
                f"# {kind:<14} n={n} size={size:>2}  {statistics.median(v[0] for v in values) * 1000:10.2f} ms"
                f" {statistics.median(v[1] for v in values) / 1e6:10.2f} Minstr median over {len(values)}",
                file=out,
            )
        for line in self.messages:
            print(f"# FAILED {line}", file=out)

    def write_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "passes": [p["trace"]["spans"] for p in self.traced_passes],
                    "ops": self.samples(),
                },
                fh,
            )


CALL_COUNTS = (
    "algebra.partition",
    "algebra.element",
    "structures.definable_set",
    "structures.find_automorphism",
    "lab.svenonius",
)

COUNTERS = (
    ("algebra.partition.tuples", "count"),
    ("algebra.atoms", "count"),
    ("structures.definable_set.tuples_out", "count"),
    ("syntax.render.bytes", "bytes"),
    ("lab.svenonius.maps_checked", "count"),
    ("lab.certify_strong.elements_checked", "count"),
    ("lab.find_interpolant.candidates_examined", "count"),
    ("cli.output_bytes", "bytes"),
)


def geomean(values) -> float:
    """The typical op.  Ops of many kinds and sizes mix in one pass, and
    their median can sit in a gap between two kinds, where it jumps from
    run to run with small shifts in either; the geometric mean moves only
    as the ops' times do."""
    return math.exp(statistics.fmean(math.log(v) for v in values))


def p90(values) -> float:
    """90th percentile; with 100 or more samples at least ten lie above it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


if __name__ == "__main__":
    sys.exit(main())
