"""Self-test of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

Runs every workload for one pass, untraced and traced, and checks that
each metric named in BENCHMARK.json is emitted with its unit (for
verify-stock, which BENCHMARK.json does not list, also its per-check
times) and that the traced layer times add up; then feeds the answer
checks corrupted answers and expects each to be rejected.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import cylab  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = run_bench(workload, trace)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        if trace and workload == "verify-stock":
            want.update({f"verify.check{k:02d}_s": "s" for k in range(1, 12)})
        got = {name: body["unit"] for name, body in out["metrics"].items()}
        assert got == want
        if trace:
            m = {name: body["value"] for name, body in out["metrics"].items()}
            layers = sum(v for name, v in m.items() if name.endswith(".self_s"))
            assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.cpu_s"], rel=1e-9)


def test_no_sources_means_no_result(tmp_path):
    """In a directory that holds only the benchmark, it fails without a result."""
    import shutil

    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "partition-scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- corrupted answers are caught ---------------------------------------------------


def test_swapped_automorphism_map_is_rejected():
    u = cylab.canonical_strong(3, 3, 3)
    good = cylab.find_automorphism(u, (0, 3), (1, 4))
    assert oracle.check_mapping(u.base, good, (0, 3), (1, 4)) is None
    bad = list(good)
    bad[0], bad[3] = bad[3], bad[0]
    assert oracle.check_mapping(u.base, bad, (0, 3), (1, 4))[0] == oracle.BAD_WITNESS


def test_non_automorphism_refusal_witness_is_rejected():
    """The map cylab returns for the two-sided relation R over {R}."""
    core = frozenset(range(3))
    rel = {(x, y) for x in range(6) for y in range(6) if (x in core) != (y in core)}
    base = cylab.Structure(6, cylab.Vocabulary((("R", 2),), 3), {"R": rel})
    got = oracle.check_moving_automorphism(base, (0, 1, 3, 2, 4, 5), rel)
    assert got[0] == oracle.BAD_WITNESS


def test_wrong_formula_is_rejected():
    u = cylab.canonical_strong(3, 3, 3)
    target = frozenset(t for t in oracle.TupleSpace(u.base).tuples if t[0] in u.core)
    assert oracle.check_formula_text("P(v0)", u.vocab, u.base, target) is None
    assert oracle.check_formula_text("!P(v0)", u.vocab, u.base, target)[0] == oracle.WRONG


def _first(ops, kind):
    return next(op for op in ops if op.kind == kind)


def test_corrupted_partition_answer_is_rejected():
    op = _first(workloads.PartitionScale(1, "").ops(0), "partition")
    alg, unary, swept, types = op.run(lambda *a: None)
    assert op.check((alg, unary, swept, types)) is None
    assert op.check((alg, unary, [alg.zero] + swept[1:], types))[0] == oracle.WRONG


def test_corrupted_evaluation_is_rejected():
    ops = workloads.FormulaEval(1, "").ops(0)
    build = _first(ops, "partition")
    build.check(build.run(lambda *a: None))
    op = _first(ops, "atom-eval")
    got = op.run(lambda *a: None)
    assert op.check(got) is None
    assert op.check(frozenset(list(got)[1:]))[0] == oracle.WRONG


def test_corrupted_cli_answer_is_rejected(tmp_path):
    wl = workloads.CliQueries(1, str(tmp_path / "work"))
    try:
        op = _first(wl.ops(0), "csn")
        rc, text = op.run(lambda *a: None)
        assert op.check((rc, text)) is None
        payload = json.loads(text)
        payload["atoms"] += 1
        assert op.check((rc, json.dumps(payload)))[0] == oracle.WRONG
    finally:
        wl.close()
