"""Count the known defects of cylab at the checked-out commit.

    python3 perfbench/census.py [--seed N]

Run from the root of a source checkout.  The timed workloads must run
without a failed op, so they keep out of the regimes where cylab is
known to fail; this census goes into exactly those regimes and counts
every failure an independent check finds.  A fix shows here as a count
that drops to zero.  The last stdout line is one JSON object.

Probes:
  svenonius   ``svenonius_explicit`` on every (relation, sub-vocabulary)
              pair of a seeded 60-structure n = 3 corpus (universes 6-7),
              plus the two-sided relation R of a 6-point structure.  A
              refusal must carry an automorphism of the reduct that moves
              the target, and must not refuse a union of reduct types.
  n4-memory   one n = 4, universe-8, two-stage structure with a ternary
              symbol: ``definable_set`` of one atom's defining formula in
              a process capped at 1 GiB of address space.
  strong      ``cylab strong --json`` on seeded n = 4, universe-8 files;
              any exception that escapes ``cylab.cli.main``.  The
              RuntimeError guard in ``certify_strong`` needs more than 20
              candidate components, and at n <= 4 there are at most 16
              (one per injective signature), so this count is expected to
              stay 0 until the guard or the bound changes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
N4_CAP = 1 << 30


def probe_svenonius(seed: int) -> dict:
    import cylab
    from cylab.lab import DefinabilityProblem
    from cylab.verify import random_corpus

    import oracle

    corpus = random_corpus(3, 60, seed, (6, 7))
    core = frozenset(range(3))
    two_sided = {(x, y) for x in range(6) for y in range(6) if (x in core) != (y in core)}
    example = cylab.CoredStructure(
        cylab.Structure(6, cylab.Vocabulary((("R", 2),), 3), {"R": two_sided}), core
    )
    counts = {"calls": 0, "refusals": 0, "bad_witness": 0, "wrong_answer": 0, "exception": 0}
    examples = []
    for u in corpus + [example]:
        names = u.vocab.names()
        for r in range(len(names) + 1):
            for sub in itertools.combinations(names, r):
                red = u.base.reduct(sub)
                (types,), _ = oracle.n_types([red])
                for target in names:
                    counts["calls"] += 1
                    rel = u.relation(target)
                    cyl = oracle.cylinder_of(rel, u.vocab.arity(target), u.size, u.n)
                    definable = oracle.is_union_of_types(types, cyl)
                    try:
                        report = cylab.svenonius_explicit(DefinabilityProblem(u, sub, relation_name=target))
                    except Exception as err:  # counted, not raised
                        counts["exception"] += 1
                        examples.append(f"{target} over {list(sub)}: {type(err).__name__}: {err}")
                        continue
                    found = []
                    if report.definable != definable:
                        found.append((oracle.WRONG, f"definable={report.definable}, types say {definable}"))
                    if not report.definable:
                        counts["refusals"] += 1
                        found.append(oracle.check_moving_automorphism(red, report.violating_map, rel))
                    for kind, message in filter(None, found):
                        counts[kind] += 1
                        if len(examples) < 6:
                            examples.append(f"size {u.size} {target} over {list(sub)}: {message}")
    return {"counts": counts, "examples": examples}


def n4_memory_structure(seed: int):
    import gen
    import oracle

    rng = gen.sub_rng(seed, "census", "n4-memory")
    while True:
        u = gen.cored(rng, 4, 8, (("R0", 3),), core_size=4)
        if oracle.n_types([u.base])[1] >= 1:
            return u


def probe_n4_memory_child(seed: int) -> dict:
    """Runs in its own process: the address-space cap stays there."""
    u = n4_memory_structure(seed)
    import cylab

    resource.setrlimit(resource.RLIMIT_AS, (N4_CAP, N4_CAP))
    alg = cylab.build_csn(u.base)
    start = time.perf_counter()
    try:
        got = cylab.definable_set(alg.partition.defining_formula(0), u.base)
    except MemoryError:
        return {"outcome": "MemoryError", "seconds": time.perf_counter() - start}
    except RecursionError:
        return {"outcome": "RecursionError", "seconds": time.perf_counter() - start}
    ok = got == alg.partition.atom_members(0, 0)
    return {"outcome": "ok" if ok else "wrong_answer", "seconds": time.perf_counter() - start}


def probe_n4_memory(seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--seed", str(seed), "--n4-child"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        return {"outcome": f"child exited with code {proc.returncode}"}
    return json.loads(proc.stdout.splitlines()[-1])


def probe_strong(seed: int, count: int = 12) -> dict:
    import cylab
    import cylab.cli

    import gen

    workdir = os.path.join(ROOT, ".perfbench", f"census-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    rng = gen.sub_rng(seed, "census", "strong")
    counts = {"calls": 0, "exit0": 0, "exit1": 0, "exit2": 0, "exception": 0}
    examples = []
    try:
        for i in range(count):
            u = gen.cored(rng, 4, 8, (("A", 1), ("B", 2), ("C", 3)), core_size=4)
            path = os.path.join(workdir, f"n4-{i}.json")
            cylab.save_structure(u, path)
            counts["calls"] += 1
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    rc = cylab.cli.main(["strong", path, "--json"])
            except Exception as err:  # counted, not raised
                counts["exception"] += 1
                if len(examples) < 3:
                    examples.append(f"{type(err).__name__}: {err}")
                continue
            counts[f"exit{rc}"] += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"counts": counts, "examples": examples}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="count cylab's known defects")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--n4-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cylab", "__init__.py")):
        print(f"census: no cylab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.n4_child:
        print(json.dumps(probe_n4_memory_child(args.seed)))
        return 0
    report = {
        "seed": args.seed,
        "svenonius": probe_svenonius(args.seed),
        "n4-memory": probe_n4_memory(args.seed),
        "strong": probe_strong(args.seed),
    }
    for name, body in report.items():
        if name != "seed":
            print(f"# {name}: {json.dumps(body)}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
