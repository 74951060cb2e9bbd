"""Command-line front end.

Exit codes follow one convention across subcommands: 0 when the queried
property holds (or the command simply succeeds), 1 when it fails with a
machine-readable witness, 2 on input or usage errors.  ``--json`` prints
a single JSON document instead of the human lines.

``verify`` honors the CYLAB_THREADS environment variable: values above 1
run the suite's checks in a thread pool, with the report order fixed by
check number regardless of completion order.  Nothing here touches the
network.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .syntax import ParseError, parse_formula, render_formula
from .structures import (
    CoredStructure,
    SetEvaluator,
    StructureFamily,
    evaluate,
    find_automorphism,
    load_structure,
    validate_cored_structure,
)
from .algebra import build_csn, is_definable
from .lab import (
    DefinabilityProblem,
    InterpolationProblem,
    certify_strong,
    core_definable_in_reduct,
    find_interpolant,
    separate,
    svenonius_explicit,
    verify_interpolant,
)
from .verify import run_suite

_SIZE_WARNING = 12


def _emit(args, payload: dict, human_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _load(path, args, validate=False) -> CoredStructure:
    u = load_structure(path, validate=validate)
    if u.n < 2:
        raise ValueError(f"{path}: commands need n >= 2, file has n={u.n}")
    if args.n is not None and u.n != args.n:
        raise ValueError(f"{path}: file has n={u.n}, flag says n={args.n}")
    return u


def _load_family(paths, args) -> StructureFamily:
    return StructureFamily(tuple(_load(p, args, validate=True) for p in paths))


def _names(spec: str | None):
    if spec is None or spec == "":
        return ()
    return tuple(s.strip() for s in spec.split(",") if s.strip())


def _tuple_arg(spec: str) -> tuple:
    return tuple(int(x) for x in spec.split(",")) if spec else ()


def cmd_check(args) -> int:
    u = _load(args.path, args, validate=False)
    report = validate_cored_structure(u.base, u.core)
    _emit(
        args,
        report.to_json(),
        ["ok"]
        if report.ok
        else [f"violation [{v.kind}] {v.message}" for v in report.violations],
    )
    return 0 if report.ok else 1


def cmd_strong(args) -> int:
    u = _load(args.path, args, validate=False)
    report = validate_cored_structure(u.base, u.core)
    if not report.ok:
        raise ValueError(
            "not a valid cored structure: "
            + "; ".join(v.message for v in report.violations)
        )
    cert = certify_strong(CoredStructure(u.base, u.core))
    if cert.ok:
        _emit(args, cert.to_json(), [f"strong (reducts={cert.reducts_checked})"])
        return 0
    w = cert.witness
    _emit(
        args,
        cert.to_json(),
        [
            "not strong:",
            f"  reduct V = {list(w.sub_vocab)}",
            f"  element atoms = {list(w.element_atoms)} (arity {w.arity})",
            f"  failing pair i={w.i} j={w.j}",
        ],
    )
    return 1


def cmd_interpolate(args) -> int:
    family = _load_family(args.paths, args)
    phi = parse_formula(args.phi, family.vocab)
    psi = parse_formula(args.psi, family.vocab)
    problem = InterpolationProblem(phi, psi, family, args.mode)
    report = find_interpolant(problem)
    payload = report.to_json()
    payload["family"] = list(args.paths)
    if report.outcome == "found":
        payload["verified"] = verify_interpolant(problem, report.formula)
        _emit(
            args,
            payload,
            [
                f"interpolant ({args.mode}, relative to {len(family)} structures):",
                f"  {render_formula(report.formula)}",
            ],
        )
        return 0
    lines = [f"no {args.mode} interpolant: {report.outcome}", f"  witness: {report.witness}"]
    _emit(args, payload, lines)
    return 1


def cmd_verify(args) -> int:
    if args.n < 3:
        raise ValueError(f"the suite needs n >= 3, got --n {args.n}")
    if args.size is not None and args.size < 2 * args.n:
        raise ValueError(f"--size must be at least 2n = {2 * args.n}")
    if args.size is not None and args.size > _SIZE_WARNING:
        print(
            f"warning: --size {args.size} exceeds {_SIZE_WARNING};"
            " expect long runtimes, budgets not enforced",
            file=sys.stderr,
        )
    threads = os.environ.get("CYLAB_THREADS", "1")
    try:
        threads = int(threads)
    except ValueError:
        raise ValueError(f"CYLAB_THREADS must be an integer, got {threads!r}") from None
    results = run_suite(
        n=args.n,
        seed=args.seed,
        corpus_size=args.corpus,
        max_size=args.size,
        threads=threads,
    )
    payload = {"ok": all(r.ok for r in results), "checks": [r.to_json() for r in results]}
    _emit(args, payload, [r.line() for r in results])
    return 0 if payload["ok"] else 1


def cmd_csn(args) -> int:
    u = _load(args.path, args, validate=True)
    base = u.base.reduct(_names(args.reduct)) if args.reduct is not None else u.base
    alg = build_csn(base)
    report = alg.report()
    _emit(
        args,
        report,
        [
            f"atoms: {report['atoms']}",
            f"carrier: 2^{report['carrier_log2']}",
            f"atom sizes: {report['atom_sizes']}",
            f"unary definables: {report['unary_definables']}",
        ],
    )
    return 0


def cmd_eval(args) -> int:
    u = _load(args.path, args, validate=True)
    f = parse_formula(args.formula, u.vocab)
    if args.assignment:
        asg = _tuple_arg(args.assignment)
        value = evaluate(f, u.base, asg)
        _emit(args, {"value": value, "assignment": list(asg)}, [str(value).lower()])
        return 0 if value else 1
    ev = SetEvaluator(u.base)
    sat = ev.mask(f)
    count = sat.bit_count()
    total = u.size**u.n
    valid = sat == ev.full
    _emit(
        args,
        {"satisfying": count, "total": total, "valid": valid},
        [f"satisfying assignments: {count} / {total}" + (" (valid)" if valid else "")],
    )
    return 0 if valid else 1


def cmd_definable(args) -> int:
    u = _load(args.path, args, validate=True)
    names = _names(args.reduct) if args.reduct is not None else u.vocab.names()
    if args.core:
        formula = core_definable_in_reduct(u, names)
    else:
        if not args.relation:
            raise ValueError("need --relation NAME or --core")
        from .structures import relation_cylinder

        rel = u.relation(args.relation)
        cyl = relation_cylinder(rel, u.vocab.arity(args.relation), u.size, u.n)
        formula = is_definable(cyl, build_csn(u.base.reduct(names)))
    target = "core" if args.core else args.relation
    if formula is None:
        _emit(
            args,
            {"definable": False, "target": target, "reduct": list(names)},
            [f"{target} is not definable over {list(names)}"],
        )
        return 1
    _emit(
        args,
        {
            "definable": True,
            "target": target,
            "reduct": list(names),
            "formula": render_formula(formula),
        },
        [render_formula(formula)],
    )
    return 0


def cmd_automorphism(args) -> int:
    u = _load(args.path, args, validate=True)
    a = _tuple_arg(args.source)
    b = _tuple_arg(args.target)
    perm = find_automorphism(u, a, b)
    if perm is None:
        _emit(
            args,
            {"found": False, "source": list(a), "target": list(b)},
            ["no automorphism: the tuples have different types"],
        )
        return 1
    _emit(
        args,
        {"found": True, "map": list(perm)},
        ["automorphism: " + " ".join(f"{i}->{x}" for i, x in enumerate(perm))],
    )
    return 0


def cmd_svenonius(args) -> int:
    u = _load(args.path, args, validate=True)
    names = _names(args.reduct) if args.reduct is not None else ()
    problem = DefinabilityProblem(u, names, relation_name=args.relation)
    report = svenonius_explicit(problem)
    payload = report.to_json()
    if report.definable:
        _emit(args, payload, [render_formula(report.formula)])
        return 0
    _emit(
        args,
        payload,
        [
            f"not definable over {list(names)}",
            f"  violating map: {list(report.violating_map)}",
        ],
    )
    return 1


def cmd_separate(args) -> int:
    k0 = _load_family(args.k0, args)
    k1 = _load_family(args.k1, args)
    report = separate(k0, k1)
    payload = report.to_json()
    if report.separated:
        _emit(args, payload, [render_formula(report.formula)])
        return 0
    _emit(
        args,
        payload,
        [f"not separable: members {report.witness} share a profile"],
    )
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylab",
        description="n-variable logic workbench over finite cored structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, paths="?"):
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        p.add_argument("--n", type=int, default=None, help="expected variable count")

    p = sub.add_parser("check", help="validate a structure file")
    p.add_argument("path")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("strong", help="certify strongness or print a witness")
    p.add_argument("path")
    common(p)
    p.set_defaults(fn=cmd_strong)

    p = sub.add_parser("interpolate", help="search for an interpolant over a family")
    p.add_argument("paths", nargs="+", metavar="structure.json")
    p.add_argument("--mode", choices=("weak", "strong"), required=True)
    p.add_argument("--phi", required=True, help="premise formula")
    p.add_argument("--psi", required=True, help="conclusion formula")
    common(p)
    p.set_defaults(fn=cmd_interpolate)

    p = sub.add_parser(
        "verify",
        aliases=["verify-paper"],
        help="run the full verification suite",
    )
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--size", type=int, default=None, help="largest corpus universe")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--corpus", type=int, default=200, help="randomized corpus size")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("csn", help="algebra statistics for a structure")
    p.add_argument("path")
    p.add_argument("--reduct", help="comma-separated symbols to keep")
    common(p)
    p.set_defaults(fn=cmd_csn)

    p = sub.add_parser("eval", help="evaluate a formula in a structure")
    p.add_argument("path")
    p.add_argument("--formula", "-f", required=True)
    p.add_argument("--assignment", help="comma-separated values for v0..v{n-1}")
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("definable", help="definability of a relation or the core")
    p.add_argument("path")
    p.add_argument("--relation", help="relation symbol to test")
    p.add_argument("--core", action="store_true", help="test the core instead")
    p.add_argument("--reduct", help="comma-separated symbols to keep")
    common(p)
    p.set_defaults(fn=cmd_definable)

    p = sub.add_parser("automorphism", help="map one tuple onto another")
    p.add_argument("path")
    p.add_argument("--source", required=True, help="comma-separated tuple")
    p.add_argument("--target", required=True, help="comma-separated tuple")
    common(p)
    p.set_defaults(fn=cmd_automorphism)

    p = sub.add_parser(
        "svenonius", help="explicit definition from symmetry invariance"
    )
    p.add_argument("path")
    p.add_argument("--relation", required=True)
    p.add_argument("--reduct", help="comma-separated sub-vocabulary")
    common(p)
    p.set_defaults(fn=cmd_svenonius)

    p = sub.add_parser("separate", help="separate two families by one sentence")
    p.add_argument("--k0", nargs="+", required=True, metavar="structure.json")
    p.add_argument("--k1", nargs="+", required=True, metavar="structure.json")
    common(p)
    p.set_defaults(fn=cmd_separate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not hasattr(args, "json"):
        args.json = False
    if not hasattr(args, "n"):
        args.n = None
    try:
        return args.fn(args)
    except (ParseError, ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
