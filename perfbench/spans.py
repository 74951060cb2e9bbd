"""Spans around cylab's layers, installed from outside the package.

cylab modules bind each other's functions with ``from .x import y``, so
a wrapper must replace every binding of the original object in every
``cylab`` module, not only the defining one.  Four methods are wrapped
on their classes.  ``install`` returns an undo list; between traced
passes the original functions are back in place, so untraced passes and
the answer checks pay nothing.

Spans live in flat lists (name, start, end, parent, op id) and are
written out when the run ends.  Span times are CPU time of the process
(``time.process_time``), the clock of every time the benchmark reports.
A layer's self time is its span's duration minus the durations of its
child spans.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import process_time

from cylab.syntax import And, Exists, Forall, Iff, Implies, Not, Or


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.partitions: list[tuple[int, int, float]] = []  # (n, size, seconds)
        self.formulas: dict[int, object] = {}

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def wrap(self, name: str, fn, after=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, op_ids, stack = self.parents, self.op_ids, self.stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = process_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = process_time()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(self, args, out, t1 - t0)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- summaries -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name; the sum over names equals the time
        covered by top-level spans."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[idx]
        out: dict[str, float] = defaultdict(float)
        for name, t in zip(self.names, own):
            out[name] += t
        return out

    def top_level_seconds(self) -> float:
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0)

    def largest(self, name: str) -> float:
        return max(
            (e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name),
            default=0.0,
        )

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents, self.op_ids))


# -- what gets wrapped -----------------------------------------------------------


def _after_partition(tr: Tracer, args, out, seconds):
    part = args[0]
    sizes = [s.size for s in part.structures]
    tr.count("algebra.partition.tuples", sum(size**part.n for size in sizes))
    tr.count("algebra.atoms", part.atom_count)
    tr.partitions.append((part.n, max(sizes), seconds))


def _after_formula(tr: Tracer, args, out, seconds):
    tr.formulas[id(out)] = out


def _after_definable_set(tr: Tracer, args, out, seconds):
    tr.count("structures.definable_set.tuples_out", len(out))


def _after_render(tr: Tracer, args, out, seconds):
    tr.count("syntax.render.bytes", len(out))


def _counter_after(field: str, counter: str):
    def after(tr: Tracer, args, out, seconds):
        tr.count(counter, getattr(out, field))

    return after


FUNCTIONS = (
    ("cylab.algebra", "invariant_components", "algebra.element", None),
    ("cylab.structures", "definable_set", "structures.definable_set", _after_definable_set),
    ("cylab.structures", "validate_cored_structure", "structures.validate", None),
    ("cylab.structures", "load_structure", "structures.load", None),
    ("cylab.structures", "find_automorphism", "structures.find_automorphism", None),
    ("cylab.structures", "consequence_over", "structures.consequence_over", None),
    ("cylab.syntax", "parse_formula", "syntax.parse", None),
    ("cylab.syntax", "render_formula", "syntax.render", _after_render),
    (
        "cylab.lab",
        "svenonius_explicit",
        "lab.svenonius",
        _counter_after("maps_checked", "lab.svenonius.maps_checked"),
    ),
    (
        "cylab.lab",
        "certify_strong",
        "lab.certify_strong",
        _counter_after("elements_checked", "lab.certify_strong.elements_checked"),
    ),
    (
        "cylab.lab",
        "find_interpolant",
        "lab.find_interpolant",
        _counter_after("candidates_examined", "lab.find_interpolant.candidates_examined"),
    ),
    ("cylab.lab", "separate", "lab.separate", None),
    ("cylab.cli", "main", "cli.main", None),
)

METHODS = (
    ("cylab.algebra", "TypePartition", "__init__", "algebra.partition", _after_partition),
    ("cylab.algebra", "TypePartition", "defining_formula", "algebra.defining_formula", _after_formula),
    ("cylab.algebra", "Element", "cyl", "algebra.element", None),
    ("cylab.algebra", "CsnAlgebra", "tuple_type", "algebra.element", None),
)

SPAN_NAMES = tuple(sorted({row[2] for row in FUNCTIONS} | {row[3] for row in METHODS}))


def install(tr: Tracer) -> list:
    """Replace every binding of the wrapped callables; returns the undo list."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "cylab" and m]
    undo = []
    for modname, attr, span, after in FUNCTIONS:
        orig = getattr(sys.modules[modname], attr)
        wrapped = tr.wrap(span, orig, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)
    for modname, cls_name, attr, span, after in METHODS:
        cls = getattr(sys.modules[modname], cls_name)
        orig = cls.__dict__[attr]
        undo.append((cls, attr, orig))
        setattr(cls, attr, tr.wrap(span, orig, after))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)


# -- formula size, counted after the traced pass -----------------------------------


def _children(node):
    if isinstance(node, Not):
        return (node.body,)
    if isinstance(node, (And, Or, Implies, Iff)):
        return (node.left, node.right)
    if isinstance(node, (Exists, Forall)):
        return (node.body,)
    return ()


def formula_sizes(formulas) -> tuple[int, int]:
    """Distinct DAG nodes over all formulas together, and the summed tree
    size of each formula (shared subtrees counted per occurrence)."""
    tree: dict[int, int] = {}
    for root in formulas:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in tree:
                continue
            kids = _children(node)
            if expanded or not kids:
                tree[id(node)] = 1 + sum(tree[id(k)] for k in kids)
            else:
                stack.append((node, True))
                stack.extend((k, False) for k in kids if id(k) not in tree)
    return len(tree), sum(tree[id(f)] for f in formulas)


def size_exponent(partitions) -> float:
    """Least-squares slope of log(partition seconds) on log(universe
    size), over the partitions at the most common n.  Zero means
    partition time does not grow with the universe; tuple-level
    refinement grows roughly like size^(n+1)."""
    if not partitions:
        return 0.0
    by_n: dict[int, list] = defaultdict(list)
    for n, size, seconds in partitions:
        by_n[n].append((size, seconds))
    points = max(by_n.values(), key=len)
    if len({size for size, _ in points}) < 2:
        return 0.0
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(max(seconds, 1e-9)) for _, seconds in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
