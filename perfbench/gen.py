"""Seeded inputs for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain cylab
objects or text; nothing here times or checks anything.  Relations are
random unions of signature classes, so every structure is a valid cored
structure by construction.
"""

from __future__ import annotations

import itertools
import random

from cylab import (
    CoredStructure,
    Structure,
    Vocabulary,
    enumerate_signatures,
    sim_signature,
)
from cylab.structures import signature_members


def sub_rng(seed: int, *path) -> random.Random:
    """An independent stream for one part of one run, fixed by the seed."""
    return random.Random("/".join(str(p) for p in (seed,) + path))


def signature_relation(sigs, core, size: int) -> set:
    rel: set = set()
    for sig in sigs:
        rel.update(signature_members(sig, core, size))
    return rel


def cored(
    rng: random.Random,
    n: int,
    size: int,
    symbols,
    core_size: int | None = None,
    pinned: dict | None = None,
) -> CoredStructure:
    """A cored structure over ``symbols`` (name, arity pairs).

    Each symbol not in ``pinned`` is a random union of signature classes
    of its arity; ``pinned`` maps a symbol to a callable ``(core, size)
    -> tuple set`` for relations whose shape a workload needs.
    """
    if core_size is None:
        core_size = rng.randint(n, size - n)
    core = frozenset(range(core_size))
    interp = {}
    for name, arity in symbols:
        if pinned and name in pinned:
            interp[name] = pinned[name](core, size)
        else:
            sigs = [s for s in enumerate_signatures(arity) if rng.random() < 0.5]
            interp[name] = signature_relation(sigs, core, size)
    return CoredStructure(Structure(size, Vocabulary(tuple(symbols), n), interp), core)


def core_relation(core, size):
    """The core as a unary relation: a symbol that defines the core."""
    return {(x,) for x in core}


def distinct_pairs(core, size):
    """x != y: fixed by equality alone, so every permutation preserves
    it, and a symmetry sweep over it must try all size! maps."""
    return {(x, y) for x in range(size) for y in range(size) if x != y}


def symmetric_unary_family(n: int, symbols) -> list[CoredStructure]:
    """Every structure on 2n points, core the first n, whose unary
    symbols each name one of the four symmetric sets (empty, core,
    co-core, universe).  Refinement stops at stage 0 on all of them, so
    formulas built over them stay small."""
    size = 2 * n
    core = frozenset(range(n))
    choices = (frozenset(), core, frozenset(range(n, size)), frozenset(range(size)))
    out = []
    for sets in itertools.product(choices, repeat=len(symbols)):
        interp = {name: {(x,) for x in s} for (name, _), s in zip(symbols, sets)}
        out.append(CoredStructure(Structure(size, Vocabulary(tuple(symbols), n), interp), core))
    return out


def twin(u: CoredStructure, size: int) -> CoredStructure:
    """Same signature classes on a universe of another size: with n
    points on each side of the core, the two satisfy the same n-variable
    sentences, so no sentence separates them."""
    core = u.core
    interp = {}
    for name, _ in u.vocab.symbols:
        sigs = {sim_signature(t, core) for t in u.relation(name)}
        interp[name] = signature_relation(sigs, core, size)
    return CoredStructure(Structure(size, u.vocab, interp), core)


def formula_text(rng: random.Random, vocab: Vocabulary, depth: int) -> str:
    """Random formula in the concrete syntax, all connectives and both
    quantifiers, parenthesized so that parse order is explicit."""
    n = vocab.n
    if depth <= 0 or rng.random() < 0.25:
        if vocab.symbols and rng.random() < 0.75:
            name, arity = rng.choice(vocab.symbols)
            args = ", ".join(f"v{rng.randrange(n)}" for _ in range(arity))
            return f"{name}({args})"
        return f"v{rng.randrange(n)} = v{rng.randrange(n)}"
    kind = rng.randrange(7)
    if kind == 0:
        return "!" + formula_text(rng, vocab, depth - 1)
    if kind in (1, 2, 3, 4):
        op = ("&", "|", "->", "<->")[kind - 1]
        left = formula_text(rng, vocab, depth - 1)
        right = formula_text(rng, vocab, depth - 1)
        return f"({left} {op} {right})"
    quant = "E" if kind == 5 else "A"
    return f"{quant} v{rng.randrange(n)}. ({formula_text(rng, vocab, depth - 1)})"


def tuple_of(rng: random.Random, size: int, k: int) -> tuple:
    return tuple(rng.randrange(size) for _ in range(k))
