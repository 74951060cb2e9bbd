"""The bitset set evaluator: range checks, depth, agreement with the
pointwise truth definition, and memory at n = 4."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_syntax import FORMULAS

import cylab
from cylab.structures import (
    SetEvaluator,
    Structure,
    all_tuples,
    canonical_strong,
    definable_set,
    evaluate,
)
from cylab.syntax import (
    Atom,
    Const,
    Eq,
    Exists,
    Forall,
    Not,
    Vocabulary,
    formula_size,
    free_vars,
)


@pytest.fixture(scope="module")
def canonical():
    return canonical_strong(3, 3, 3)


class TestVariableRange:
    @pytest.mark.parametrize(
        "f, index",
        [
            (Eq(0, -1), "-1"),
            (Eq(0, 3), "3"),
            (Exists(7, Atom("P", (0,))), "7"),
            (Exists(-1, Atom("P", (2,))), "-1"),
            (Forall(3, Eq(0, 0)), "3"),
            (Not(Atom("P", (-1,))), "-1"),
        ],
    )
    def test_rejected_by_both_evaluators(self, canonical, f, index):
        with pytest.raises(ValueError, match=f"variable index {index} out of range"):
            definable_set(f, canonical.base)
        with pytest.raises(ValueError, match=f"variable index {index} out of range"):
            evaluate(f, canonical.base, (0, 0, 5))

    def test_pointwise_atom_does_not_read_last_variable(self, canonical):
        with pytest.raises(ValueError, match="variable index -1 out of range"):
            evaluate(Atom("P", (-1,)), canonical.base, (0, 0, 5))

    def test_in_range_indices_still_evaluate(self, canonical):
        assert len(definable_set(Eq(0, 2), canonical.base)) == 36
        assert len(definable_set(Exists(2, Atom("P", (0,))), canonical.base)) == 108


class TestDeepFormulas:
    def test_chain_deeper_than_the_recursion_limit(self, canonical):
        depth = 5000
        assert depth > sys.getrecursionlimit()
        base = Atom("P", (0,))
        f = base
        for k in range(depth):
            f = Exists(1, f) if k % 2 == 0 else Not(f)
        # E v1 leaves P(v0) unchanged and the 2500 negations cancel
        assert definable_set(f, canonical.base) == definable_set(base, canonical.base)
        assert free_vars(f) == {0}
        assert formula_size(f) == depth + 1


class TestSetEvaluator:
    def test_codes_are_lexicographic(self):
        s = Structure(3, Vocabulary((), 2))
        ev = SetEvaluator(s)
        assert ev.bits([(0, 0)]) == 1
        assert ev.bits([(0, 1)]) == 2
        assert ev.bits([(1, 0)]) == 1 << 3
        assert ev.bits(all_tuples(3, 2)) == ev.full

    def test_bits_and_tuples_round_trip(self):
        ev = SetEvaluator(Structure(5, Vocabulary((), 3)))
        some = frozenset(random.Random(3).sample(all_tuples(5, 3), 40))
        mask = ev.bits(some)
        assert mask.bit_count() == 40
        assert ev.tuples(mask) == some
        assert ev.least(mask) == min(some)
        assert ev.tuples(0) == frozenset()

    def test_memo_outlives_the_callers_formulas(self, canonical):
        # each formula is dropped after its call; the memo is keyed by
        # node id, so a recycled id must not return a stale mask
        ev = SetEvaluator(canonical.base)
        for k in range(60):
            f = Not(Atom("P", (k % 3,))) if k % 2 else Exists(k % 3, Eq(0, 1))
            assert ev.mask(f) == SetEvaluator(canonical.base).mask(f)
        assert ev.mask(Const(True)) == ev.full


# --- bitsets against the pointwise truth definition ------------------------


def _random_structure(rng: random.Random, n: int, size: int) -> Structure:
    symbols = [("P", 1), ("Q", 1), ("R", 2), ("S", 3)]
    symbols = [(name, arity) for name, arity in symbols if arity <= n]
    interp = {
        name: {t for t in all_tuples(size, arity) if rng.random() < 0.5}
        for name, arity in symbols
    }
    return Structure(size, Vocabulary(tuple(symbols), n), interp)


# size**n is not a multiple of 8 in any of these, and one universe is a point
STRUCTURES = [
    _random_structure(random.Random(seed), n, size)
    for seed, (n, size) in enumerate([(3, 5), (4, 3), (2, 7), (3, 1)])
]


def _fit(f, n: int):
    """f over variables v0..v{n-1}: index k reads as k mod n, and the
    ternary S becomes R on its first two places when n = 2."""
    if isinstance(f, Atom):
        args = tuple(a % n for a in f.args)
        return Atom("R", args[:2]) if len(args) > n else Atom(f.name, args)
    if isinstance(f, Eq):
        return Eq(f.i % n, f.j % n)
    if isinstance(f, Const):
        return f
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var % n, _fit(f.body, n))
    if isinstance(f, Not):
        return Not(_fit(f.body, n))
    return type(f)(_fit(f.left, n), _fit(f.right, n))


@given(FORMULAS, st.sampled_from(STRUCTURES))
@settings(max_examples=200, deadline=None)
def test_definable_set_matches_pointwise(f, structure):
    n = structure.vocab.n
    f = _fit(f, n)
    want = frozenset(
        t for t in all_tuples(structure.size, n) if evaluate(f, structure, t)
    )
    assert definable_set(f, structure) == want


# --- memory at n = 4 ----------------------------------------------------------

_N4_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from cylab import CoredStructure, Structure, Vocabulary, build_csn
core = range(4)
rel = {(x, y) for x in core for y in range(8) if x != y}
u = CoredStructure(Structure(8, Vocabulary((("R0", 2),), 4), {"R0": rel}), core)
print(build_csn(u.base).partition.check_defining_formulas())
"""


def test_n4_defining_formulas_check_under_one_gib():
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=str(Path(cylab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _N4_CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["True"]
