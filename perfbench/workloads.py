"""The four workloads.

A workload turns the run seed into passes.  Pass ``k`` is a fixed list
of ops over inputs drawn from the stream ``(seed, workload, k)``: the
same composition every pass (sizes, op kinds, counts), fresh contents,
so no op of one pass can be answered from a cache filled by another.
Each op is a call into cylab (timed) plus an answer check (not timed).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable

import cylab
import cylab.cli
from cylab import CoredStructure, Structure, Vocabulary, save_structure

import gen
import oracle
from oracle import BAD_WITNESS, WRONG


@dataclass
class Op:
    """One call into cylab.  ``run(count)`` is timed; ``check(result)``
    is not, and returns None or a (failure kind, message) pair.  ``split``
    turns the result of an op that is a whole suite of checks into one
    (label, seconds, failure) outcome per check."""

    kind: str
    n: int
    size: int
    run: Callable[[Callable], Any]
    check: Callable[[Any], tuple | None]
    split: Callable[[Any], list] | None = None


def _four(u) -> set:
    return {frozenset(), frozenset(range(u.size)), u.core, u.cocore}


# --- verify-stock ------------------------------------------------------------------


class VerifyStock:
    """``cylab verify`` as users run it: the 11-check table with budgets
    enforced, one thread.  Pass k runs the suite on a seed drawn from
    the run seed; check 9's time and memory swing with the suite seed,
    so a run takes the median over several."""

    name = "verify-stock"
    memory_cap = None

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def ops(self, k: int) -> list[Op]:
        suite_seed = gen.sub_rng(self.seed, self.name, k).randrange(1 << 30)

        def run(count):
            return cylab.run_suite(n=3, seed=suite_seed, corpus_size=200)

        def split(results):
            return [
                (
                    f"check{r.number:02d}",
                    r.seconds,
                    None if r.ok else (WRONG, f"FAIL {r.number}: {r.detail}"),
                )
                for r in results
            ]

        def check(results):
            if [r.number for r in results] != list(range(1, 12)):
                return WRONG, "the table does not list checks 1..11"
            return None

        return [Op("verify", 3, 8, run, check, split)]

    def close(self):
        pass


# --- partition-scale ----------------------------------------------------------------

PARTITION_N3_SIZES = (6, 8, 10, 12, 14, 16, 18, 20, 22, 24)
PARTITION_N3_PER_SIZE = 2
PARTITION_N4_SIZES = (8, 9, 10, 11)
# A names the core, so refinement always stops after one round and an
# op's cost depends on its universe size, not on how many rounds a drawn
# structure happens to need: the universe size is the scaling axis.
PARTITION_N3_SYMBOLS = (("A", 1), ("R0", 3), ("R1", 2))
PARTITION_N4_SYMBOLS = (("A", 1), ("R0", 2))


class PartitionScale:
    """Refinement alone, over universes that grow: each op builds the
    algebra of a structure no other op sees, then asks cheap questions
    of it (unary definables, a full cylindrification sweep of every
    atom, a few tuple types)."""

    name = "partition-scale"
    memory_cap = None

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def ops(self, k: int) -> list[Op]:
        rng = gen.sub_rng(self.seed, self.name, k)
        plan = [(3, s, PARTITION_N3_SYMBOLS) for s in PARTITION_N3_SIZES] * PARTITION_N3_PER_SIZE
        plan += [(4, s, PARTITION_N4_SYMBOLS) for s in PARTITION_N4_SIZES]
        out = []
        for n, size, symbols in plan:
            u = gen.cored(rng, n, size, symbols, pinned={"A": gen.core_relation})
            probes = [gen.tuple_of(rng, size, m) for m in range(1, n + 1)]
            out.append(Op("partition", n, size, self._run(u, probes), self._check(u, probes)))
        return out

    @staticmethod
    def _run(u, probes):
        def run(count):
            alg = cylab.build_csn(u.base)
            unary = cylab.unary_definables(alg)
            swept = []
            for aid in range(alg.atom_count):
                el = alg.atom_element(aid)
                for i in range(alg.n):
                    el = el.cyl(i)
                swept.append(el)
            types = [alg.tuple_type(t) for t in probes]
            return alg, unary, swept, types

        return run

    @staticmethod
    def _check(u, probes):
        def check(result):
            alg, unary, swept, types = result
            bad = oracle.check_atoms(alg, u)
            if bad:
                return bad
            if not set(unary) <= _four(u):
                return WRONG, "a unary definable set outside empty/universe/core/co-core"
            if any(el != alg.one for el in swept):
                return WRONG, "an atom does not sweep to one"
            if alg.partition.atom(probes[-1]) not in types[-1]:
                return WRONG, "an n-tuple's type misses its own atom"
            return None

        return check

    def close(self):
        pass


# --- formula-eval --------------------------------------------------------------------

# Many small structures rather than a few large ones: every atom formula
# of one structure costs about the same to evaluate, so the number of
# structures per pass is what averages out the draw.  Text formulas are
# the majority of ops, so the median op is a user's formula and the tail
# is the machine-built atom formulas.
FORMULA_N3_SIZES = (6, 7, 8)
FORMULA_STRUCTURES_PER_SIZE = 4
FORMULA_N3_SYMBOLS = (("R0", 2),)
FORMULA_ATOMS_PER_STRUCTURE = 4
FORMULA_TEXTS_PER_STRUCTURE = 10
FORMULA_ROUND_TRIPS_PER_STRUCTURE = 1
FORMULA_MEMORY_CAP = 1 << 30


def pinned_n4():
    """n = 4, universe 8, core {0..3}, R0 = {(x, y) : x != y, x in core}.
    Refinement takes two stages, and evaluating one atom's defining
    formula peaks near 600 MB at this commit.  The instance is fixed, not
    drawn, so the workload's peak memory does not depend on the seed."""
    core = frozenset(range(4))
    rel = {(x, y) for x in core for y in range(8) if x != y}
    return CoredStructure(Structure(8, Vocabulary((("R0", 2),), 4), {"R0": rel}), core)


class FormulaEval:
    """The formula layer: defining formulas built and evaluated back,
    seeded text formulas parsed and evaluated, render/parse round trips,
    and one n = 4 evaluation under a 1 GiB address-space cap."""

    name = "formula-eval"
    memory_cap = FORMULA_MEMORY_CAP

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.n4 = pinned_n4()
        (self.n4_types,), _ = oracle.n_types([self.n4.base])

    @staticmethod
    def _two_stage(rng, size, count):
        """``count`` structures whose refinement needs a splitting round,
        stratified by their number of atomic types: a defining formula's
        size, and so its evaluation time, follows that number, so 2 *
        count are drawn and every other one by rank is kept."""
        drawn = []
        while len(drawn) < 2 * count:
            u = gen.cored(rng, 3, size, FORMULA_N3_SYMBOLS)
            (types,), rounds = oracle.n_types([u.base])
            if rounds >= 1:
                atomic = len(set(oracle.atomic_types([u.base])[0].values()))
                drawn.append((atomic, len(drawn), u, types))
        drawn.sort(key=lambda d: d[:2])
        return [(u, types) for _, _, u, types in drawn[1::2]]

    def ops(self, k: int) -> list[Op]:
        rng = gen.sub_rng(self.seed, self.name, k)
        out = []
        for size in FORMULA_N3_SIZES:
            for u, types in self._two_stage(rng, size, FORMULA_STRUCTURES_PER_SIZE):
                out += self._structure_ops(rng, u, types)
        out += self._n4_ops()
        return out

    def _structure_ops(self, rng, u, types):
        state: dict = {}
        n, size = u.n, u.size
        ops = [_partition_op(state, u, types)]
        atom_count = len(set(types.values()))
        for aid in sorted(rng.sample(range(atom_count), FORMULA_ATOMS_PER_STRUCTURE)):
            ops.append(Op("atom-eval", n, size, _atom_eval(state, u, aid), _atom_check(state, aid)))
        for aid in sorted(rng.sample(range(atom_count), FORMULA_ROUND_TRIPS_PER_STRUCTURE)):
            ops.append(Op("round-trip", n, size, _round_trip(state, u, aid), _round_trip_check(state, u, aid)))
        for _ in range(FORMULA_TEXTS_PER_STRUCTURE):
            text = gen.formula_text(rng, u.vocab, 4)
            ops.append(Op("text-eval", n, size, _text_eval(u, text), _text_check(u, text)))
        return ops

    def _n4_ops(self):
        u = self.n4
        state: dict = {}
        return [
            _partition_op(state, u, self.n4_types),
            Op("atom-eval", u.n, u.size, _atom_eval(state, u, 0), _atom_check(state, 0)),
        ]

    def close(self):
        pass


def _partition_op(state, u, types) -> Op:
    """Build the algebra; the ops after it in the pass read it from state."""

    def build(count):
        state["alg"] = cylab.build_csn(u.base)
        return state["alg"]

    def check(alg):
        return oracle.check_atoms(alg, u) or _check_against_types(alg, types)

    return Op("partition", u.n, u.size, build, check)


def _check_against_types(alg, types) -> tuple | None:
    """Atoms are exactly the classes of the independent refinement."""
    classes: dict = {}
    for t, c in types.items():
        classes.setdefault(c, set()).add(t)
    got = {alg.partition.atom_members(aid, 0) for aid in range(alg.atom_count)}
    if got != {frozenset(c) for c in classes.values()}:
        return WRONG, f"{alg.atom_count} atoms disagree with {len(classes)} refinement classes"
    return None


def _atom_eval(state, u, aid):
    def run(count):
        f = state["alg"].partition.defining_formula(aid)
        return cylab.definable_set(f, u.base)

    return run


def _atom_check(state, aid):
    def check(got):
        if got != state["alg"].partition.atom_members(aid, 0):
            return WRONG, f"atom {aid}'s defining formula evaluates to another set"
        return None

    return check


def _round_trip(state, u, aid):
    def run(count):
        text = cylab.render_formula(state["alg"].partition.defining_formula(aid))
        return text, cylab.parse_formula(text, u.vocab)

    return run


def _round_trip_check(state, u, aid):
    def check(result):
        text, parsed = result
        if cylab.render_formula(parsed) != text:
            return WRONG, f"atom {aid}'s formula does not round-trip"
        space = oracle.TupleSpace(u.base)
        if space.evaluate(oracle.intern(parsed)) != space.bits(state["alg"].partition.atom_members(aid, 0)):
            return WRONG, f"atom {aid}'s parsed formula evaluates to another set"
        return None

    return check


def _text_eval(u, text):
    def run(count):
        return cylab.definable_set(cylab.parse_formula(text, u.vocab), u.base)

    return run


def _text_check(u, text):
    def check(got):
        if got != oracle.pointwise_set(cylab.parse_formula(text, u.vocab), u.base):
            return WRONG, f"set evaluation disagrees with pointwise evaluation on {text}"
        return None

    return check


# --- cli-queries ----------------------------------------------------------------------

CLI_N3_SIZES = (6, 6, 6, 7, 7, 7, 8, 8, 8)
CLI_SYMBOLS = (("A", 1), ("B", 2), ("C", 3), ("E", 2))
CLI_N4_SYMBOLS = (("A", 1), ("B", 2))
CLI_REDUCTS = ("B", "C", "B,C", "")
# without the ternary C, so that returned formulas stay small enough to
# evaluate back in the check
CLI_DEFINABLE_REDUCTS = ("", "B", "A,B", "B,E")
CLI_CORE_REDUCTS = ("", "B", "B,E")
CLI_UNARY_SYMBOLS = (("P", 1), ("Q", 1))
# indices into gen.symmetric_unary_family: 4 * (set of P) + (set of Q),
# sets numbered empty, core, co-core, universe
CLI_SEPARATE_K0 = (5, 10)  # P = Q = core; P = Q = co-core
CLI_SEPARATE_K1 = (15, 0)  # P = Q = universe; P = Q = empty
CLI_FAMILY = (5, 4, 11)  # the family of verify check 9
PHI = "P(v0) <-> !P(v1)"
PSI = "(Q(v0) <-> Q(v2)) | (Q(v1) <-> Q(v2))"


class CliQueries:
    """A stream of ``cylab.cli.main([..., "--json"])`` calls over
    structure files written to disk, several subcommands per file, so
    ``cached_algebra`` can answer repeats within a pass.  A is the core
    (so reducts holding A see it), E is fixed by equality alone."""

    name = "cli-queries"
    memory_cap = None

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.k = None

    def _dir(self, k):
        return os.path.join(self.workdir, f"pass-{k}")

    def ops(self, k: int) -> list[Op]:
        if self.k is not None:
            shutil.rmtree(self._dir(self.k), ignore_errors=True)
        self.k = k
        os.makedirs(self._dir(k))
        rng = gen.sub_rng(self.seed, self.name, k)
        files = []
        for i, size in enumerate(CLI_N3_SIZES):
            u = gen.cored(
                rng, 3, size, CLI_SYMBOLS,
                pinned={"A": gen.core_relation, "E": gen.distinct_pairs},
            )
            files.append((self._save(u, f"s{i}"), u))
        ops = []
        for i, (path, u) in enumerate(files):
            ops += self._file_ops(rng, i, path, u)
        ops += self._family_ops(files)
        n4 = gen.cored(rng, 4, 8, CLI_N4_SYMBOLS, core_size=4, pinned={"A": gen.core_relation})
        ops += self._n4_ops(rng, self._save(n4, "n4"), n4)
        return ops

    def _save(self, u, stem):
        path = os.path.join(self._dir(self.k), stem + ".json")
        save_structure(u, path)
        return path

    def _file_ops(self, rng, i, path, u):
        """Eleven queries on file i.  Which reduct, relation and target a
        query names rotates with i rather than being drawn, so every pass
        asks the same mix of questions; the seed decides the contents."""
        n, size = u.n, u.size
        q = lambda argv, check: Op(argv[0], n, size, _cli(argv), check)  # noqa: E731
        reduct = CLI_REDUCTS[i % len(CLI_REDUCTS)]
        def_reduct = CLI_DEFINABLE_REDUCTS[i % len(CLI_DEFINABLE_REDUCTS)]
        core_reduct = CLI_CORE_REDUCTS[i % len(CLI_CORE_REDUCTS)]
        relation = "BC"[i % 2]
        text = gen.formula_text(rng, u.vocab, 3)
        asg = gen.tuple_of(rng, size, n)
        a = gen.tuple_of(rng, size, n)
        image = _core_preserving_image(rng, u, a)
        b = gen.tuple_of(rng, size, n)
        sub = ("A", "BCE"[i % 3])
        target = "CEB"[i % 3]
        return [
            q(["check", path, "--json"], _expect_ok),
            q(["csn", path, "--json"], _check_csn(u, u.base)),
            q(["csn", path, "--reduct", reduct, "--json"], _check_csn(u, u.base.reduct(_names(reduct)))),
            q(["strong", path, "--json"], _check_strong(u)),
            q(["eval", path, "-f", text, "--json"], _check_eval_count(u, text)),
            q(["eval", path, "-f", text, "--assignment", _csv(asg), "--json"], _check_eval_at(u, text, asg)),
            q(
                ["definable", path, "--relation", relation, "--reduct", def_reduct, "--json"],
                _check_definable(u, _names(def_reduct), relation),
            ),
            q(
                ["definable", path, "--core", "--reduct", core_reduct, "--json"],
                _check_definable(u, _names(core_reduct), None),
            ),
            q(["automorphism", path, "--source", _csv(a), "--target", _csv(image), "--json"], _check_automorphism(u, a, image)),
            q(["automorphism", path, "--source", _csv(a), "--target", _csv(b), "--json"], _check_automorphism(u, a, b)),
            q(
                ["svenonius", path, "--relation", target, "--reduct", ",".join(sub), "--json"],
                _check_svenonius(u, sub, target),
            ),
        ]

    def _family_ops(self, files):
        """Queries over several files.  The separation and interpolation
        families are fixed: their answers are formulas of a few hundred
        kilobytes whose size swings with the members drawn, so drawing
        them would let a few ops decide the pass time."""
        n = 3
        ops = []
        unary = gen.symmetric_unary_family(n, CLI_UNARY_SYMBOLS)
        paths = {i: self._save(unary[i], f"p{i}") for i in set(CLI_SEPARATE_K0 + CLI_SEPARATE_K1 + CLI_FAMILY)}
        ops.append(
            Op(
                "separate", n, 6,
                _cli(["separate", "--k0", *[paths[i] for i in CLI_SEPARATE_K0],
                      "--k1", *[paths[i] for i in CLI_SEPARATE_K1], "--json"]),
                _check_separate([unary[i] for i in CLI_SEPARATE_K0], [unary[i] for i in CLI_SEPARATE_K1]),
            )
        )
        # inseparable: a drawn file against its twin on one more point
        base_path, base = files[0]
        twin = gen.twin(base, base.size + 1)
        ops.append(
            Op(
                "separate", n, twin.size,
                _cli(["separate", "--k0", base_path, "--k1", self._save(twin, "twin"), "--json"]),
                _check_separate([base], [twin]),
            )
        )
        # the weak/strong contrast, on the stock structure and on a family
        stock = cylab.canonical_strong(n, n, n)
        for members, member_paths in (
            ([stock], [self._save(stock, "stock")]),
            ([unary[i] for i in CLI_FAMILY], [paths[i] for i in CLI_FAMILY]),
        ):
            for mode in ("weak", "strong"):
                ops.append(
                    Op(
                        "interpolate", n, 6,
                        _cli(["interpolate", "--mode", mode, "--phi", PHI, "--psi", PSI, *member_paths, "--json"]),
                        _check_interpolate(members, PHI, PSI, mode),
                    )
                )
        # a full symmetric sweep: E is fixed by equality, so all size! maps hold
        big_path, big = files[-1]
        ops.append(
            Op(
                "svenonius", n, big.size,
                _cli(["svenonius", big_path, "--relation", "E", "--reduct", "", "--json"]),
                _check_svenonius(big, (), "E"),
            )
        )
        return ops

    def _n4_ops(self, rng, path, u):
        n, size = u.n, u.size
        q = lambda argv, check: Op(argv[0], n, size, _cli(argv), check)  # noqa: E731
        a = gen.tuple_of(rng, size, n)
        image = _core_preserving_image(rng, u, a)
        asg = gen.tuple_of(rng, size, n)
        text = gen.formula_text(rng, u.vocab, 2)
        return [
            q(["check", path, "--json"], _expect_ok),
            q(["csn", path, "--reduct", "A", "--json"], _check_csn(u, u.base.reduct(("A",)))),
            q(["automorphism", path, "--source", _csv(a), "--target", _csv(image), "--json"], _check_automorphism(u, a, image)),
            q(["eval", path, "-f", text, "--assignment", _csv(asg), "--json"], _check_eval_at(u, text, asg)),
            q(["definable", path, "--core", "--reduct", "A", "--json"], _check_definable(u, ("A",), None)),
        ]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _csv(t) -> str:
    return ",".join(str(x) for x in t)


def _names(spec: str) -> tuple:
    return tuple(s for s in spec.split(",") if s)


def _core_preserving_image(rng, u, t):
    """Image of t under a random core-preserving permutation, which the
    closure invariant makes an automorphism."""
    core = sorted(u.core)
    cocore = sorted(u.cocore)
    perm = {}
    perm.update(zip(core, rng.sample(core, len(core))))
    perm.update(zip(cocore, rng.sample(cocore, len(cocore))))
    return tuple(perm[x] for x in t)


def _cli(argv):
    def run(count):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cylab.cli.main(argv)
        text = out.getvalue()
        count("cli.output_bytes", len(text))
        return rc, text

    return run


def _payload(result, allowed=(0, 1)):
    rc, text = result
    if rc not in allowed:
        raise _Reject(f"exit code {rc}")
    return rc, json.loads(text)


class _Reject(Exception):
    pass


def _guard(fn):
    """Turn an unexpected exit code into a wrong answer."""

    def check(result):
        try:
            return fn(result)
        except _Reject as err:
            return WRONG, str(err)

    return check


@_guard
def _expect_ok(result):
    rc, payload = _payload(result, (0,))
    return None if payload["ok"] else (WRONG, "a valid structure was rejected")


def _check_csn(u, structure):
    @_guard
    def check(result):
        _, payload = _payload(result, (0,))
        (types,), _ = oracle.n_types([structure])
        if payload["atoms"] != len(set(types.values())):
            return WRONG, f"{payload['atoms']} atoms, refinement finds {len(set(types.values()))}"
        if sum(payload["atom_sizes"]) != u.size**u.n:
            return WRONG, "atom sizes do not add up to size^n"
        if not {frozenset(s) for s in payload["unary_definables"]} <= _four(u):
            return WRONG, "a unary definable set outside empty/universe/core/co-core"
        return None

    return check


def _check_strong(u):
    @_guard
    def check(result):
        rc, payload = _payload(result)
        if rc == 0:
            if payload["reducts_checked"] != 2 ** len(u.vocab.symbols):
                return WRONG, "the certificate skipped reducts"
            return None
        return _recheck_strong_witness(u, payload["witness"])

    return check


def _recheck_strong_witness(u, w) -> tuple | None:
    """Recompute the failing identity on tuple sets: X is a definable,
    injective m-ary cylinder of a core-blind reduct, and X differs from
    c_i(X) & c_j(X) & dstar(m)."""
    sub = u.base.reduct(w["V"])
    (types,), _ = oracle.n_types([sub])
    alg = cylab.build_csn(sub)
    x = frozenset().union(*(alg.partition.atom_members(a, 0) for a in w["atoms"]))
    n, size, m, i, j = u.n, u.size, w["m"], w["i"], w["j"]
    core_column = frozenset(t for t in types if t[0] in u.core)
    if oracle.is_union_of_types(types, core_column):
        return BAD_WITNESS, "the witness reduct defines the core"
    if not oracle.is_union_of_types(types, x):
        return BAD_WITNESS, "the witness element is not definable"
    dstar = frozenset(t for t in types if len(set(t[:m])) == m)
    if not x <= dstar or any(oracle.cylinder(x, c, size) != x for c in range(m, n)):
        return BAD_WITNESS, "the witness element is not an injective m-ary relation"
    if oracle.cylinder(x, i, size) & oracle.cylinder(x, j, size) & dstar == x:
        return BAD_WITNESS, "the witness element satisfies the identity"
    return None


def _check_eval_count(u, text):
    @_guard
    def check(result):
        rc, payload = _payload(result)
        expected = len(oracle.pointwise_set(cylab.parse_formula(text, u.vocab), u.base))
        total = u.size**u.n
        if payload["satisfying"] != expected or payload["valid"] != (expected == total):
            return WRONG, f"{payload['satisfying']} satisfying, pointwise finds {expected}"
        if rc != (0 if expected == total else 1):
            return WRONG, "exit code disagrees with validity"
        return None

    return check


def _check_eval_at(u, text, asg):
    @_guard
    def check(result):
        rc, payload = _payload(result)
        expected = tuple(asg) in cylab.definable_set(cylab.parse_formula(text, u.vocab), u.base)
        if payload["value"] != expected or rc != (0 if expected else 1):
            return WRONG, f"value {payload['value']} at {asg}, set evaluation says {expected}"
        return None

    return check


def _check_definable(u, names, relation):
    @_guard
    def check(result):
        rc, payload = _payload(result)
        sub = u.base.reduct(names)
        if relation is None:
            target = oracle.cylinder_of({(x,) for x in u.core}, 1, u.size, u.n)
        else:
            rel = u.relation(relation)
            target = oracle.cylinder_of(rel, u.vocab.arity(relation), u.size, u.n)
        (types,), _ = oracle.n_types([sub])
        definable = oracle.is_union_of_types(types, target)
        if payload["definable"] != definable or rc != (0 if definable else 1):
            return WRONG, f"definable={payload['definable']}, refinement says {definable}"
        if definable:
            return oracle.check_formula_text(payload["formula"], sub.vocab, sub, target)
        return None

    return check


def _check_automorphism(u, a, b):
    @_guard
    def check(result):
        rc, payload = _payload(result)
        if rc == 0:
            return oracle.check_mapping(u.base, payload["map"], a, b)
        if all((x in u.core) == (y in u.core) for x, y in zip(a, b)) and _same_pattern(a, b):
            return WRONG, f"refused {a} -> {b}, but a core-preserving map sends one to the other"
        (types,), _ = oracle.n_types([u.base])
        if types[tuple(a)] == types[tuple(b)]:
            return WRONG, f"refused {a} -> {b}, but the two tuples have one type"
        return None

    return check


def _same_pattern(a, b) -> bool:
    return all((a[i] == a[j]) == (b[i] == b[j]) for i, j in itertools.combinations(range(len(a)), 2))


def _check_svenonius(u, sub, target):
    @_guard
    def check(result):
        rc, payload = _payload(result)
        red = u.base.reduct(sub)
        rel = u.relation(target)
        cyl = oracle.cylinder_of(rel, u.vocab.arity(target), u.size, u.n)
        (types,), _ = oracle.n_types([red])
        definable = oracle.is_union_of_types(types, cyl)
        if rc == 0:
            if not definable:
                return WRONG, "synthesized a definition of an undefinable target"
            return oracle.check_formula_text(payload["formula"], red.vocab, red, cyl)
        bad = oracle.check_moving_automorphism(red, payload["violating_map"], rel)
        if bad:
            return bad
        if definable:
            return WRONG, "refused a target that is a union of reduct types"
        return None

    return check


def _check_separate(k0, k1):
    @_guard
    def check(result):
        rc, payload = _payload(result)
        if rc == 0:
            f = oracle.parse_back(payload["formula"], k0[0].vocab)
            if f is None:
                return WRONG, "the sentence does not round-trip through the parser"
            for member, want in [(m, True) for m in k0] + [(m, False) for m in k1]:
                space = oracle.TupleSpace(member.base)
                if (space.evaluate(f) == space.full) != want:
                    return WRONG, "the separating sentence misclassifies a member"
            return None
        i0, i1 = payload["witness"]
        colours, _ = oracle.n_types([k0[i0].base, k1[i1].base])
        if set(colours[0].values()) != set(colours[1].values()):
            return BAD_WITNESS, "the witness members realize different types"
        return None

    return check


def _check_interpolate(members, phi_text, psi_text, mode):
    @_guard
    def check(result):
        rc, payload = _payload(result)
        vocab = members[0].vocab
        phi = cylab.parse_formula(phi_text, vocab)
        psi = cylab.parse_formula(psi_text, vocab)
        problem = cylab.InterpolationProblem(phi, psi, cylab.StructureFamily(tuple(members)), mode)
        if rc == 0:
            theta = oracle.parse_back(payload["interpolant"], vocab)
            if theta is None or not payload.get("verified") or not cylab.verify_interpolant(problem, theta):
                return WRONG, "the interpolant fails verify_interpolant"
            return None
        sets = [
            (oracle.pointwise_set(phi, m.base), oracle.pointwise_set(psi, m.base), m.size**m.n)
            for m in members
        ]
        if payload["outcome"] == "hypothesis-failed":
            if mode == "weak":
                holds = all(len(q) == full for p, q, full in sets if len(p) == full)
            else:
                holds = all(p <= q for p, q, _ in sets)
            return (WRONG, "the hypothesis holds") if holds else None
        if mode == "strong":
            return _recheck_strong_none(members, phi, psi, sets)
        a, b = payload["witness"]["members"]
        common = _common_names(phi, psi, vocab)
        colours, _ = oracle.n_types([members[a].base.reduct(common), members[b].base.reduct(common)])
        if set(colours[0].values()) != set(colours[1].values()):
            return BAD_WITNESS, "the witness members' reducts realize different types"
        return None

    return check


def _common_names(phi, psi, vocab):
    n = vocab.n
    return cylab.voc_of(phi, n).common(cylab.voc_of(psi, n)).names()


def _recheck_strong_none(members, phi, psi, sets):
    """No strong interpolant: the common-vocabulary types of phi's tuples,
    taken jointly over the family, reach a tuple outside psi."""
    common = _common_names(phi, psi, members[0].vocab)
    colours, _ = oracle.n_types([m.base.reduct(common) for m in members])
    reached = {col[t] for col, (p, _, _) in zip(colours, sets) for t in p}
    if any(col[t] in reached and t not in q for col, (_, q, _) in zip(colours, sets) for t in col):
        return None
    return WRONG, "phi's types stay inside psi, so a strong interpolant exists"


WORKLOADS = {w.name: w for w in (VerifyStock, PartitionScale, FormulaEval, CliQueries)}
