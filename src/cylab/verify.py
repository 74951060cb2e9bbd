"""End-to-end verification suite.

Each check pairs a library computation with an independent oracle
(signature bucketing, tuple-level closure, direct permutation sweeps or
pointwise evaluation) and asserts exact agreement at a pinned instance
size.  The checks are numbered and reported individually, and several
share one seeded corpus of randomized structures so a single run stays
within its time budget.

At n = 3 the literal expected constants (22 signature classes, 5
equality-only atoms, carrier 32) are asserted as well; other n run the
size-generic form of every check.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from .syntax import (
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Vocabulary,
)
from .structures import (
    CoredStructure,
    Structure,
    StructureFamily,
    all_tuples,
    canonical_strong,
    consequence_over,
    cylinder,
    definable_set,
    enumerate_signatures,
    find_automorphism,
    generated_substructure,
    is_automorphism,
    kernel,
    relation_cylinder,
    signature_members,
    sim_closure,
    sim_signature,
    validate_cored_structure,
)
from .algebra import (
    build_csn,
    cached_algebra,
    signature_bound,
    unary_definables,
)
from .lab import (
    DefinabilityProblem,
    InterpolationProblem,
    certify_strong,
    find_interpolant,
    svenonius_explicit,
    verify_counterexample,
    verify_interpolant,
)

__all__ = ["CheckResult", "run_suite", "CHECKS", "random_corpus", "interpolation_family"]


@dataclass
class CheckResult:
    number: int
    name: str
    ok: bool
    seconds: float
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"{mark}  {self.number:>2}  {self.name:<42} {self.seconds:7.2f}s  {self.detail}"

    def to_json(self):
        return {
            "number": self.number,
            "name": self.name,
            "ok": self.ok,
            "seconds": round(self.seconds, 3),
            "detail": self.detail,
        }


@dataclass
class _Context:
    n: int = 3
    seed: int = 7
    corpus_size: int = 200
    max_size: int | None = None
    relax_budgets: bool = False
    _corpus: list | None = None
    _corpus_algebras: list | None = None

    @property
    def sizes(self) -> tuple[int, ...]:
        top = self.max_size or (2 * self.n + 2)
        return tuple(range(2 * self.n, max(top, 2 * self.n) + 1))

    def corpus(self) -> list[CoredStructure]:
        if self._corpus is None:
            self._corpus = random_corpus(
                self.n, self.corpus_size, self.seed, self.sizes
            )
        return self._corpus

    def corpus_algebras(self):
        if self._corpus_algebras is None:
            self._corpus_algebras = [
                (u, build_csn(u.base)) for u in self.corpus()
            ]
        return self._corpus_algebras


def random_corpus(n: int, count: int, seed: int, sizes) -> list[CoredStructure]:
    """Seeded corpus of valid cored structures: random sizes, random core
    split, one to three relation symbols, each interpreted as a random
    union of signature classes (closure comes for free)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.choice(tuple(sizes))
        core_size = rng.randint(n, size - n)
        core = frozenset(range(core_size))
        sym_count = rng.randint(1, 3)
        symbols = tuple((f"R{i}", rng.randint(1, n)) for i in range(sym_count))
        vocab = Vocabulary(symbols, n)
        interp = {}
        for name, arity in symbols:
            rel: set = set()
            for sig in enumerate_signatures(arity):
                if rng.random() < 0.5:
                    rel.update(signature_members(sig, core, size))
            interp[name] = rel
        out.append(CoredStructure(Structure(size, vocab, interp), core))
    return out


def interpolation_family(n: int = 3) -> StructureFamily:
    """Three same-size members over {P, Q} whose reducts differ enough to
    make separation non-degenerate: P=Q=core; P=core with Q empty; P the
    co-core with Q everything."""
    vocab = Vocabulary((("P", 1), ("Q", 1)), n)
    size = 2 * n
    core = frozenset(range(n))
    cocore = frozenset(range(n, size))
    everything = frozenset(range(size))

    def member(p, q):
        return CoredStructure(
            Structure(
                size, vocab, {"P": {(x,) for x in p}, "Q": {(x,) for x in q}}
            ),
            core,
        )

    return StructureFamily(
        (member(core, core), member(core, ()), member(cocore, everything))
    )


def random_formula(rng: random.Random, vocab: Vocabulary, depth: int) -> Formula:
    n = vocab.n
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0 and vocab.symbols:
            name, ar = rng.choice(vocab.symbols)
            return Atom(name, tuple(rng.randrange(n) for _ in range(ar)))
        if kind == 1:
            return Eq(rng.randrange(n), rng.randrange(n))
        name, ar = rng.choice(vocab.symbols)
        return Atom(name, tuple(rng.randrange(n) for _ in range(ar)))
    kind = rng.randrange(6)
    if kind == 0:
        return Not(random_formula(rng, vocab, depth - 1))
    if kind == 1:
        return And(
            random_formula(rng, vocab, depth - 1),
            random_formula(rng, vocab, depth - 1),
        )
    if kind == 2:
        return Or(
            random_formula(rng, vocab, depth - 1),
            random_formula(rng, vocab, depth - 1),
        )
    if kind == 3:
        return Implies(
            random_formula(rng, vocab, depth - 1),
            random_formula(rng, vocab, depth - 1),
        )
    if kind == 4:
        return Exists(rng.randrange(n), random_formula(rng, vocab, depth - 1))
    return Forall(rng.randrange(n), random_formula(rng, vocab, depth - 1))


# --- the checks ------------------------------------------------------------


def check_canonical_strong(ctx: _Context) -> str:
    """The stock two-predicate structure validates and certifies strong."""
    u = canonical_strong(ctx.n, ctx.n, ctx.n)
    report = validate_cored_structure(u.base, u.core)
    assert report.ok, f"validation failed: {report.violations}"
    cert = certify_strong(u)
    assert cert.ok, f"strongness failed: {cert.witness}"
    return f"reducts={cert.reducts_checked} elements={cert.elements_checked}"


def check_unary_definables(ctx: _Context) -> str:
    """Across the corpus every definable unary set is one of the four
    symmetric ones: empty, universe, core, co-core."""
    violations = 0
    for u, alg in ctx.corpus_algebras():
        allowed = {
            frozenset(),
            frozenset(range(u.size)),
            u.core,
            u.cocore,
        }
        for s in unary_definables(alg):
            if s not in allowed:
                violations += 1
    assert violations == 0, f"{violations} unary definables outside the four"
    return f"structures={len(ctx.corpus())} violations=0"


def check_atoms_closed(ctx: _Context) -> str:
    """Every atom of every corpus partition is closed under the tuple
    equivalence (same oracle as validation: signature bucketing)."""
    atoms = 0
    for u, alg in ctx.corpus_algebras():
        for aid in range(alg.atom_count):
            members = alg.partition.atom_members(aid, 0)
            if sim_closure(members, u.core, u.size) != members:
                raise AssertionError(
                    f"atom {aid} of {u!r} is not equivalence-closed"
                )
            atoms += 1
    return f"atoms={atoms} violations=0"


def check_carrier_containment(ctx: _Context) -> str:
    """The algebra of the full stock structure embeds in the algebra of
    the structure carrying only the named core: the latter's partition
    refines the former's."""
    u = canonical_strong(ctx.n, ctx.n, ctx.n)
    full = build_csn(u.base)
    named = build_csn(u.with_core_named())
    for aid in range(named.atom_count):
        members = named.partition.atom_members(aid, 0)
        targets = {full.partition.atom(t) for t in members}
        assert len(targets) == 1, (
            f"core-only atom {aid} straddles full atoms {sorted(targets)}"
        )
    return f"full_atoms={full.atom_count} core_atoms={named.atom_count}"


def check_signature_counts(ctx: _Context) -> str:
    """Signature enumeration against brute grouping of actual tuples, and
    the two reduct algebras against their independent carriers."""
    n = ctx.n
    u = canonical_strong(n, n, n)
    sigs = enumerate_signatures(n)
    grouped = {sim_signature(t, u.core) for t in all_tuples(u.size, n)}
    assert len(sigs) == len(set(sigs)), "duplicate signatures enumerated"
    assert set(sigs) == grouped, "enumerated signatures disagree with grouping"
    assert len(sigs) == signature_bound(n)

    named = build_csn(u.with_core_named())
    classes = {}
    for t in all_tuples(u.size, n):
        classes.setdefault(sim_signature(t, u.core), set()).add(t)
    assert named.atom_count == len(classes)
    assert {frozenset(v) for v in classes.values()} == {
        named.partition.atom_members(a, 0) for a in range(named.atom_count)
    }

    eq = build_csn(u.base.reduct(()))
    kernels = {}
    for t in all_tuples(u.size, n):
        kernels.setdefault(kernel(t), set()).add(t)
    assert eq.atom_count == len(kernels)

    # carrier oracle: close the diagonal sets under meet, complement and
    # cylindrification directly on tuple sets
    full_set = frozenset(all_tuples(u.size, n))
    basis = {full_set, frozenset()}
    for i in range(n):
        for j in range(i + 1, n):
            basis.add(frozenset(t for t in full_set if t[i] == t[j]))
    closed = set(basis)
    frontier = list(basis)
    while frontier:
        x = frontier.pop()
        new = [full_set - x]
        for y in list(closed):
            new.append(x & y)
        for i in range(n):
            new.append(cylinder(x, i, u.size))
        for z in new:
            if z not in closed:
                closed.add(z)
                frontier.append(z)
    assert len(closed) == 2**eq.atom_count, (
        f"closure oracle gives {len(closed)}, refinement gives 2^{eq.atom_count}"
    )

    if n == 3:
        assert len(sigs) == 22
        assert named.atom_count == 22
        assert eq.atom_count == 5
        assert len(closed) == 32
    return (
        f"signatures={len(sigs)} core_atoms={named.atom_count}"
        f" eq_atoms={eq.atom_count} eq_carrier={len(closed)}"
    )


def check_automorphism_totality(ctx: _Context) -> str:
    """Tuple pairs of equal algebra type get a verified automorphism;
    unequal types get none.  Exhaustive at n = 3, sampled above."""
    n = ctx.n
    u = canonical_strong(n, n, n)
    alg = cached_algebra(u.base)
    rng = random.Random(ctx.seed)
    found = 0
    rejected = 0
    for k in range(1, n + 1):
        tuples = list(all_tuples(u.size, k))
        if n == 3 or len(tuples) <= 64:
            pairs = itertools.product(tuples, tuples)
        else:
            pairs = (
                (rng.choice(tuples), rng.choice(tuples)) for _ in range(20000)
            )
        for a, b in pairs:
            same = alg.tuple_type(a) == alg.tuple_type(b)
            f = find_automorphism(u, a, b)
            if same:
                assert f is not None, f"no automorphism for same-type {a} {b}"
                assert tuple(f[x] for x in a) == b
                assert is_automorphism(u.base, f)
                found += 1
            else:
                assert f is None, f"automorphism across types {a} {b}"
                rejected += 1
    return f"mapped={found} refused={rejected}"


def _deduped_depth3(structure_a: Structure, structure_b: Structure, vocab):
    """Formulas over the vocabulary with syntax trees of height <= 3
    (atoms at height one), deduplicated by their satisfaction-set pair in
    both structures."""
    n = vocab.n
    atoms: list[Formula] = []
    for name, ar in vocab.symbols:
        for idx in itertools.product(range(n), repeat=ar):
            atoms.append(Atom(name, idx))
    for i in range(n):
        for j in range(i + 1, n):
            atoms.append(Eq(i, j))
    seen: dict[tuple, Formula] = {}
    levels: list[list[tuple[Formula, frozenset, frozenset]]] = []

    def sets_of(f: Formula):
        return definable_set(f, structure_a), definable_set(f, structure_b)

    def push(f, bucket):
        sa, sb = sets_of(f)
        key = (sa, sb)
        if key not in seen:
            seen[key] = f
            bucket.append((f, sa, sb))

    level1: list = []
    for f in atoms:
        push(f, level1)
    levels.append(level1)
    for _ in range(2):
        prev = [item for lvl in levels for item in lvl]
        nxt: list = []
        for f, _, _ in prev:
            push(Not(f), nxt)
            for i in range(n):
                push(Exists(i, f), nxt)
        for (f, _, _), (g, _, _) in itertools.combinations(prev, 2):
            push(And(f, g), nxt)
        levels.append(nxt)
    return [item for lvl in levels for item in lvl]


def check_elementary_substructure(ctx: _Context) -> str:
    """Restriction agrees with the ambient structure on a depth-3 formula
    sweep and passes the one-coordinate witness test.

    Existential quantification distributes over disjunction, so checking
    the witness property on the partition atoms extends it to every
    definable set; both the atom formulas and the literal height-3
    enumeration are swept."""
    n = ctx.n
    big = canonical_strong(n, n + 1, n + 1)
    inside = sorted(big.core)[:n] + sorted(big.cocore)[-n:]
    sub = generated_substructure(big, inside)
    relabel = {old: new for new, old in enumerate(sorted(inside))}
    vtuples = list(itertools.product(sorted(inside), repeat=n))

    alg = cached_algebra(big.base)
    atom_formulas = [
        alg.partition.defining_formula(aid) for aid in range(alg.atom_count)
    ]
    swept = 0
    items = _deduped_depth3(big.base, sub.base, big.vocab)
    items += [
        (f, definable_set(f, big.base), definable_set(f, sub.base))
        for f in atom_formulas
    ]
    for f, sa, sb in items:
        swept += 1
        restricted = frozenset(
            tuple(relabel[x] for x in t) for t in sa if all(x in relabel for x in t)
        )
        assert restricted == sb, f"restriction disagrees on {f}"
        for i in range(n):
            cyl = cylinder(sa, i, big.size)
            for t in vtuples:
                lhs = t in cyl
                rhs = any(
                    t[:i] + (x,) + t[i + 1 :] in sa for x in sorted(inside)
                )
                assert lhs == rhs, f"witness test failed on {f} at {t} coord {i}"
    return f"formulas={swept} discrepancies=0"


def check_counterexample(ctx: _Context) -> str:
    """The weak/strong contrast replays on the stock structure."""
    report = verify_counterexample(ctx.n)
    assert report.implication_holds, "pointwise implication failed"
    assert report.strong_outcome_none, "strong search unexpectedly succeeded"
    assert report.witness_replay_ok, "witness replay failed"
    assert report.weak_found, "weak search failed"
    return (
        f"eq_elements={report.details['equality_elements_checked']}"
        f" strong_witness={report.details['strong_witness']}"
    )


def check_weak_interpolation(ctx: _Context) -> str:
    """Fifty seeded formula pairs with family-level consequence all get a
    weak interpolant passing the independent post-check."""
    family = interpolation_family(ctx.n)
    vocab = family.vocab
    rng = random.Random(ctx.seed + 9)
    found = 0
    attempts = 0
    while found < 50:
        attempts += 1
        if attempts > 20000:
            raise AssertionError("could not collect 50 consequence pairs")
        phi = random_formula(rng, vocab, 3)
        psi = random_formula(rng, vocab, 3)
        if not consequence_over(family, phi, psi, "validity-consequence").holds:
            continue
        problem = InterpolationProblem(phi, psi, family, "weak")
        report = find_interpolant(problem)
        assert report.outcome == "found", (
            f"no weak interpolant for {phi} / {psi}: {report.witness}"
        )
        assert verify_interpolant(problem, report.formula), (
            f"post-check failed for {phi} / {psi}"
        )
        found += 1
    return f"pairs=50 attempts={attempts}"


def check_definition_synthesis(ctx: _Context) -> str:
    """Synthesis succeeds exactly on symmetry-invariant targets, for a
    core-visible and a core-blind sub-vocabulary, and every returned
    formula re-evaluates to its target.  Invariance is decided by closure
    oracles (signature or equality-pattern bucketing), not by the
    permutation sweep under test."""
    n = ctx.n
    u = canonical_strong(n, n, n)
    rng = random.Random(ctx.seed + 23)
    universe = frozenset(range(u.size))

    unary_targets = [
        (frozenset(), 1),
        (frozenset((x,) for x in u.core), 1),
        (frozenset((x,) for x in u.cocore), 1),
        (frozenset((x,) for x in universe), 1),
    ]
    sigs = enumerate_signatures(n)
    eq_targets = []
    kernels = sorted({s.kernel for s in sigs})
    kmembers = {
        kern: frozenset(
            t for t in all_tuples(u.size, n) if kernel(t) == kern
        )
        for kern in kernels
    }
    max_eq = 2 ** len(kernels)
    picks = (
        range(max_eq)
        if max_eq <= 64
        else sorted(rng.sample(range(max_eq), 64))
    )
    for mask in picks:
        chosen = [kernels[i] for i in range(len(kernels)) if mask >> i & 1]
        eq_targets.append(
            (frozenset().union(*(kmembers[k] for k in chosen)) if chosen else frozenset(), n)
        )
    sig_members = {
        sig: frozenset(signature_members(sig, u.core, u.size)) for sig in sigs
    }
    random_targets = []
    for _ in range(500):
        chosen = [sig for sig in sigs if rng.random() < 0.4]
        random_targets.append(
            (frozenset().union(*(sig_members[s] for s in chosen)) if chosen else frozenset(), n)
        )

    stats = {"found": 0, "refused": 0}
    for sub_vocab in (("P",), ()):
        for rel, arity in unary_targets + eq_targets + random_targets:
            cyl = relation_cylinder(rel, arity, u.size, u.n)
            if sub_vocab:
                invariant = sim_closure(cyl, u.core, u.size) == cyl
            else:
                closure = frozenset().union(
                    *(kmembers[kernel(t)] for t in cyl)
                ) if cyl else frozenset()
                invariant = closure == cyl
            problem = DefinabilityProblem(
                u, sub_vocab, tuples=rel, arity=arity
            )
            report = svenonius_explicit(problem)
            assert report.definable == invariant, (
                f"synthesis disagrees with closure oracle on {sub_vocab}, |rel|={len(rel)}"
            )
            if report.definable:
                got = definable_set(report.formula, u.base.reduct(sub_vocab))
                assert got == cyl, "synthesized formula misses its target"
                stats["found"] += 1
            else:
                stats["refused"] += 1
    return f"found={stats['found']} refused={stats['refused']}"


def check_switching(ctx: _Context) -> str:
    """Full cylindrification sweeps any nonempty element up to one.
    Checking the atoms suffices: cylindrification is monotone."""
    checked = 0
    for u, alg in ctx.corpus_algebras():
        for aid in range(alg.atom_count):
            el = alg.atom_element(aid)
            for i in range(alg.n):
                el = el.cyl(i)
            assert el == alg.one, f"atom {aid} of {u!r} does not sweep to one"
            checked += 1
    return f"atoms={checked} violations=0"


CHECKS = (
    (1, "canonical structure certifies strong", 5.0, check_canonical_strong),
    (2, "unary definables stay among the four", 30.0, check_unary_definables),
    (3, "partition atoms are equivalence-closed", None, check_atoms_closed),
    (4, "full algebra embeds in core algebra", None, check_carrier_containment),
    (5, "signature and carrier counts", 1.0, check_signature_counts),
    (6, "automorphisms exactly on equal types", 60.0, check_automorphism_totality),
    (7, "restriction is elementary at depth 3", None, check_elementary_substructure),
    (8, "weak/strong interpolation contrast", 10.0, check_counterexample),
    (9, "weak interpolants for 50 seeded pairs", None, check_weak_interpolation),
    (10, "definition synthesis vs invariance", 120.0, check_definition_synthesis),
    (11, "full cylindrification is a switch", None, check_switching),
)


def run_suite(
    n: int = 3,
    seed: int = 7,
    corpus_size: int = 200,
    max_size: int | None = None,
    relax_budgets: bool = False,
    only: tuple[int, ...] | None = None,
    threads: int = 1,
) -> list[CheckResult]:
    """Run the numbered checks and collect results in check order.

    Budgets are enforced unless relaxed; runs at n other than 3 or with
    an enlarged corpus relax budgets automatically since the stated ones
    assume the stock sizes.  With threads > 1 the checks run in a pool
    (the shared corpus is built up front); output order stays fixed by
    check number regardless of completion order.
    """
    if n < 3:
        raise ValueError(f"the suite needs n >= 3, got n = {n}")
    if threads < 1:
        raise ValueError(f"thread count must be positive, got {threads}")
    relax = relax_budgets or n != 3 or (max_size or 0) > 2 * n + 2
    ctx = _Context(n=n, seed=seed, corpus_size=corpus_size, max_size=max_size)
    todo = [c for c in CHECKS if not only or c[0] in only]

    def run_one(check) -> CheckResult:
        number, name, budget, fn = check
        start = time.perf_counter()
        try:
            detail = fn(ctx)
            elapsed = time.perf_counter() - start
            ok = True
            if budget is not None and not relax and elapsed >= budget:
                ok = False
                detail = f"over budget ({elapsed:.2f}s >= {budget}s); {detail}"
        except AssertionError as err:
            elapsed = time.perf_counter() - start
            ok = False
            detail = str(err)
        return CheckResult(number, name, ok, elapsed, detail)

    if threads == 1:
        return [run_one(c) for c in todo]
    from concurrent.futures import ThreadPoolExecutor

    ctx.corpus_algebras()  # shared state, built once before dispatch
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(run_one, todo))
    return sorted(results, key=lambda r: r.number)
