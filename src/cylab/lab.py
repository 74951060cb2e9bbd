"""Higher-level procedures over families of cored structures.

This module hosts the workbench's headline checks:

* strongness certification: in every reduct that cannot define the core,
  each definable injective relation must equal the meet of two of its
  cylindrifications with the injectivity element;
* separation of two families by a single sentence, via a joint type
  partition and per-member atom profiles;
* weak and strong interpolant search, which differ exactly in whether
  the hypothesis is family-level consequence or pointwise implication;
* explicit-definition synthesis from automorphism invariance, and the
  implicit-definability comparison it pairs with.

Everything is exact and family-relative: a "none" answer always carries
a finite witness that can be re-checked tuple by tuple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .syntax import (
    Const,
    Exists,
    Formula,
    Not,
    Vocabulary,
    conjunction,
    disjunction,
    render_formula,
    voc_of,
)
from .structures import (
    CoredStructure,
    SetEvaluator,
    StructureFamily,
    all_tuples,
    consequence_over,
    core_preserving_maps,
    definable_set,
    is_valid_in,
    relation_cylinder,
    validate_cored_structure,
)
from .algebra import (
    Element,
    cached_algebra,
    compute_joint_partition,
    invariant_components,
    is_definable,
)

__all__ = [
    "InterpolationProblem",
    "InterpolationReport",
    "DefinabilityProblem",
    "DefinabilityReport",
    "StrongnessWitness",
    "StrongnessReport",
    "SeparationReport",
    "CounterexampleReport",
    "core_definable_in_reduct",
    "certify_strong",
    "separate",
    "find_interpolant",
    "verify_interpolant",
    "verify_counterexample",
    "svenonius_explicit",
    "implicit_defines",
    "counterexample_formulas",
]


# --- Core definability in reducts --------------------------------------------


def _core_column(u: CoredStructure) -> frozenset:
    return frozenset(t for t in all_tuples(u.size, u.n) if t[0] in u.core)


def _close_coordinates(f: Formula, start: int, n: int) -> Formula:
    """Existentially close coordinates start..n-1."""
    for i in range(n - 1, start - 1, -1):
        f = Exists(i, f)
    return f


def core_definable_in_reduct(u: CoredStructure, names) -> Formula | None:
    """A formula over the sub-vocabulary defining the core as a unary
    relation, or None.  Decided on the reduct's algebra; the returned
    formula has v0 as its only free variable."""
    alg = cached_algebra(u.base.reduct(names))
    f = is_definable(_core_column(u), alg)
    if f is None:
        return None
    return _close_coordinates(f, 1, u.n)


# --- Strongness certification -------------------------------------------------


@dataclass(frozen=True)
class StrongnessWitness:
    sub_vocab: tuple[str, ...]
    element_atoms: tuple[int, ...]
    arity: int
    i: int
    j: int

    def to_json(self):
        return {
            "V": list(self.sub_vocab),
            "atoms": list(self.element_atoms),
            "m": self.arity,
            "i": self.i,
            "j": self.j,
        }


@dataclass(frozen=True)
class StrongnessReport:
    ok: bool
    witness: StrongnessWitness | None = None
    reducts_checked: int = 0
    elements_checked: int = 0

    def to_json(self):
        return {
            "ok": self.ok,
            "witness": self.witness.to_json() if self.witness else None,
            "reducts_checked": self.reducts_checked,
            "elements_checked": self.elements_checked,
        }


def certify_strong(u: CoredStructure) -> StrongnessReport:
    """Exhaustive strongness check.

    Every sub-vocabulary V is inspected; those defining the core are
    skipped.  For the rest, every definable m-ary relation X inside the
    injectivity element must satisfy X = c_i(X) & c_j(X) & dstar(m) for
    all i < j < m.  The first failure is returned as a witness.
    """
    report = validate_cored_structure(u.base, u.core)
    if not report.ok:
        raise ValueError(
            "not a valid cored structure: "
            + "; ".join(v.message for v in report.violations)
        )
    n = u.n
    names = u.vocab.names()
    core_col = _core_column(u)
    reducts = 0
    elements = 0
    for r in range(len(names) + 1):
        for sub in itertools.combinations(names, r):
            reducts += 1
            alg = cached_algebra(u.base.reduct(sub))
            if alg.element_of_tuples(core_col) is not None:
                continue  # the core is visible here, no constraint applies
            # m = 1 is vacuous: no pair i != j below it
            for m in range(2, n + 1):
                dstar = alg.dstar(m)
                comps = [
                    c for c in invariant_components(alg, m) if c <= dstar.atoms
                ]
                if len(comps) > 20:
                    raise RuntimeError(
                        f"{len(comps)} candidate components in reduct {sub};"
                        " instance too large for exhaustive certification"
                    )
                for count in range(1, len(comps) + 1):
                    for combo in itertools.combinations(comps, count):
                        x = Element(alg, frozenset().union(*combo))
                        elements += 1
                        for i in range(m):
                            for j in range(i + 1, m):
                                rhs = x.cyl(i) & x.cyl(j) & dstar
                                if rhs != x:
                                    return StrongnessReport(
                                        False,
                                        StrongnessWitness(
                                            sub, tuple(sorted(x.atoms)), m, i, j
                                        ),
                                        reducts,
                                        elements,
                                    )
    return StrongnessReport(True, None, reducts, elements)


# --- Separation ----------------------------------------------------------------


@dataclass(frozen=True)
class SeparationReport:
    formula: Formula | None
    witness: tuple[int, int] | None = None
    atoms_total: int = 0

    @property
    def separated(self) -> bool:
        return self.formula is not None

    def to_json(self):
        return {
            "separated": self.separated,
            "formula": render_formula(self.formula) if self.formula else None,
            "witness": list(self.witness) if self.witness else None,
            "atoms_total": self.atoms_total,
        }


def separate(k0: StructureFamily, k1: StructureFamily) -> SeparationReport:
    """A sentence valid on every member of k0 and false on every member
    of k1, or a profile-equal witness pair when none exists.

    The joint type partition over all members gives each member a
    profile, the set of atoms it realizes.  Equal profiles mean the two
    members satisfy the same sentences, so separation is impossible; with
    all profiles distinct the disjunction of k0's profile descriptions
    separates.
    """
    if k0.vocab != k1.vocab:
        raise ValueError("families must share a vocabulary")
    for a in k0:
        for b in k1:
            if a == b:
                raise ValueError("families overlap: a structure occurs on both sides")
    members = [m.base for m in k0] + [m.base for m in k1]
    joint = compute_joint_partition(members)
    profiles0 = [joint.profile(i) for i in range(len(k0))]
    profiles1 = [joint.profile(len(k0) + i) for i in range(len(k1))]
    for i0, p0 in enumerate(profiles0):
        for i1, p1 in enumerate(profiles1):
            if p0 == p1:
                return SeparationReport(None, (i0, i1), joint.atom_count)
    n = joint.n
    all_atoms = range(joint.atom_count)
    disjuncts = []
    for profile in sorted(set(profiles0), key=sorted):
        parts = []
        for aid in all_atoms:
            closed = _close_coordinates(joint.defining_formula(aid), 0, n)
            parts.append(closed if aid in profile else Not(closed))
        disjuncts.append(conjunction(parts))
    return SeparationReport(disjunction(disjuncts), None, joint.atom_count)


# --- Interpolation --------------------------------------------------------------


@dataclass(frozen=True)
class InterpolationProblem:
    phi: Formula
    psi: Formula
    family: StructureFamily
    mode: str  # "weak" | "strong"

    def __post_init__(self):
        if self.mode not in ("weak", "strong"):
            raise ValueError(f"unknown interpolation mode {self.mode!r}")


@dataclass(frozen=True)
class InterpolationReport:
    outcome: str  # "found" | "none" | "hypothesis-failed"
    mode: str
    formula: Formula | None = None
    witness: dict | None = None
    candidates_examined: int = 0

    def to_json(self):
        return {
            "mode": self.mode,
            "outcome": self.outcome,
            "interpolant": render_formula(self.formula) if self.formula else None,
            "witness": self.witness,
            "candidates_examined": self.candidates_examined,
        }


def _common_vocab(p: InterpolationProblem) -> tuple[Vocabulary, tuple[str, ...]]:
    fam_vocab = p.family.vocab
    for f in (p.phi, p.psi):
        for name, arity in voc_of(f, fam_vocab.n).symbols:
            if name not in fam_vocab or fam_vocab.arity(name) != arity:
                raise ValueError(
                    f"vocabulary mismatch: {name!r} not interpreted in the family"
                )
    shared = voc_of(p.phi, fam_vocab.n).common(voc_of(p.psi, fam_vocab.n))
    return fam_vocab, shared.names()


def find_interpolant(p: InterpolationProblem) -> InterpolationReport:
    """Search for an interpolant between phi and psi over the family.

    Weak mode assumes family-level consequence (phi valid in a member
    forces psi valid there) and separates the reduced families of
    phi-validating members and non-psi-validating members.  Strong mode
    assumes pointwise implication and closes phi's satisfaction sets
    under the joint atoms of the common-vocabulary reducts; the closure
    either lands inside psi everywhere, giving the interpolant, or
    pinpoints an offending member and atom.
    """
    _, common = _common_vocab(p)
    if p.mode == "weak":
        hyp = consequence_over(p.family, p.phi, p.psi, "validity-consequence")
        if not hyp.holds:
            return InterpolationReport(
                "hypothesis-failed", p.mode, witness=hyp.to_json()
            )
        k0_idx = [i for i, m in enumerate(p.family) if is_valid_in(p.phi, m.base)]
        k1_idx = [i for i, m in enumerate(p.family) if not is_valid_in(p.psi, m.base)]
        if not k0_idx:
            return InterpolationReport(
                "found", p.mode, Const(False), candidates_examined=1
            )
        if not k1_idx:
            return InterpolationReport(
                "found", p.mode, Const(True), candidates_examined=1
            )
        k0 = [p.family[i].reduct(common) for i in k0_idx]
        k1 = [p.family[i].reduct(common) for i in k1_idx]
        for a_at, a in zip(k0_idx, k0):
            for b_at, b in zip(k1_idx, k1):
                if a == b:
                    return InterpolationReport(
                        "none",
                        p.mode,
                        witness={"members": [a_at, b_at], "reason": "equal reducts"},
                        candidates_examined=0,
                    )
        sep = separate(StructureFamily(tuple(k0)), StructureFamily(tuple(k1)))
        if sep.formula is None:
            i0, i1 = sep.witness
            return InterpolationReport(
                "none",
                p.mode,
                witness={
                    "members": [k0_idx[i0], k1_idx[i1]],
                    "reason": "equal joint-atom profiles",
                },
                candidates_examined=sep.atoms_total,
            )
        return InterpolationReport(
            "found", p.mode, sep.formula, candidates_examined=sep.atoms_total
        )

    # strong mode
    hyp = consequence_over(p.family, p.phi, p.psi, "implication-validity")
    if not hyp.holds:
        return InterpolationReport("hypothesis-failed", p.mode, witness=hyp.to_json())
    reducts = [m.base.reduct(common) for m in p.family]
    joint = compute_joint_partition(reducts)
    closure: set[int] = set()
    for idx, m in enumerate(p.family):
        sphi = definable_set(p.phi, m.base)
        for t in sphi:
            closure.add(joint.atom(t, idx))
    for idx, m in enumerate(p.family):
        spsi = definable_set(p.psi, m.base)
        for aid in sorted(closure):
            if not joint.atom_members(aid, idx) <= spsi:
                return InterpolationReport(
                    "none",
                    p.mode,
                    witness={"structure": idx, "atom": aid},
                    candidates_examined=len(closure),
                )
    theta = disjunction(joint.defining_formula(aid) for aid in sorted(closure))
    return InterpolationReport(
        "found", p.mode, theta, candidates_examined=len(closure)
    )


def verify_interpolant(p: InterpolationProblem, theta: Formula) -> bool:
    """Mode-appropriate post-check, independent of the search path.

    Checks the vocabulary condition and, per member, either the validity
    chain (weak) or both satisfaction-set inclusions (strong).
    """
    fam_vocab = p.family.vocab
    names = set(voc_of(theta, fam_vocab.n).names())
    allowed = set(voc_of(p.phi, fam_vocab.n).names()) & set(
        voc_of(p.psi, fam_vocab.n).names()
    )
    if not names <= allowed:
        return False
    for m in p.family:
        ev = SetEvaluator(m.base)
        full = ev.full
        sphi, spsi, sth = ev.mask(p.phi), ev.mask(p.psi), ev.mask(theta)
        if p.mode == "weak":
            if sphi == full and sth != full:
                return False
            if sth == full and spsi != full:
                return False
        else:
            if sphi & ~sth or sth & ~spsi:
                return False
    return True


# --- The two-predicate counterexample -------------------------------------------


def counterexample_formulas(vocab: Vocabulary) -> tuple[Formula, Formula]:
    """The standard premise and conclusion over two unary predicates:
    phi says P separates v0 from v1, psi says Q fails to separate v2
    from one of them."""
    from .syntax import Atom, Iff, Or

    phi = Iff(Atom("P", (0,)), Not(Atom("P", (1,))))
    psi = Or(
        Iff(Atom("Q", (0,)), Atom("Q", (2,))),
        Iff(Atom("Q", (1,)), Atom("Q", (2,))),
    )
    return phi, psi


@dataclass(frozen=True)
class CounterexampleReport:
    implication_holds: bool
    strong_outcome_none: bool
    witness_replay_ok: bool
    weak_found: bool
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            self.implication_holds
            and self.strong_outcome_none
            and self.witness_replay_ok
            and self.weak_found
        )

    def to_json(self):
        return {
            "ok": self.ok,
            "implication_holds": self.implication_holds,
            "strong_outcome_none": self.strong_outcome_none,
            "witness_replay_ok": self.witness_replay_ok,
            "weak_found": self.weak_found,
            "details": self.details,
        }


def verify_counterexample(n: int = 3) -> CounterexampleReport:
    """Replay the weak/strong contrast on the stock structure.

    Four assertions: the implication from phi to psi is pointwise valid;
    the strong search returns none; every equality-only definable set
    containing the chosen in/out witness tuple also contains the two-core
    witness tuple, which lies outside psi; and the weak search succeeds.
    """
    if n < 3:
        raise ValueError(f"the contrast needs n >= 3, got n = {n}")
    from .structures import canonical_strong

    u = canonical_strong(n, n, n)
    family = StructureFamily((u,))
    phi, psi = counterexample_formulas(u.vocab)

    implication = consequence_over(family, phi, psi, "implication-validity").holds

    strong = find_interpolant(InterpolationProblem(phi, psi, family, "strong"))
    strong_none = strong.outcome == "none"

    # witness replay on the equality-only algebra
    eq_alg = cached_algebra(u.base.reduct(()))
    pads = tuple(range(n + 2, 2 * n - 1))
    s = (0, n, n + 1) + pads  # one core point, the rest distinct co-core
    t = (0, 1, n + 1) + pads  # two core points, same equality pattern
    sphi = definable_set(phi, u.base)
    spsi = definable_set(psi, u.base)
    replay = s in sphi and t not in spsi
    elements_checked = 0
    if replay:
        for el in eq_alg.iter_elements():
            elements_checked += 1
            tus = el.tuples()
            if s in tus and t not in tus:
                replay = False
                break
            if sphi <= tus and tus <= spsi:
                replay = False  # an equality-only strong interpolant would exist
                break

    weak = find_interpolant(InterpolationProblem(phi, psi, family, "weak"))
    weak_found = weak.outcome == "found"

    return CounterexampleReport(
        implication,
        strong_none,
        replay,
        weak_found,
        details={
            "n": n,
            "witness_in": list(s),
            "witness_out": list(t),
            "equality_elements_checked": elements_checked,
            "strong_witness": strong.witness,
            "weak_interpolant": render_formula(weak.formula)
            if weak.formula
            else None,
        },
    )


# --- Explicit definitions from automorphism invariance ---------------------------


@dataclass(frozen=True)
class DefinabilityProblem:
    structure: CoredStructure
    sub_vocab: tuple[str, ...]
    relation_name: str | None = None
    tuples: frozenset | None = None
    arity: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "sub_vocab", tuple(self.sub_vocab))
        for name in self.sub_vocab:
            if name not in self.structure.vocab:
                raise ValueError(f"unknown relation symbol {name!r}")
        if (self.relation_name is None) == (self.tuples is None):
            raise ValueError("give either a relation name or a raw tuple set")
        if self.relation_name is not None:
            object.__setattr__(
                self, "arity", self.structure.vocab.arity(self.relation_name)
            )
            object.__setattr__(
                self, "tuples", self.structure.relation(self.relation_name)
            )
        else:
            if self.arity is None:
                raise ValueError("raw tuple sets need an explicit arity")
            tuples = frozenset(tuple(t) for t in self.tuples)
            for t in tuples:
                if len(t) != self.arity:
                    raise ValueError(f"tuple {t} does not match arity {self.arity}")
                if any(not 0 <= x < self.structure.size for x in t):
                    raise ValueError(f"tuple {t} leaves the universe")
            object.__setattr__(self, "tuples", tuples)
        if self.arity > self.structure.n:
            raise ValueError(
                f"arity {self.arity} exceeds n = {self.structure.n}"
            )


@dataclass(frozen=True)
class DefinabilityReport:
    formula: Formula | None
    violating_map: tuple | None = None
    maps_checked: int = 0

    @property
    def definable(self) -> bool:
        return self.formula is not None

    def to_json(self):
        return {
            "definable": self.definable,
            "formula": render_formula(self.formula) if self.formula else None,
            "violating_map": list(self.violating_map) if self.violating_map else None,
            "maps_checked": self.maps_checked,
        }


def _all_permutations(size: int):
    return itertools.permutations(range(size))


def svenonius_explicit(p: DefinabilityProblem) -> DefinabilityReport:
    """Synthesize an explicit definition of the target over the
    sub-vocabulary, or exhibit a symmetry that moves it.

    The candidate maps are the automorphism group of the reduct: the
    core-preserving permutations when the core is definable there, all
    permutations otherwise.  If every map preserves the target, the
    disjunction of the reduct atoms inside the target's cylinder defines
    it exactly; the formula is existentially closed down to the target's
    arity.
    """
    u = p.structure
    red = u.reduct(p.sub_vocab)
    core_formula = core_definable_in_reduct(u, p.sub_vocab)
    if core_formula is not None:
        maps = core_preserving_maps(u)
    else:
        maps = _all_permutations(u.size)
    rel = p.tuples
    checked = 0
    for g in maps:
        checked += 1
        for t in rel:
            if tuple(g[x] for x in t) not in rel:
                return DefinabilityReport(None, tuple(g), checked)
    cyl = relation_cylinder(rel, p.arity, u.size, u.n)
    alg = cached_algebra(red.base)
    atom_ids = [
        aid
        for aid in range(alg.atom_count)
        if alg.partition.atom_members(aid, 0) <= cyl
    ]
    theta = disjunction(alg.partition.defining_formula(aid) for aid in atom_ids)
    theta = _close_coordinates(theta, p.arity, u.n)
    if definable_set(theta, red.base) != cyl:
        raise AssertionError(
            "synthesized definition does not evaluate back to the target"
        )
    return DefinabilityReport(theta, None, checked)


def implicit_defines(
    a: CoredStructure, b: CoredStructure, sub_vocab, relation_name: str
) -> bool:
    """Do the two structures witness implicit definability of the named
    relation over the sub-vocabulary?  Vacuously true when the reducts
    differ."""
    if a.size != b.size:
        raise ValueError("mismatched universes")
    if a.vocab != b.vocab:
        raise ValueError("structures must share a vocabulary")
    sub_vocab = tuple(sub_vocab)
    if relation_name in sub_vocab:
        raise ValueError(f"{relation_name!r} must lie outside the sub-vocabulary")
    if relation_name not in a.vocab:
        raise ValueError(f"unknown relation symbol {relation_name!r}")
    if a.reduct(sub_vocab) != b.reduct(sub_vocab):
        return True
    return a.relation(relation_name) == b.relation(relation_name)
