"""Finite relational structures with a distinguished core subset.

Universes are initial segments of the naturals, so element identity is
index identity and canonical forms hash cheaply.  A cored structure pairs
a plain structure with a core subset; every interpreted relation must be
closed under the tuple equivalence that matches equality patterns and
per-coordinate core membership.  That closure is what makes every
core-preserving permutation an automorphism.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

from .syntax import (
    And,
    Atom,
    Const,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Vocabulary,
    _check_node,
    _post_order,
    validate_formula,
)

__all__ = [
    "Structure",
    "CoredStructure",
    "StructureFamily",
    "SimSignature",
    "ValidationReport",
    "ConsequenceReport",
    "kernel",
    "sim_signature",
    "enumerate_signatures",
    "signature_members",
    "sim_closure",
    "validate_cored_structure",
    "canonical_strong",
    "evaluate",
    "definable_set",
    "SetEvaluator",
    "is_valid_in",
    "all_tuples",
    "cylinder",
    "relation_cylinder",
    "consequence_over",
    "core_preserving_maps",
    "apply_to_tuple",
    "is_automorphism",
    "find_automorphism",
    "generated_substructure",
    "core_bijection_isomorphism",
    "structure_to_json",
    "structure_from_json",
    "load_structure",
    "save_structure",
]


class Structure:
    """Finite relational structure over the universe ``0 .. size-1``."""

    __slots__ = ("size", "vocab", "_interp", "_hash")

    def __init__(self, size: int, vocab: Vocabulary, interp=None):
        if size < 1:
            raise ValueError(f"universe must be non-empty, got size={size}")
        self.size = size
        self.vocab = vocab
        interp = interp or {}
        unknown = set(interp) - set(vocab.names())
        if unknown:
            raise ValueError(f"interpretation for undeclared symbols {sorted(unknown)}")
        table = {}
        for name, arity in vocab.symbols:
            rel = frozenset(tuple(int(x) for x in t) for t in interp.get(name, ()))
            for t in rel:
                if len(t) != arity:
                    raise ValueError(
                        f"tuple {t} for {name!r} has length {len(t)}, arity is {arity}"
                    )
                if any(not 0 <= x < size for x in t):
                    raise ValueError(f"tuple {t} for {name!r} leaves the universe")
            table[name] = rel
        self._interp = table
        self._hash = None

    @property
    def universe(self) -> range:
        return range(self.size)

    def relation(self, name: str) -> frozenset:
        try:
            return self._interp[name]
        except KeyError:
            raise ValueError(f"unknown relation symbol {name!r}") from None

    def reduct(self, names) -> "Structure":
        sub = self.vocab.restrict(names)
        return Structure(self.size, sub, {nm: self._interp[nm] for nm in sub.names()})

    def __eq__(self, other):
        return (
            isinstance(other, Structure)
            and self.size == other.size
            and self.vocab == other.vocab
            and self._interp == other._interp
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.size, self.vocab, tuple(sorted(self._interp.items(), key=lambda kv: kv[0])))
            )
        return self._hash

    def __repr__(self):
        rels = ", ".join(f"{nm}:{len(rel)}" for nm, rel in sorted(self._interp.items()))
        return f"Structure(size={self.size}, n={self.vocab.n}, [{rels}])"


# --- Tuple equivalence machinery --------------------------------------------


def kernel(s) -> tuple[tuple[int, ...], ...]:
    """Partition of tuple positions induced by equality of entries.

    Blocks are ordered by least position, positions inside a block
    ascending.
    """
    first: dict = {}
    blocks: list[list[int]] = []
    for idx, x in enumerate(s):
        at = first.get(x)
        if at is None:
            first[x] = len(blocks)
            blocks.append([idx])
        else:
            blocks[at].append(idx)
    return tuple(tuple(b) for b in blocks)


@dataclass(frozen=True)
class SimSignature:
    """Kernel partition plus one core-membership flag per block."""

    kernel: tuple[tuple[int, ...], ...]
    core_flags: tuple[bool, ...]

    @property
    def k(self) -> int:
        return sum(len(b) for b in self.kernel)


def sim_signature(s, core) -> SimSignature:
    """Signature of a tuple; two tuples are equivalent iff these agree."""
    blocks = kernel(s)
    return SimSignature(blocks, tuple(s[b[0]] in core for b in blocks))


def _set_partitions(k: int):
    """All partitions of {0..k-1}, blocks ordered by least element."""
    if k == 0:
        yield ()
        return
    for smaller in _set_partitions(k - 1):
        for at in range(len(smaller)):
            yield smaller[:at] + (smaller[at] + (k - 1,),) + smaller[at + 1 :]
        yield smaller + ((k - 1,),)


def enumerate_signatures(
    k: int, core_nonempty: bool = True, cocore_nonempty: bool = True
) -> list[SimSignature]:
    """All signatures of k-tuples realizable over a structure whose core
    and co-core are both large enough to host k distinct elements.

    With one side empty the matching flag value is dropped.  The count for
    the unrestricted case is the sum of 2^blocks over partitions of k.
    """
    if k < 1:
        raise ValueError(f"tuple length must be positive, got {k}")
    out = []
    for blocks in _set_partitions(k):
        for flags in itertools.product((True, False), repeat=len(blocks)):
            if not core_nonempty and any(flags):
                continue
            if not cocore_nonempty and not all(flags):
                continue
            out.append(SimSignature(blocks, flags))
    return out


def signature_members(sig: SimSignature, core, size: int):
    """Yield every tuple over ``0..size-1`` realizing the signature."""
    core_sorted = sorted(core)
    cocore_sorted = [x for x in range(size) if x not in core]
    in_blocks = [b for b, f in zip(sig.kernel, sig.core_flags) if f]
    out_blocks = [b for b, f in zip(sig.kernel, sig.core_flags) if not f]
    k = sig.k
    for ins in itertools.permutations(core_sorted, len(in_blocks)):
        for outs in itertools.permutations(cocore_sorted, len(out_blocks)):
            t = [0] * k
            for block, val in zip(in_blocks, ins):
                for i in block:
                    t[i] = val
            for block, val in zip(out_blocks, outs):
                for i in block:
                    t[i] = val
            yield tuple(t)


def sim_closure(rel, core, size: int) -> frozenset:
    """Smallest superset of ``rel`` closed under the tuple equivalence.

    Computed by signature bucketing: every signature touched by ``rel``
    contributes its full class.
    """
    out = set()
    seen = set()
    for s in rel:
        sig = sim_signature(s, core)
        if sig in seen:
            continue
        seen.add(sig)
        out.update(signature_members(sig, core, size))
    return frozenset(out)


# --- Cored structures -------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str  # "core-size" | "cocore-size" | "sim-closure"
    message: str
    symbol: str | None = None
    witness: tuple | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def to_json(self):
        return {
            "ok": self.ok,
            "violations": [
                {
                    "kind": v.kind,
                    "message": v.message,
                    "symbol": v.symbol,
                    "witness": [list(t) for t in v.witness] if v.witness else None,
                }
                for v in self.violations
            ],
        }


def validate_cored_structure(structure: Structure, core) -> ValidationReport:
    """Check the core-size and closure requirements; violations are data."""
    n = structure.vocab.n
    core = frozenset(core)
    bad = [x for x in core if not 0 <= x < structure.size]
    if bad:
        raise ValueError(f"core elements {sorted(bad)} leave the universe")
    violations = []
    if len(core) < n:
        violations.append(
            Violation("core-size", f"|core| = {len(core)} < n = {n}")
        )
    if structure.size - len(core) < n:
        violations.append(
            Violation(
                "cocore-size",
                f"|universe - core| = {structure.size - len(core)} < n = {n}",
            )
        )
    for name, _ in structure.vocab.symbols:
        rel = structure.relation(name)
        seen = set()
        for s in sorted(rel):
            sig = sim_signature(s, core)
            if sig in seen:
                continue
            seen.add(sig)
            for z in signature_members(sig, core, structure.size):
                if z not in rel:
                    violations.append(
                        Violation(
                            "sim-closure",
                            f"{name}: {s} is in the relation, equivalent {z} is not",
                            symbol=name,
                            witness=(s, z),
                        )
                    )
                    break
    return ValidationReport(not violations, tuple(violations))


class CoredStructure:
    """A structure plus a core subset, validated on construction."""

    __slots__ = ("base", "core")

    def __init__(self, base: Structure, core, validate: bool = True):
        core = frozenset(int(x) for x in core)
        if validate:
            report = validate_cored_structure(base, core)
            if not report.ok:
                raise ValueError(
                    "not a valid cored structure: "
                    + "; ".join(v.message for v in report.violations)
                )
        else:
            for x in core:
                if not 0 <= x < base.size:
                    raise ValueError(f"core element {x} leaves the universe")
        self.base = base
        self.core = core

    @property
    def size(self) -> int:
        return self.base.size

    @property
    def vocab(self) -> Vocabulary:
        return self.base.vocab

    @property
    def n(self) -> int:
        return self.base.vocab.n

    @property
    def cocore(self) -> frozenset:
        return frozenset(range(self.size)) - self.core

    def relation(self, name: str) -> frozenset:
        return self.base.relation(name)

    def reduct(self, names) -> "CoredStructure":
        # closure is inherited: forgetting relations cannot break it
        return CoredStructure(self.base.reduct(names), self.core, validate=False)

    def with_core_named(self, name: str = "U0") -> Structure:
        """Plain structure whose single unary relation is the core."""
        vocab = Vocabulary(((name, 1),), self.n)
        return Structure(self.size, vocab, {name: {(x,) for x in self.core}})

    def __eq__(self, other):
        return (
            isinstance(other, CoredStructure)
            and self.base == other.base
            and self.core == other.core
        )

    def __hash__(self):
        return hash((self.base, self.core))

    def __repr__(self):
        return f"CoredStructure(core={sorted(self.core)}, base={self.base!r})"


@dataclass(frozen=True)
class StructureFamily:
    """Non-empty tuple of cored structures over one vocabulary."""

    members: tuple[CoredStructure, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("a structure family must be non-empty")
        vocab = self.members[0].vocab
        for m in self.members[1:]:
            if m.vocab != vocab:
                raise ValueError("family members must share one vocabulary")

    @property
    def vocab(self) -> Vocabulary:
        return self.members[0].vocab

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __getitem__(self, i):
        return self.members[i]

    def reduct(self, names) -> "StructureFamily":
        return StructureFamily(tuple(m.reduct(names) for m in self.members))


def canonical_strong(n: int, core_size: int, cocore_size: int) -> CoredStructure:
    """The stock two-predicate structure: P = Q = core.

    Universe is ``0 .. core_size+cocore_size-1`` with the core as its
    initial segment.  Both sides must have at least n elements.
    """
    if core_size < n or cocore_size < n:
        raise ValueError(
            f"need core and co-core of size >= n = {n}, got {core_size}, {cocore_size}"
        )
    vocab = Vocabulary((("P", 1), ("Q", 1)), n)
    core = frozenset(range(core_size))
    rel = {(x,) for x in core}
    base = Structure(core_size + cocore_size, vocab, {"P": rel, "Q": rel})
    return CoredStructure(base, core)


# --- Evaluation --------------------------------------------------------------


@lru_cache(maxsize=64)
def all_tuples(size: int, n: int) -> tuple:
    return tuple(itertools.product(range(size), repeat=n))


def evaluate(f: Formula, structure: Structure, assignment) -> bool:
    """Pointwise satisfaction under a full assignment of all n variables.

    This is the plain recursive truth definition, kept as the oracle for
    the bitset evaluator behind `definable_set`; the test suite checks
    the two against each other.
    """
    n = structure.vocab.n
    asg = [int(x) for x in assignment]
    if len(asg) != n:
        raise ValueError(f"assignment must have length n = {n}, got {len(asg)}")
    if any(not 0 <= x < structure.size for x in asg):
        raise ValueError("assignment leaves the universe")
    validate_formula(f, structure.vocab)
    return _eval(f, structure, asg)


def _eval(f: Formula, structure: Structure, asg: list) -> bool:
    if isinstance(f, Atom):
        return tuple(asg[i] for i in f.args) in structure.relation(f.name)
    if isinstance(f, Eq):
        return asg[f.i] == asg[f.j]
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not _eval(f.body, structure, asg)
    if isinstance(f, And):
        return _eval(f.left, structure, asg) and _eval(f.right, structure, asg)
    if isinstance(f, Or):
        return _eval(f.left, structure, asg) or _eval(f.right, structure, asg)
    if isinstance(f, Implies):
        return (not _eval(f.left, structure, asg)) or _eval(f.right, structure, asg)
    if isinstance(f, Iff):
        return _eval(f.left, structure, asg) == _eval(f.right, structure, asg)
    if isinstance(f, (Exists, Forall)):
        # universal quantifiers run as negated existentials semantically
        saved = asg[f.var]
        hits = False
        alls = True
        for x in range(structure.size):
            asg[f.var] = x
            if _eval(f.body, structure, asg):
                hits = True
                if isinstance(f, Exists):
                    break
            else:
                alls = False
                if isinstance(f, Forall):
                    break
        asg[f.var] = saved
        return hits if isinstance(f, Exists) else alls
    raise TypeError(f"not a formula node: {f!r}")


def cylinder(tuples, i: int, size: int) -> frozenset:
    """All tuples agreeing with a member of ``tuples`` off coordinate i."""
    rests = {t[:i] + t[i + 1 :] for t in tuples}
    return frozenset(
        r[:i] + (x,) + r[i:] for r in rests for x in range(size)
    )


def relation_cylinder(rel, m: int, size: int, n: int) -> frozenset:
    """n-ary cylinder over an m-ary relation: first m coordinates in rel."""
    if m > n:
        raise ValueError(f"arity {m} exceeds n = {n}")
    tails = tuple(itertools.product(range(size), repeat=n - m))
    return frozenset(t + tail for t in rel for tail in tails)


_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class SetEvaluator:
    """Satisfaction sets of formulas in one structure, as int bitmasks.

    Bit c stands for ``all_tuples(size, n)[c]``, the tuple t with
    mixed-radix code ``c = sum(t[k] * size**(n-1-k))``, so ascending bits
    are ascending tuples.  Leaf masks and the per-node memo last as long
    as the evaluator, so formulas sharing subtrees (the refinement
    machinery builds many) evaluate each distinct node once across
    calls.  The memo is keyed by node id; the evaluator holds every
    formula it was given, which keeps those ids valid.
    """

    def __init__(self, structure: Structure):
        self.structure = structure
        size, n = structure.size, structure.vocab.n
        count = size**n
        self.full = (1 << count) - 1
        self._tuples = all_tuples(size, n)
        self._stride = tuple(size ** (n - 1 - k) for k in range(n))
        # fibres[k][x]: the tuples whose coordinate k is x
        self._fibres = []
        for stride in self._stride:
            period = "0" * (stride * (size - 1)) + "1" * stride
            zero = int(period * (count // (stride * size)), 2)
            self._fibres.append(tuple(zero << (x * stride) for x in range(size)))
        self._leaves: dict[tuple, int] = {}
        self._memo: dict[int, int] = {}
        self._roots: list[Formula] = []

    def bits(self, tuples) -> int:
        """Mask of a collection of n-tuples of the structure."""
        count = len(self._tuples)
        digits = bytearray(b"0") * count
        for t in tuples:
            digits[count - 1 - sum(x * s for x, s in zip(t, self._stride))] = 0x31
        return int(digits, 2)

    def tuples(self, mask: int) -> frozenset:
        """The n-tuples of a mask."""
        flags = format(mask, "b").encode().translate(_BIT_FLAGS)[::-1]
        return frozenset(itertools.compress(self._tuples, flags))

    def least(self, mask: int) -> tuple:
        """Lexicographically least tuple of a non-empty mask."""
        return self._tuples[(mask & -mask).bit_length() - 1]

    def cyl(self, mask: int, k: int) -> int:
        """Cylindrification along coordinate k: fold the fibres of k into
        the slab where coordinate k is 0, then spread the slab back out."""
        stride, fibres = self._stride[k], self._fibres[k]
        slab = 0
        for x, fibre in enumerate(fibres):
            slab |= (mask & fibre) >> (x * stride)
        out = slab
        for x in range(1, len(fibres)):
            out |= slab << (x * stride)
        return out

    def _leaf(self, node: Formula) -> int:
        if isinstance(node, Atom):
            key = (node.name, node.args)
        else:
            key = (node.i, node.j)
        got = self._leaves.get(key)
        if got is not None:
            return got
        fibres, full = self._fibres, self.full
        out = 0
        if isinstance(node, Atom):
            for t in self.structure.relation(node.name):
                m = full
                for k, x in zip(node.args, t):
                    m &= fibres[k][x]
                out |= m
        else:
            for a, b in zip(fibres[node.i], fibres[node.j]):
                out |= a & b
        self._leaves[key] = out
        return out

    def mask(self, f: Formula) -> int:
        """Satisfaction set of f.  Nodes are evaluated children-first
        from an explicit stack, so formula depth is no limit."""
        memo = self._memo
        got = memo.get(id(f))
        if got is not None:
            return got
        self._roots.append(f)
        vocab, full = self.structure.vocab, self.full
        for node in _post_order(f, memo):
            _check_node(node, vocab)
            if isinstance(node, (Atom, Eq)):
                out = self._leaf(node)
            elif isinstance(node, Const):
                out = full if node.value else 0
            elif isinstance(node, Not):
                out = full ^ memo[id(node.body)]
            elif isinstance(node, And):
                out = memo[id(node.left)] & memo[id(node.right)]
            elif isinstance(node, Or):
                out = memo[id(node.left)] | memo[id(node.right)]
            elif isinstance(node, Implies):
                out = (full ^ memo[id(node.left)]) | memo[id(node.right)]
            elif isinstance(node, Iff):
                out = full ^ memo[id(node.left)] ^ memo[id(node.right)]
            elif isinstance(node, Exists):
                out = self.cyl(memo[id(node.body)], node.var)
            elif isinstance(node, Forall):
                out = full ^ self.cyl(full ^ memo[id(node.body)], node.var)
            else:
                raise TypeError(f"not a formula node: {node!r}")
            memo[id(node)] = out
        return memo[id(f)]


def definable_set(f: Formula, structure: Structure) -> frozenset:
    """Full satisfaction set of f as a set of n-tuples.

    Evaluated on int bitmasks over tuple codes by a `SetEvaluator`, one
    per call: each distinct DAG node is visited once, children-first and
    without recursion, and only the root's mask becomes tuples.  Callers
    that only test validity, inclusion or emptiness should compare masks
    of a `SetEvaluator` instead.
    """
    ev = SetEvaluator(structure)
    return ev.tuples(ev.mask(f))


def is_valid_in(f: Formula, structure: Structure) -> bool:
    """True iff f holds under every assignment."""
    ev = SetEvaluator(structure)
    return ev.mask(f) == ev.full


@dataclass(frozen=True)
class ConsequenceReport:
    holds: bool
    member_index: int | None = None
    assignment: tuple | None = None

    def to_json(self):
        return {
            "holds": self.holds,
            "member_index": self.member_index,
            "assignment": list(self.assignment) if self.assignment else None,
        }


def consequence_over(
    family: StructureFamily, phi: Formula, psi: Formula, mode: str
) -> ConsequenceReport:
    """Family-relative consequence.

    ``validity-consequence``: every member validating phi (under all
    assignments) validates psi.  ``implication-validity``: in every
    member the satisfaction set of phi is contained in psi's.  On failure
    the report carries the offending member and its least offending
    assignment.
    """
    if mode not in ("validity-consequence", "implication-validity"):
        raise ValueError(f"unknown consequence mode {mode!r}")
    for idx, member in enumerate(family):
        ev = SetEvaluator(member.base)
        sphi = ev.mask(phi)
        spsi = ev.mask(psi)
        if mode == "validity-consequence":
            bad = ev.full ^ spsi if sphi == ev.full else 0
        else:
            bad = sphi & ~spsi
        if bad:
            return ConsequenceReport(False, idx, ev.least(bad))
    return ConsequenceReport(True)


# --- Automorphisms -----------------------------------------------------------


def apply_to_tuple(perm, t) -> tuple:
    return tuple(perm[x] for x in t)


def is_automorphism(structure: Structure, perm) -> bool:
    if sorted(perm) != list(range(structure.size)):
        raise ValueError("not a permutation of the universe")
    for name, _ in structure.vocab.symbols:
        rel = structure.relation(name)
        for t in rel:
            if apply_to_tuple(perm, t) not in rel:
                return False
    return True


def core_preserving_maps(u: CoredStructure):
    """All permutations mapping the core onto itself, identity first.

    Every one of them is an automorphism of a valid cored structure, by
    the closure invariant.
    """
    core_sorted = sorted(u.core)
    cocore_sorted = sorted(u.cocore)
    for pc in itertools.permutations(core_sorted):
        for pd in itertools.permutations(cocore_sorted):
            perm = [0] * u.size
            for src, tgt in zip(core_sorted, pc):
                perm[src] = tgt
            for src, tgt in zip(cocore_sorted, pd):
                perm[src] = tgt
            yield tuple(perm)


def _partial_map(a, b) -> dict | None:
    """Injective map a_i -> b_i if equality patterns allow it."""
    g: dict[int, int] = {}
    for x, y in zip(a, b):
        if g.get(x, y) != y:
            return None
        g[x] = y
    if len(set(g.values())) != len(g):
        return None
    return g


def _complete(g: dict, srcs, tgts) -> tuple:
    perm = dict(g)
    for s, t in zip(srcs, tgts):
        perm[s] = t
    return tuple(perm[x] for x in sorted(perm))


def find_automorphism(u: CoredStructure, a, b):
    """Automorphism mapping tuple a onto tuple b, or None.

    The pair is first compared by algebra type (the formulas with free
    variables among the first len(a) they satisfy).  Distinct types mean
    no automorphism can exist.  Matching signatures give a core-preserving
    extension, which the closure invariant makes an automorphism outright;
    otherwise a kernel-respecting extension is tried and verified, falling
    back to an exhaustive search over extensions before giving up.
    """
    a = tuple(int(x) for x in a)
    b = tuple(int(x) for x in b)
    if len(a) != len(b):
        raise ValueError(f"tuple lengths differ: {len(a)} vs {len(b)}")
    if len(a) > u.n:
        raise ValueError(f"tuples longer than n = {u.n}")
    for x in a + b:
        if not 0 <= x < u.size:
            raise ValueError(f"element {x} leaves the universe")
    if not a:
        return tuple(range(u.size))

    from .algebra import cached_algebra  # deferred: algebra builds on this module

    alg = cached_algebra(u.base)
    if alg.tuple_type(a) != alg.tuple_type(b):
        return None

    if sim_signature(a, u.core) == sim_signature(b, u.core):
        g = _partial_map(a, b)
        rest_core_src = sorted(x for x in u.core if x not in g)
        rest_core_tgt = sorted(y for y in u.core if y not in g.values())
        rest_out_src = sorted(x for x in u.cocore if x not in g)
        rest_out_tgt = sorted(y for y in u.cocore if y not in g.values())
        return _complete(g, rest_core_src + rest_out_src, rest_core_tgt + rest_out_tgt)

    g = _partial_map(a, b)
    if g is None:
        return None
    srcs = sorted(x for x in range(u.size) if x not in g)
    tgts = sorted(y for y in range(u.size) if y not in set(g.values()))
    candidate = _complete(g, srcs, tgts)
    if is_automorphism(u.base, candidate):
        return candidate
    for arrangement in itertools.permutations(tgts):
        candidate = _complete(g, srcs, arrangement)
        if is_automorphism(u.base, candidate):
            return candidate
    return None


# --- Substructures and isomorphisms ------------------------------------------


def generated_substructure(u: CoredStructure, subset) -> CoredStructure:
    """Restriction to a subset meeting the core and co-core in >= n points.

    With a relational vocabulary the generated substructure is the plain
    restriction; the universe is relabeled onto an initial segment in
    sorted order.
    """
    subset = sorted(set(int(x) for x in subset))
    for x in subset:
        if not 0 <= x < u.size:
            raise ValueError(f"element {x} leaves the universe")
    inside = len([x for x in subset if x in u.core])
    outside = len(subset) - inside
    if inside < u.n or outside < u.n:
        raise ValueError(
            f"need >= n = {u.n} elements on both sides of the core, got"
            f" {inside} inside and {outside} outside"
        )
    relabel = {old: new for new, old in enumerate(subset)}
    keep = set(subset)
    interp = {}
    for name, _ in u.vocab.symbols:
        interp[name] = {
            tuple(relabel[x] for x in t)
            for t in u.relation(name)
            if all(x in keep for x in t)
        }
    base = Structure(len(subset), u.vocab, interp)
    core = frozenset(relabel[x] for x in subset if x in u.core)
    return CoredStructure(base, core)


def core_bijection_isomorphism(a: CoredStructure, b: CoredStructure, mapping) -> bool:
    """Does the bijection map core onto core and preserve all relations
    both ways?
    """
    if a.size != b.size:
        raise ValueError("structures must have equal universe sizes")
    if a.vocab != b.vocab:
        raise ValueError("structures must share a vocabulary")
    if isinstance(mapping, dict):
        perm = tuple(mapping[x] for x in range(a.size))
    else:
        perm = tuple(mapping)
    if sorted(perm) != list(range(a.size)):
        raise ValueError("not a bijection between the universes")
    if {perm[x] for x in a.core} != set(b.core):
        return False
    for name, _ in a.vocab.symbols:
        image = {apply_to_tuple(perm, t) for t in a.relation(name)}
        if image != b.relation(name):
            return False
    return True


# --- JSON structure files ----------------------------------------------------

_FILE_KEYS = {"n", "universe", "core", "relations"}
_REL_KEYS = {"arity", "tuples"}


def structure_from_json(data: dict, validate: bool = True) -> CoredStructure:
    if not isinstance(data, dict):
        raise ValueError("structure file must be a JSON object")
    unknown = set(data) - _FILE_KEYS
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in structure file")
    missing = _FILE_KEYS - set(data)
    if missing:
        raise ValueError(f"missing keys {sorted(missing)} in structure file")
    n = int(data["n"])
    size = int(data["universe"])
    rels = data["relations"]
    if not isinstance(rels, dict):
        raise ValueError('"relations" must be an object')
    symbols = []
    interp = {}
    for name in sorted(rels):
        body = rels[name]
        if not isinstance(body, dict):
            raise ValueError(f"relation {name!r} must be an object")
        extra = set(body) - _REL_KEYS
        if extra:
            raise ValueError(f"unknown keys {sorted(extra)} in relation {name!r}")
        if _REL_KEYS - set(body):
            raise ValueError(f"relation {name!r} needs arity and tuples")
        symbols.append((name, int(body["arity"])))
        interp[name] = [tuple(t) for t in body["tuples"]]
    vocab = Vocabulary(tuple(symbols), n)
    base = Structure(size, vocab, interp)
    return CoredStructure(base, data["core"], validate=validate)


def structure_to_json(u: CoredStructure) -> dict:
    return {
        "n": u.n,
        "universe": u.size,
        "core": sorted(u.core),
        "relations": {
            name: {
                "arity": u.vocab.arity(name),
                "tuples": [list(t) for t in sorted(u.relation(name))],
            }
            for name in u.vocab.names()
        },
    }


def load_structure(path, validate: bool = True) -> CoredStructure:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return structure_from_json(data, validate=validate)


def save_structure(u: CoredStructure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(structure_to_json(u), fh, indent=2, sort_keys=True)
        fh.write("\n")
