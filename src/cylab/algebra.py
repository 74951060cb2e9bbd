"""Type partitions and cylindric set algebras of finite structures.

The type partition of a structure groups its n-tuples by the n-variable
formulas they satisfy.  It is computed by pebble-style partition
refinement: start from atomic types (equality pattern plus relation
memberships over every index tuple) and keep splitting classes until,
for every coordinate i, same-class tuples reach the same classes by
changing coordinate i.  Each fixpoint class is definable, and the
construction records a defining formula for it, so the definable n-ary
relations are exactly the unions of classes.

The cylindric set algebra wraps the partition: elements are unions of
atoms, meet and complement are set operations, and cylindrification
along i is the union of the atoms reachable by an i-move.

The same engine refines several structures at once (colors shared,
moves stay inside each structure), which yields compatible atoms across
a whole family; the separation and interpolation procedures build on
that.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .syntax import (
    Atom,
    Eq,
    Exists,
    Formula,
    Not,
    conjunction,
    disjunction,
)
from .structures import SetEvaluator, Structure, all_tuples, kernel

__all__ = [
    "TypePartition",
    "compute_type_partition",
    "compute_joint_partition",
    "CsnAlgebra",
    "Element",
    "build_csn",
    "cached_algebra",
    "is_definable",
    "unary_definables",
    "m_ary_definables",
    "invariant_components",
    "signature_bound",
]


def signature_bound(n: int) -> int:
    """Most classes the tuple equivalence can have on n-tuples: the sum
    of 2^blocks over the partitions of n.  For n = 3 this is 22."""
    from .structures import _set_partitions

    return sum(2 ** len(blocks) for blocks in _set_partitions(n))


class TypePartition:
    """Coarsest stable partition of the n-tuples of one or more
    structures sharing a vocabulary.

    Atoms are numbered by their lexicographically least member, ordered
    first by structure index.  ``reach[i][aid]`` is the set of atoms
    reachable from atom ``aid`` by changing coordinate i; at the fixpoint
    this set is the same from every member tuple, including members in
    different structures.
    """

    def __init__(self, structures):
        structures = tuple(structures)
        if not structures:
            raise ValueError("need at least one structure")
        vocab = structures[0].vocab
        for s in structures[1:]:
            if s.vocab != vocab:
                raise ValueError("joint refinement needs one shared vocabulary")
        n = vocab.n
        for _, arity in vocab.symbols:
            if arity > n:
                raise ValueError(f"arity {arity} exceeds n = {n}")
        self.structures = structures
        self.vocab = vocab
        self.n = n

        layout = [
            (name, idx)
            for name, arity in vocab.symbols
            for idx in itertools.product(range(n), repeat=arity)
        ]

        # stage 0: atomic types
        color: dict[tuple[int, tuple], int] = {}
        keys: dict[tuple, int] = {}
        stage0_keys: list[tuple] = []
        for sidx, st in enumerate(structures):
            rels = {name: st.relation(name) for name, _ in vocab.symbols}
            for t in all_tuples(st.size, n):
                bits = tuple(
                    tuple(t[i] for i in idx) in rels[name] for name, idx in layout
                )
                key = (kernel(t), bits)
                cid = keys.get(key)
                if cid is None:
                    cid = len(stage0_keys)
                    keys[key] = cid
                    stage0_keys.append(key)
                color[(sidx, t)] = cid
        # renumber stage-0 classes deterministically by key
        order = sorted(range(len(stage0_keys)), key=lambda c: stage0_keys[c])
        rank = {old: new for new, old in enumerate(order)}
        color = {pt: rank[c] for pt, c in color.items()}
        stage0_keys = [stage0_keys[old] for old in order]

        # stage k: split by sets of reachable stage-(k-1) classes
        stages: list[list] = [stage0_keys]
        count = len(stage0_keys)
        while True:
            keyed: dict[tuple, int] = {}
            new_meta: list[tuple] = []
            new_color: dict[tuple[int, tuple], int] = {}
            for sidx, st in enumerate(structures):
                size = st.size
                for t in all_tuples(st.size, n):
                    reach = tuple(
                        tuple(
                            sorted(
                                {
                                    color[(sidx, t[:i] + (x,) + t[i + 1 :])]
                                    for x in range(size)
                                }
                            )
                        )
                        for i in range(n)
                    )
                    key = (color[(sidx, t)], reach)
                    cid = keyed.get(key)
                    if cid is None:
                        cid = len(new_meta)
                        keyed[key] = cid
                        new_meta.append(key)
                    new_color[(sidx, t)] = cid
            if len(new_meta) == count:
                break
            order = sorted(range(len(new_meta)), key=lambda c: new_meta[c])
            rank = {old: new for new, old in enumerate(order)}
            color = {pt: rank[c] for pt, c in new_color.items()}
            # parent and reach entries refer to previous-stage ids, keep as-is
            stages.append([new_meta[old] for old in order])
            count = len(new_meta)

        self._stages = stages
        final_count = count

        # atom numbering: lexicographically least (structure index, tuple)
        least: dict[int, tuple] = {}
        for sidx, st in enumerate(structures):
            for t in all_tuples(st.size, n):
                c = color[(sidx, t)]
                pt = (sidx, t)
                if c not in least or pt < least[c]:
                    least[c] = pt
        order = sorted(range(final_count), key=lambda c: least[c])
        atom_rank = {old: new for new, old in enumerate(order)}
        self._final_of_atom = {atom_rank[old]: old for old in range(final_count)}
        self.atom_of: dict[tuple[int, tuple], int] = {
            pt: atom_rank[c] for pt, c in color.items()
        }

        members: list[dict[int, list]] = [dict() for _ in structures]
        for (sidx, t), aid in self.atom_of.items():
            members[sidx].setdefault(aid, []).append(t)
        self._members = [
            {aid: frozenset(ts) for aid, ts in bysidx.items()} for bysidx in members
        ]
        self.atom_count = final_count

        # reachable atom sets, one representative per atom is enough at
        # the fixpoint
        reach: list[list[frozenset]] = [
            [frozenset()] * final_count for _ in range(n)
        ]
        for aid in range(final_count):
            sidx, t = min(
                (s, min(m[aid]))
                for s, m in enumerate(self._members)
                if aid in m
            )
            size = structures[sidx].size
            for i in range(n):
                reach[i][aid] = frozenset(
                    self.atom_of[(sidx, t[:i] + (x,) + t[i + 1 :])]
                    for x in range(size)
                )
        self.reach = reach
        self._formula_memo: dict[tuple[int, int], Formula] = {}

    # -- membership ----------------------------------------------------------

    def atom_members(self, aid: int, sidx: int = 0) -> frozenset:
        """Tuples of structure ``sidx`` in the atom (possibly empty)."""
        return self._members[sidx].get(aid, frozenset())

    def atom(self, t, sidx: int = 0) -> int:
        try:
            return self.atom_of[(sidx, tuple(t))]
        except KeyError:
            raise ValueError(
                f"tuple {tuple(t)} is not an n-tuple of structure {sidx}"
            ) from None

    def profile(self, sidx: int) -> frozenset:
        """Atoms realized in structure ``sidx``."""
        return frozenset(self._members[sidx])

    def atom_kernel(self, aid: int):
        """Equality pattern shared by every tuple of the atom."""
        for m in self._members:
            if aid in m:
                return kernel(min(m[aid]))
        raise ValueError(f"no atom {aid}")

    # -- defining formulas -----------------------------------------------------

    def _stage_formula(self, stage: int, cid: int) -> Formula:
        got = self._formula_memo.get((stage, cid))
        if got is not None:
            return got
        n = self.n
        if stage == 0:
            blocks, bits = self._stages[0][cid]
            block_of = {}
            for b, block in enumerate(blocks):
                for i in block:
                    block_of[i] = b
            parts: list[Formula] = []
            for i in range(n):
                for j in range(i + 1, n):
                    eq = Eq(i, j)
                    parts.append(eq if block_of[i] == block_of[j] else Not(eq))
            at = 0
            for name, arity in self.vocab.symbols:
                for idx in itertools.product(range(n), repeat=arity):
                    atom = Atom(name, idx)
                    parts.append(atom if bits[at] else Not(atom))
                    at += 1
            out = conjunction(parts)
        else:
            parent, reach = self._stages[stage][cid]
            parts = [self._stage_formula(stage - 1, parent)]
            prev_count = len(self._stages[stage - 1])
            for i in range(n):
                reachable = set(reach[i])
                for c in range(prev_count):
                    sub = Exists(i, self._stage_formula(stage - 1, c))
                    parts.append(sub if c in reachable else Not(sub))
            out = conjunction(parts)
        self._formula_memo[(stage, cid)] = out
        return out

    def defining_formula(self, aid: int) -> Formula:
        """Formula satisfied by exactly this atom's tuples, in every
        structure of the refinement.  Size can be exponential in the
        number of refinement rounds; subtrees are shared, so the memoized
        set evaluator stays cheap."""
        return self._stage_formula(len(self._stages) - 1, self._final_of_atom[aid])

    def check_defining_formulas(self) -> bool:
        """Evaluate every atom's formula back, with one evaluator per
        structure: the atoms' formulas share most of their nodes, and
        ``_formula_memo`` keeps those nodes alive."""
        for sidx, st in enumerate(self.structures):
            ev = SetEvaluator(st)
            for aid in range(self.atom_count):
                f = self.defining_formula(aid)
                if ev.mask(f) != ev.bits(self.atom_members(aid, sidx)):
                    return False
        return True


def compute_type_partition(structure: Structure) -> TypePartition:
    """Coarsest stable partition of one structure's n-tuples."""
    return TypePartition((structure,))


def compute_joint_partition(structures) -> TypePartition:
    """One partition across several structures over a shared vocabulary;
    tuples in different structures share an atom exactly when they
    satisfy the same formulas."""
    return TypePartition(tuple(structures))


# --- The algebra -------------------------------------------------------------


class Element:
    """An element of a cylindric set algebra: a set of atom ids."""

    __slots__ = ("alg", "atoms")

    def __init__(self, alg: "CsnAlgebra", atoms):
        self.alg = alg
        self.atoms = frozenset(atoms)

    def _peer(self, other: "Element") -> "Element":
        if not isinstance(other, Element) or other.alg is not self.alg:
            raise ValueError("elements belong to different algebras")
        return other

    def __and__(self, other):
        return Element(self.alg, self.atoms & self._peer(other).atoms)

    def __or__(self, other):
        return Element(self.alg, self.atoms | self._peer(other).atoms)

    def __sub__(self, other):
        return Element(self.alg, self.atoms - self._peer(other).atoms)

    def __invert__(self):
        return Element(self.alg, frozenset(range(self.alg.atom_count)) - self.atoms)

    def cyl(self, i: int) -> "Element":
        """Cylindrification along coordinate i."""
        if not 0 <= i < self.alg.n:
            raise ValueError(f"coordinate {i} out of range for n = {self.alg.n}")
        reach = self.alg.partition.reach[i]
        out = set()
        for aid in self.atoms:
            out |= reach[aid]
        return Element(self.alg, out)

    def tuples(self) -> frozenset:
        part = self.alg.partition
        out = set()
        for aid in self.atoms:
            out |= part.atom_members(aid, 0)
        return frozenset(out)

    def __le__(self, other):
        return self.atoms <= self._peer(other).atoms

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and other.alg is self.alg
            and other.atoms == self.atoms
        )

    def __hash__(self):
        return hash((id(self.alg), self.atoms))

    def __bool__(self):
        return bool(self.atoms)

    def __repr__(self):
        return f"Element({sorted(self.atoms)})"


class CsnAlgebra:
    """Cylindric set algebra of one structure, carried by its type
    partition.  The carrier is the full powerset of atoms (2^atom_count
    elements, materialized on demand), with distinguished zero, one,
    diagonals, the injectivity elements and one generator per relation
    symbol."""

    def __init__(self, structure: Structure):
        self.structure = structure
        self.partition = compute_type_partition(structure)
        self.n = structure.vocab.n
        self.atom_count = self.partition.atom_count
        self._ktype_memo: dict[tuple, frozenset] = {}

    # -- distinguished elements ----------------------------------------------

    @property
    def zero(self) -> Element:
        return Element(self, ())

    @property
    def one(self) -> Element:
        return Element(self, range(self.atom_count))

    def atom_element(self, aid: int) -> Element:
        if not 0 <= aid < self.atom_count:
            raise ValueError(f"no atom {aid}")
        return Element(self, (aid,))

    def diagonal(self, i: int, j: int) -> Element:
        """Atoms whose tuples have equal i-th and j-th entries."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"diagonal indices {i},{j} out of range")
        part = self.partition
        out = []
        for aid in range(self.atom_count):
            blocks = part.atom_kernel(aid)
            block_of = {x: b for b, block in enumerate(blocks) for x in block}
            if block_of[i] == block_of[j]:
                out.append(aid)
        return Element(self, out)

    def dstar(self, m: int) -> Element:
        """Tuples whose first m coordinates are pairwise distinct."""
        if not 1 <= m <= self.n:
            raise ValueError(f"m = {m} out of range [1, {self.n}]")
        out = self.one
        for i in range(m):
            for j in range(i + 1, m):
                out = out & ~self.diagonal(i, j)
        return out

    def generator(self, name: str) -> Element:
        """The element of the relation symbol applied to v0..v{ar-1}."""
        rel = self.structure.relation(name)
        ar = self.structure.vocab.arity(name)
        part = self.partition
        out = []
        for aid in range(self.atom_count):
            rep = min(part.atom_members(aid, 0))
            if rep[:ar] in rel:
                out.append(aid)
        return Element(self, out)

    # -- conversions ------------------------------------------------------------

    def element_of_tuples(self, tuples) -> Element | None:
        """The element with exactly these tuples, or None when the set is
        not a union of atoms."""
        part = self.partition
        tuples = frozenset(tuple(t) for t in tuples)
        atoms = {part.atom(t) for t in tuples}
        for aid in atoms:
            if not part.atom_members(aid, 0) <= tuples:
                return None
        return Element(self, atoms)

    @property
    def carrier_log2(self) -> int:
        return self.atom_count

    def iter_elements(self, limit: int = 1 << 20):
        """All elements in ascending atom-set order; guarded against
        blowing up on large atom counts."""
        if 2**self.atom_count > limit:
            raise ValueError(
                f"carrier has 2^{self.atom_count} elements; iterate atoms instead"
            )
        ids = range(self.atom_count)
        for r in range(self.atom_count + 1):
            for combo in itertools.combinations(ids, r):
                yield Element(self, combo)

    def tuple_type(self, t) -> frozenset:
        """Type of a k-tuple (k <= n): the closure of any extension's atom
        under moves of coordinates >= k.  Two tuples get equal types
        exactly when they satisfy the same formulas with free variables
        among the first k."""
        t = tuple(t)
        got = self._ktype_memo.get(t)
        if got is not None:
            return got
        k = len(t)
        if k > self.n:
            raise ValueError(f"tuple longer than n = {self.n}")
        ext = t + (t[0],) * (self.n - k)
        seen = {self.partition.atom(ext)}
        frontier = list(seen)
        while frontier:
            aid = frontier.pop()
            for i in range(k, self.n):
                for nxt in self.partition.reach[i][aid]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        out = frozenset(seen)
        self._ktype_memo[t] = out
        return out

    def report(self) -> dict:
        part = self.partition
        return {
            "atoms": self.atom_count,
            "carrier_log2": self.carrier_log2,
            "unary_definables": [sorted(s) for s in unary_definables(self)],
            "atom_sizes": [
                len(part.atom_members(aid, 0)) for aid in range(self.atom_count)
            ],
        }


def build_csn(structure: Structure) -> CsnAlgebra:
    """Cylindric set algebra of the structure's definable n-ary relations."""
    return CsnAlgebra(structure)


@lru_cache(maxsize=512)
def cached_algebra(structure: Structure) -> CsnAlgebra:
    """Shared algebra instances; structures are immutable, so caching by
    value is safe and keeps element identities compatible."""
    return CsnAlgebra(structure)


# --- Definability queries -----------------------------------------------------


def is_definable(rel, alg: CsnAlgebra) -> Formula | None:
    """A formula defining the n-ary tuple set, or None when the set is
    not a union of atoms.  The formula is the disjunction of the atoms'
    defining formulas in ascending atom order; the empty set yields
    ``false``."""
    el = alg.element_of_tuples(rel)
    if el is None:
        return None
    return disjunction(
        alg.partition.defining_formula(aid) for aid in sorted(el.atoms)
    )


def invariant_components(alg: CsnAlgebra, m: int) -> list[frozenset]:
    """Connected components of atoms under moves of coordinates >= m.

    Unions of these components are exactly the elements unchanged by
    every cylindrification c_k with k >= m, i.e. the m-ary definable
    relations embedded as cylinders.  Components are ordered by least
    atom id.
    """
    if not 1 <= m <= alg.n:
        raise ValueError(f"m = {m} out of range [1, {alg.n}]")
    seen = set()
    comps = []
    for start in range(alg.atom_count):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            aid = frontier.pop()
            for i in range(m, alg.n):
                for nxt in alg.partition.reach[i][aid]:
                    if nxt not in comp:
                        comp.add(nxt)
                        frontier.append(nxt)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


_COMPONENT_CAP = 20


def m_ary_definables(alg: CsnAlgebra, m: int) -> list[Element]:
    """All elements invariant under every c_k with k >= m, enumerated by
    ascending component count.  The total is 2^components; a guard
    refuses hopeless enumerations."""
    comps = invariant_components(alg, m)
    if len(comps) > _COMPONENT_CAP:
        raise ValueError(
            f"{len(comps)} invariant components; enumerate them via"
            " invariant_components instead"
        )
    out = []
    for r in range(len(comps) + 1):
        for combo in itertools.combinations(range(len(comps)), r):
            atoms = frozenset().union(*(comps[c] for c in combo)) if combo else frozenset()
            out.append(Element(alg, atoms))
    return out


def unary_definables(alg: CsnAlgebra) -> list[frozenset]:
    """All subsets S of the universe whose column {s : s_0 in S} is an
    element.  Read off the components invariant under coordinates >= 1;
    the expected answer for a valid cored structure is at most the four
    sets empty, universe, core and co-core."""
    out = []
    for el in m_ary_definables(alg, 1):
        out.append(frozenset(t[0] for t in el.tuples()))
    return sorted(set(out), key=lambda s: (len(s), sorted(s)))
