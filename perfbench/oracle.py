"""Independent answer checks.

Each check recomputes an answer by a route that does not go through the
code path under test: a tuple-level refinement written here, pointwise
evaluation, the signature-closure oracle, or a direct automorphism test.
Checks run outside every timed span and return ``None`` when the answer
holds, or a ``(kind, message)`` pair naming the failure.
"""

from __future__ import annotations

import itertools

from cylab import evaluate, parse_formula, render_formula, sim_closure
from cylab.structures import is_automorphism
from cylab.syntax import And, Atom, Const, Eq, Exists, Forall, Iff, Implies, Not, Or

WRONG = "wrong_answer"
BAD_WITNESS = "bad_witness"


def atomic_types(structures) -> list[dict]:
    """Tuple colouring by equality pattern and atomic facts alone, shared
    across the structures (the starting point of refinement)."""
    vocab = structures[0].vocab
    n = vocab.n
    layout = [
        (name, idx)
        for name, arity in vocab.symbols
        for idx in itertools.product(range(n), repeat=arity)
    ]
    colours = []
    for s in structures:
        rels = {name: s.relation(name) for name, _ in vocab.symbols}
        colours.append(
            {
                t: (
                    tuple(t[i] == t[j] for i in range(n) for j in range(i + 1, n)),
                    tuple(tuple(t[i] for i in idx) in rels[name] for name, idx in layout),
                )
                for t in itertools.product(range(s.size), repeat=n)
            }
        )
    return _renumber(colours)


def n_types(structures) -> tuple[list[dict], int]:
    """Tuple colouring by plain colour refinement, shared across the
    structures: two n-tuples get one colour exactly when they satisfy the
    same n-variable formulas.  Start from the atomic types; split by the
    colours reachable through each coordinate until the number of
    colours stops growing.  Also returns the number of rounds that split
    some colour."""
    n = structures[0].vocab.n
    colours = atomic_types(structures)
    count = len({c for col in colours for c in col.values()})
    rounds = 0
    while True:
        refined = []
        for s, col in zip(structures, colours):
            refined.append(
                {
                    t: (
                        c,
                        tuple(
                            frozenset(col[t[:i] + (x,) + t[i + 1 :]] for x in range(s.size))
                            for i in range(n)
                        ),
                    )
                    for t, c in col.items()
                }
            )
        refined = _renumber(refined)
        new_count = len({c for col in refined for c in col.values()})
        colours = refined
        if new_count == count:
            return colours, rounds
        count = new_count
        rounds += 1


def _renumber(colourings):
    ids: dict = {}
    return [{t: ids.setdefault(key, len(ids)) for t, key in col.items()} for col in colourings]


def is_union_of_types(colouring: dict, target) -> bool:
    inside = {colouring[t] for t in target}
    return all((colouring[t] in inside) == (t in target) for t in colouring)


def cylinder_of(rel, arity: int, size: int, n: int) -> frozenset:
    tails = list(itertools.product(range(size), repeat=n - arity))
    return frozenset(tuple(t) + tail for t in rel for tail in tails)


def pointwise_set(f, structure) -> frozenset:
    """Satisfaction set by the plain truth definition, one tuple at a time."""
    n = structure.vocab.n
    return frozenset(
        t for t in itertools.product(range(structure.size), repeat=n) if evaluate(f, structure, t)
    )


# --- formulas as DAGs, evaluated on bitsets --------------------------------------
#
# Parsed text is a tree with no shared subtrees, and machine-built
# formulas repeat subtrees many times over.  ``intern`` folds equal
# subtrees back into one node; ``TupleSpace.evaluate`` then evaluates
# each distinct node once, with tuple sets held as int bitmasks over
# tuple codes.  Both are iterative, so depth is no limit.

_BINARY = (And, Or, Implies, Iff)


def _children(node) -> tuple:
    if isinstance(node, _BINARY):
        return (node.left, node.right)
    if isinstance(node, (Not, Exists, Forall)):
        return (node.body,)
    return ()


def _post_order(root, done):
    """Yield nodes children-first, skipping ids already in ``done``."""
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        pending = [k for k in _children(node) if id(k) not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        yield node


def intern(f):
    """The same formula with equal subtrees shared."""
    canon: dict = {}
    by_id: dict = {}
    for node in _post_order(f, by_id):
        kids = tuple(by_id[id(k)] for k in _children(node))
        if isinstance(node, Atom):
            key = (Atom, node.name, node.args)
        elif isinstance(node, Eq):
            key = (Eq, node.i, node.j)
        elif isinstance(node, Const):
            key = (Const, node.value)
        elif isinstance(node, (Exists, Forall)):
            key = (type(node), node.var, id(kids[0]))
        else:
            key = (type(node),) + tuple(id(k) for k in kids)
        got = canon.get(key)
        if got is None:
            if isinstance(node, (Exists, Forall)):
                got = type(node)(node.var, kids[0])
            elif kids:
                got = type(node)(*kids)
            else:
                got = node
            canon[key] = got
        by_id[id(node)] = got
    return by_id[id(f)]


class TupleSpace:
    """The n-tuples of one structure, coded in mixed radix, with sets of
    them as int bitmasks."""

    def __init__(self, structure):
        self.structure = structure
        size, n = structure.size, structure.vocab.n
        self.size, self.n = size, n
        self.tuples = list(itertools.product(range(size), repeat=n))
        self.full = (1 << len(self.tuples)) - 1
        self.stride = [size ** (n - 1 - i) for i in range(n)]
        self.slices = [[0] * size for _ in range(n)]
        for code, t in enumerate(self.tuples):
            for i, x in enumerate(t):
                self.slices[i][x] |= 1 << code
        self._atoms: dict = {}

    def bits(self, tuples) -> int:
        out = 0
        for t in tuples:
            out |= 1 << sum(x * s for x, s in zip(t, self.stride))
        return out

    def cyl(self, bits: int, i: int) -> int:
        stride, fibres = self.stride[i], self.slices[i]
        base = 0
        for x in range(self.size):
            base |= (bits & fibres[x]) >> (x * stride)
        out = 0
        for x in range(self.size):
            out |= base << (x * stride)
        return out

    def _atom(self, node) -> int:
        key = (node.name, node.args)
        got = self._atoms.get(key)
        if got is None:
            rel = self.structure.relation(node.name)
            got = self.bits(t for t in self.tuples if tuple(t[i] for i in node.args) in rel)
            self._atoms[key] = got
        return got

    def evaluate(self, f) -> int:
        """Satisfaction set of f as a bitmask; f should be interned."""
        full = self.full
        memo: dict = {}
        for node in _post_order(f, memo):
            kids = [memo[id(k)] for k in _children(node)]
            if isinstance(node, Atom):
                out = self._atom(node)
            elif isinstance(node, Eq):
                out = self.bits(t for t in self.tuples if t[node.i] == t[node.j])
            elif isinstance(node, Const):
                out = full if node.value else 0
            elif isinstance(node, Not):
                out = full ^ kids[0]
            elif isinstance(node, And):
                out = kids[0] & kids[1]
            elif isinstance(node, Or):
                out = kids[0] | kids[1]
            elif isinstance(node, Implies):
                out = (full ^ kids[0]) | kids[1]
            elif isinstance(node, Iff):
                out = full ^ (kids[0] ^ kids[1])
            elif isinstance(node, Exists):
                out = self.cyl(kids[0], node.var)
            else:
                out = full ^ self.cyl(full ^ kids[0], node.var)
            memo[id(node)] = out
        return memo[id(f)]


def parse_back(text: str, vocab):
    """Parse returned text; None when it does not render back to itself."""
    f = parse_formula(text, vocab)
    return intern(f) if render_formula(f) == text else None


def check_formula_text(text: str, vocab, structure, target) -> tuple | None:
    """A returned formula parses back, renders to the same text, and its
    satisfaction set in ``structure`` is ``target``."""
    f = parse_back(text, vocab)
    if f is None:
        return WRONG, "formula does not round-trip through the parser"
    space = TupleSpace(structure)
    if space.evaluate(f) != space.bits(target):
        return WRONG, "formula does not evaluate to its target"
    return None


def check_moving_automorphism(structure, perm, rel) -> tuple | None:
    """A refusal witness: an automorphism of ``structure`` that moves the
    relation ``rel``."""
    perm = tuple(perm)
    if sorted(perm) != list(range(structure.size)):
        return BAD_WITNESS, f"witness {perm} is not a permutation"
    if not is_automorphism(structure, perm):
        return BAD_WITNESS, f"witness {perm} is not an automorphism of the reduct"
    if all(tuple(perm[x] for x in t) in rel for t in rel):
        return BAD_WITNESS, f"witness {perm} does not move the target"
    return None


def check_mapping(structure, perm, source, target) -> tuple | None:
    perm = tuple(perm)
    if sorted(perm) != list(range(structure.size)):
        return BAD_WITNESS, f"map {perm} is not a permutation"
    if tuple(perm[x] for x in source) != tuple(target):
        return BAD_WITNESS, f"map {perm} does not send {source} to {target}"
    if not is_automorphism(structure, perm):
        return BAD_WITNESS, f"map {perm} is not an automorphism"
    return None


def cylinder(tuples, i: int, size: int) -> frozenset:
    rests = {t[:i] + t[i + 1 :] for t in tuples}
    return frozenset(r[:i] + (x,) + r[i:] for r in rests for x in range(size))


def check_atoms(alg, u) -> tuple | None:
    """Partition answer: atoms cover every tuple, and each atom is closed
    under the core-respecting tuple equivalence (the signature-closure
    oracle of verify check 3)."""
    part = alg.partition
    covered = 0
    for aid in range(alg.atom_count):
        members = part.atom_members(aid, 0)
        covered += len(members)
        if sim_closure(members, u.core, u.size) != members:
            return WRONG, f"atom {aid} is not equivalence-closed"
    if covered != u.size**u.n:
        return WRONG, f"atoms cover {covered} of {u.size ** u.n} tuples"
    return None
