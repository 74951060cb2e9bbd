"""Formula and term language for n-variable first-order logic.

Vocabularies list relation symbols only; equality is built in and never
declared.  Formulas use the individual variables ``v0 .. v{n-1}`` and
nothing else, so every relation of arity larger than n is rejected up
front.

Concrete grammar (UTF-8 text)::

    formula := iff
    iff     := imp ("<->" imp)*              # left associative
    imp     := or ("->" or)*                 # right associative
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "!" unary | "E" var "." unary | "A" var "." unary | atom
    atom    := NAME "(" var ("," var)* ")" | var "=" var
             | "true" | "false" | "(" formula ")"
    var     := "v" DIGITS                    # value < n

Precedence is ``! > & > | > -> > <->``.  A quantifier binds a single
unary formula; parenthesize for a wider scope, e.g. ``E v0. (P(v0) & Q(v0))``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

__all__ = [
    "Vocabulary",
    "Formula",
    "Atom",
    "Eq",
    "Const",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Exists",
    "Forall",
    "TRUE",
    "FALSE",
    "Term",
    "Generator",
    "Diagonal",
    "Meet",
    "Complement",
    "Cyl",
    "Zero",
    "One",
    "ParseError",
    "parse_formula",
    "render_formula",
    "voc_of",
    "free_vars",
    "term_to_formula",
    "validate_formula",
    "formula_size",
    "desugar_foralls",
    "conjunction",
    "disjunction",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_VARLIKE_RE = re.compile(r"v\d+\Z")
_RESERVED_NAMES = frozenset({"true", "false"})


@dataclass(frozen=True)
class Vocabulary:
    """Relation symbols with arities plus the variable budget n.

    The empty symbol tuple is the pure-equality vocabulary.
    """

    symbols: tuple[tuple[str, int], ...] = ()
    n: int = 3

    def __post_init__(self):
        object.__setattr__(
            self, "symbols", tuple((str(nm), int(ar)) for nm, ar in self.symbols)
        )
        if self.n < 1:
            raise ValueError(f"variable budget must be positive, got n={self.n}")
        seen = set()
        for name, arity in self.symbols:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad relation symbol name {name!r}")
            if name in _RESERVED_NAMES or _VARLIKE_RE.match(name):
                raise ValueError(f"reserved name {name!r} cannot be a relation symbol")
            if name in seen:
                raise ValueError(f"duplicate relation symbol {name!r}")
            seen.add(name)
            if not 1 <= arity <= self.n:
                raise ValueError(
                    f"arity of {name!r} must be in [1, {self.n}], got {arity}"
                )

    def names(self) -> tuple[str, ...]:
        return tuple(nm for nm, _ in self.symbols)

    def __contains__(self, name: str) -> bool:
        return any(nm == name for nm, _ in self.symbols)

    def arity(self, name: str) -> int:
        for nm, ar in self.symbols:
            if nm == name:
                return ar
        raise ValueError(f"unknown relation symbol {name!r}")

    def restrict(self, names) -> "Vocabulary":
        """Sub-vocabulary keeping the declared order."""
        wanted = set(names)
        unknown = wanted - set(self.names())
        if unknown:
            raise ValueError(f"unknown relation symbols {sorted(unknown)}")
        return Vocabulary(tuple(s for s in self.symbols if s[0] in wanted), self.n)

    def common(self, other: "Vocabulary") -> "Vocabulary":
        """Symbols occurring in both vocabularies (n taken from self)."""
        theirs = dict(other.symbols)
        shared = []
        for nm, ar in self.symbols:
            if nm in theirs:
                if theirs[nm] != ar:
                    raise ValueError(f"symbol {nm!r} has conflicting arities")
                shared.append((nm, ar))
        return Vocabulary(tuple(shared), self.n)


# --- Formula AST -----------------------------------------------------------


class Formula:
    """Base class for formula AST nodes."""

    __slots__ = ()

    def __str__(self):
        return render_formula(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str
    args: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(int(a) for a in self.args))

    __str__ = Formula.__str__


@dataclass(frozen=True)
class Eq(Formula):
    i: int
    j: int

    __str__ = Formula.__str__


@dataclass(frozen=True)
class Const(Formula):
    value: bool

    __str__ = Formula.__str__


@dataclass(frozen=True)
class Not(Formula):
    body: Formula

    __str__ = Formula.__str__


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    __str__ = Formula.__str__


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    __str__ = Formula.__str__


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula

    __str__ = Formula.__str__


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula

    __str__ = Formula.__str__


@dataclass(frozen=True)
class Exists(Formula):
    var: int
    body: Formula

    __str__ = Formula.__str__


@dataclass(frozen=True)
class Forall(Formula):
    var: int
    body: Formula

    __str__ = Formula.__str__


TRUE = Const(True)
FALSE = Const(False)


def conjunction(parts) -> Formula:
    """Left-folded conjunction; empty input yields ``true``."""
    parts = list(parts)
    if not parts:
        return TRUE
    return reduce(And, parts)


def disjunction(parts) -> Formula:
    """Left-folded disjunction; empty input yields ``false``."""
    parts = list(parts)
    if not parts:
        return FALSE
    return reduce(Or, parts)


# --- Parsing ---------------------------------------------------------------


class ParseError(ValueError):
    """Syntax or well-formedness error, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"(?P<op><->|->|[!&|().,=])"
    r"|(?P<var>v\d+)(?![A-Za-z0-9_])"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, vocab: Vocabulary):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vocab = vocab

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def expect(self, text: str):
        kind, val, pos = self.peek()
        if val != text:
            raise ParseError(f"expected {text!r}, found {val or 'end of input'!r}", pos)
        return self.next()

    def parse(self) -> Formula:
        f = self.iff()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {val!r}", pos)
        return f

    def iff(self) -> Formula:
        f = self.imp()
        while self.peek()[1] == "<->":
            self.next()
            f = Iff(f, self.imp())
        return f

    def imp(self) -> Formula:
        parts = [self.or_()]
        while self.peek()[1] == "->":
            self.next()
            parts.append(self.or_())
        f = parts[-1]
        for p in reversed(parts[:-1]):
            f = Implies(p, f)
        return f

    def or_(self) -> Formula:
        f = self.and_()
        while self.peek()[1] == "|":
            self.next()
            f = Or(f, self.and_())
        return f

    def and_(self) -> Formula:
        f = self.unary()
        while self.peek()[1] == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, val, pos = self.peek()
        if val == "!":
            self.next()
            return Not(self.unary())
        if kind == "name" and val in ("E", "A") and self.tokens[self.pos + 1][0] == "var":
            self.next()
            i = self.variable()
            self.expect(".")
            body = self.unary()
            return Exists(i, body) if val == "E" else Forall(i, body)
        return self.atom()

    def variable(self) -> int:
        kind, val, pos = self.next()
        if kind != "var":
            raise ParseError(f"expected a variable, found {val or 'end of input'!r}", pos)
        i = int(val[1:])
        if i >= self.vocab.n:
            raise ParseError(
                f"variable index {i} out of range (only v0..v{self.vocab.n - 1} exist)",
                pos,
            )
        return i

    def atom(self) -> Formula:
        kind, val, pos = self.peek()
        if val == "(":
            self.next()
            f = self.iff()
            self.expect(")")
            return f
        if val == "true":
            self.next()
            return TRUE
        if val == "false":
            self.next()
            return FALSE
        if kind == "var":
            i = self.variable()
            self.expect("=")
            j = self.variable()
            return Eq(i, j)
        if kind == "name":
            self.next()
            if val not in self.vocab:
                raise ParseError(f"unknown relation symbol {val!r}", pos)
            self.expect("(")
            args = [self.variable()]
            while self.peek()[1] == ",":
                self.next()
                args.append(self.variable())
            self.expect(")")
            want = self.vocab.arity(val)
            if len(args) != want:
                raise ParseError(
                    f"{val} takes {want} argument(s), got {len(args)}", pos
                )
            return Atom(val, tuple(args))
        raise ParseError(f"expected a formula, found {val or 'end of input'!r}", pos)


def parse_formula(text: str, vocab: Vocabulary) -> Formula:
    """Parse concrete syntax against a vocabulary.

    Raises ParseError on syntax errors, unknown symbols, arity mismatches
    and out-of-range variable indices.
    """
    return _Parser(text, vocab).parse()


# --- Printing --------------------------------------------------------------

_LEVEL = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Exists: 5, Forall: 5}


def _level(f: Formula) -> int:
    return _LEVEL.get(type(f), 6)


def _render(f: Formula, min_level: int) -> str:
    if isinstance(f, Atom):
        s = f"{f.name}({', '.join('v%d' % a for a in f.args)})"
    elif isinstance(f, Eq):
        s = f"v{f.i} = v{f.j}"
    elif isinstance(f, Const):
        s = "true" if f.value else "false"
    elif isinstance(f, Not):
        s = "!" + _render(f.body, 5)
    elif isinstance(f, Exists):
        s = f"E v{f.var}. " + _render(f.body, 5)
    elif isinstance(f, Forall):
        s = f"A v{f.var}. " + _render(f.body, 5)
    elif isinstance(f, And):
        s = _render(f.left, 4) + " & " + _render(f.right, 5)
    elif isinstance(f, Or):
        s = _render(f.left, 3) + " | " + _render(f.right, 4)
    elif isinstance(f, Implies):
        s = _render(f.left, 3) + " -> " + _render(f.right, 2)
    elif isinstance(f, Iff):
        s = _render(f.left, 1) + " <-> " + _render(f.right, 2)
    else:
        raise TypeError(f"not a formula node: {f!r}")
    if _level(f) < min_level:
        return "(" + s + ")"
    return s


def render_formula(f: Formula) -> str:
    """Canonical text; ``parse_formula(render_formula(f), v)`` returns f."""
    return _render(f, 1)


# --- Structural queries ----------------------------------------------------


def _children(node: Formula) -> tuple:
    if isinstance(node, Not):
        return (node.body,)
    if isinstance(node, (And, Or, Implies, Iff)):
        return (node.left, node.right)
    if isinstance(node, (Exists, Forall)):
        return (node.body,)
    return ()


def _walk(f: Formula):
    """Yield each distinct node once; shared subtrees are common in
    machine-built formulas and must not be re-walked."""
    seen = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(_children(node))


def _post_order(root: Formula, done):
    """Yield the distinct nodes under root children-first, without
    recursion.  Nodes whose id is in ``done`` are neither yielded nor
    descended into; the caller adds each yielded node's id to ``done``
    before asking for the next one."""
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


def voc_of(f: Formula, n: int = 3) -> Vocabulary:
    """Smallest vocabulary interpreting f (equality excluded)."""
    arities: dict[str, int] = {}
    for node in _walk(f):
        if isinstance(node, Atom):
            prev = arities.setdefault(node.name, len(node.args))
            if prev != len(node.args):
                raise ValueError(
                    f"symbol {node.name!r} used with arities {prev} and {len(node.args)}"
                )
    return Vocabulary(tuple(sorted(arities.items())), n)


def free_vars(f: Formula) -> frozenset[int]:
    """Variables with a free occurrence in f."""
    free: dict[int, frozenset[int]] = {}
    for node in _post_order(f, free):
        if isinstance(node, Atom):
            out = frozenset(node.args)
        elif isinstance(node, Eq):
            out = frozenset((node.i, node.j))
        elif isinstance(node, Const):
            out = frozenset()
        elif isinstance(node, Not):
            out = free[id(node.body)]
        elif isinstance(node, (And, Or, Implies, Iff)):
            out = free[id(node.left)] | free[id(node.right)]
        elif isinstance(node, (Exists, Forall)):
            out = free[id(node.body)] - {node.var}
        else:
            raise TypeError(f"not a formula node: {node!r}")
        free[id(node)] = out
    return free[id(f)]


def _check_node(node: Formula, vocab: Vocabulary) -> None:
    """Reject a symbol, arity or variable index at this node that the
    vocabulary does not allow."""
    if isinstance(node, Atom):
        if node.name not in vocab:
            raise ValueError(f"vocabulary mismatch: {node.name!r} not interpreted")
        if vocab.arity(node.name) != len(node.args):
            raise ValueError(f"vocabulary mismatch: {node.name!r} used with wrong arity")
        idxs = node.args
    elif isinstance(node, Eq):
        idxs = (node.i, node.j)
    elif isinstance(node, (Exists, Forall)):
        idxs = (node.var,)
    else:
        return
    for i in idxs:
        if not 0 <= i < vocab.n:
            raise ValueError(
                f"variable index {i} out of range (only v0..v{vocab.n - 1} exist)"
            )


def validate_formula(f: Formula, vocab: Vocabulary) -> None:
    """Check symbols, arities and variable bounds of a hand-built AST."""
    for node in _walk(f):
        _check_node(node, vocab)


def formula_size(f: Formula) -> int:
    """Number of AST nodes, counting shared subtrees once per occurrence."""
    sizes: dict[int, int] = {}
    for node in _post_order(f, sizes):
        sizes[id(node)] = 1 + sum(sizes[id(k)] for k in _children(node))
    return sizes[id(f)]


def desugar_foralls(f: Formula) -> Formula:
    """Rewrite every universal quantifier as a negated existential."""
    if isinstance(f, Forall):
        return Not(Exists(f.var, Not(desugar_foralls(f.body))))
    if isinstance(f, Not):
        return Not(desugar_foralls(f.body))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(desugar_foralls(f.left), desugar_foralls(f.right))
    if isinstance(f, Exists):
        return Exists(f.var, desugar_foralls(f.body))
    return f


# --- Cylindric terms -------------------------------------------------------


class Term:
    """Base class for cylindric term AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Generator(Term):
    name: str


@dataclass(frozen=True)
class Diagonal(Term):
    i: int
    j: int


@dataclass(frozen=True)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Complement(Term):
    body: Term


@dataclass(frozen=True)
class Cyl(Term):
    i: int
    body: Term


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class One(Term):
    pass


def term_to_formula(t: Term, vocab: Vocabulary) -> Formula:
    """Formula whose satisfaction set equals the term's algebra value."""
    if isinstance(t, Generator):
        ar = vocab.arity(t.name)
        return Atom(t.name, tuple(range(ar)))
    if isinstance(t, Diagonal):
        if not (0 <= t.i < vocab.n and 0 <= t.j < vocab.n):
            raise ValueError(f"diagonal indices {t.i},{t.j} out of range for n={vocab.n}")
        return Eq(t.i, t.j)
    if isinstance(t, Meet):
        return And(term_to_formula(t.left, vocab), term_to_formula(t.right, vocab))
    if isinstance(t, Complement):
        return Not(term_to_formula(t.body, vocab))
    if isinstance(t, Cyl):
        if not 0 <= t.i < vocab.n:
            raise ValueError(f"cylindrification index {t.i} out of range for n={vocab.n}")
        return Exists(t.i, term_to_formula(t.body, vocab))
    if isinstance(t, Zero):
        return FALSE
    if isinstance(t, One):
        return TRUE
    raise TypeError(f"not a term node: {t!r}")
