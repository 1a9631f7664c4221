"""AST, parser, printer, classification and Boolean skeleton for region
terms and formulas.

Two term families share one grammar: the regular-closed algebra
(Sum/Prod/Compl, written + * -) and raw set operators
(Union/Inter/SetCompl/Interior/Closure, written v ^ ~ int cl).
Mixing the two families inside one formula is rejected. Every node is
a frozen dataclass with slots: it carries no instance dict, and equal
nodes compare and hash alike, however they were built.

`fold` is the one walk over a formula's Boolean structure (!, &, |, ->)
that every pass rewriting or compiling it runs on: the skeleton here,
the rewrites of `transform` and the goals of `solver`. It keeps its own
stack, so no pass that uses it recurses however deep the connectives
nest. The printer and the model checker walk formulas on their own.
"""

import itertools
import re
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)


class FormulaError(Exception):
    """Ill-formed term or formula."""


class ParseError(FormulaError):
    """Syntax error with position information."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Terms

class Term:
    """Base class for region terms."""

    __slots__ = ()

    def __str__(self):
        return print_term(self)


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Zero(Term):
    pass


@dataclass(frozen=True, slots=True)
class One(Term):
    pass


@dataclass(frozen=True, slots=True)
class Sum(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Prod(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Compl(Term):
    arg: Term


@dataclass(frozen=True, slots=True)
class Union(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Inter(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class SetCompl(Term):
    arg: Term


@dataclass(frozen=True, slots=True)
class Interior(Term):
    arg: Term


@dataclass(frozen=True, slots=True)
class Closure(Term):
    arg: Term


RC_CONSTRUCTORS = (Sum, Prod, Compl)
SET_CONSTRUCTORS = (Union, Inter, SetCompl, Interior, Closure)

ZERO = Zero()
ONE = One()


# ---------------------------------------------------------------------------
# Formulas

RCC8_RELATIONS = ("DC", "EC", "PO", "EQ", "TPP", "NTPP", "TPPi", "NTPPi")


class Formula:
    """Base class for formulas."""

    __slots__ = ()

    def __str__(self):
        return print_formula(self)


@dataclass(frozen=True, slots=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Contact(Formula):
    terms: Tuple[Term, ...]

    def __post_init__(self):
        if len(self.terms) < 2:
            raise FormulaError("contact needs at least two terms")


@dataclass(frozen=True, slots=True)
class Rcc8(Formula):
    rel: str
    left: Term
    right: Term

    def __post_init__(self):
        if self.rel not in RCC8_RELATIONS:
            raise FormulaError(f"unknown relation {self.rel!r}")


@dataclass(frozen=True, slots=True)
class Conn(Formula):
    term: Term


@dataclass(frozen=True, slots=True)
class ConnLe(Formula):
    k: int
    term: Term

    def __post_init__(self):
        if self.k < 1:
            raise FormulaError("conn_le requires k >= 1")


@dataclass(frozen=True, slots=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


ATOM_CLASSES = (Eq, Contact, Rcc8, Conn, ConnLe)


def _chain(cls, parts, make=None) -> Formula:
    """The chain of `cls` (And or Or) over parts, left to right: a part
    that is itself such a chain is spliced in, and the operands are
    joined into a balanced binary tree, split at the middle, so n of
    them nest ceil(log2 n) deep and the recursive walkers stay shallow.
    Every & and | chain is built here, so a chain printed flat parses
    back to itself. Each node is make(left, right), cls by default."""
    flat = [g for part in parts
            for g in (operands(part, cls) if type(part) is cls else (part,))]
    if not flat:
        raise FormulaError(f"empty {'conjunction' if cls is And else 'disjunction'}")
    return _join(flat, 0, len(flat), make or cls)


def _join(flat, lo, hi, make):
    """flat[lo:hi] joined by make, split at the middle. Not a closure: one
    that calls itself is a reference cycle, which keeps flat and the
    parser that `make` holds alive until the cycle collector runs."""
    if hi - lo == 1:
        return flat[lo]
    mid = (lo + hi) // 2
    return make(_join(flat, lo, mid, make), _join(flat, mid, hi, make))


def conj(formulas):
    """Conjunction of a non-empty list, as a balanced chain (`_chain`)."""
    return _chain(And, formulas)


def disj(formulas):
    """Disjunction of a non-empty list, as a balanced chain (`_chain`)."""
    return _chain(Or, formulas)


# the meet and complement `leq` writes t1 <= t2 with, by term family
_LEQ_OPERATORS = {"rc": (Prod, Compl), "set": (Inter, SetCompl)}


def leq(t1, t2, family="rc"):
    """t1 <= t2 sugar: t1*(-t2) = 0 for RC terms, t1^~t2 = 0 for set terms."""
    meet, compl = _LEQ_OPERATORS["rc" if family == "rc" else "set"]
    return Eq(meet(t1, compl(t2)), ZERO)


def neq(t1, t2):
    return Not(Eq(t1, t2))


# ---------------------------------------------------------------------------
# Traversal helpers

_BINARY_TERMS = (Sum, Prod, Union, Inter)
_UNARY_TERMS = (Compl, SetCompl, Interior, Closure)


def subterms(t: Term) -> Iterator[Term]:
    """t and every subterm of it, in left-to-right preorder."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        kind = type(s)
        if kind in _BINARY_TERMS:
            stack.append(s.right)
            stack.append(s.left)
        elif kind in _UNARY_TERMS:
            stack.append(s.arg)


def atoms(f: Formula) -> Iterator[Formula]:
    """Atomic subformulas in left-to-right order (with repetition)."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, ATOM_CLASSES):
            yield g
        elif isinstance(g, Not):
            stack.append(g.arg)
        elif isinstance(g, (And, Or, Implies)):
            stack.append(g.right)
            stack.append(g.left)
        else:
            raise FormulaError(f"not a formula: {g!r}")


def operands(g: Formula, cls) -> List[Formula]:
    """The operands of the chain of `cls` (And or Or) nodes at g, left to
    right, however the chain is nested: [g] when g is no `cls` node."""
    out, stack = [], [g]
    while stack:
        g = stack.pop()
        if isinstance(g, cls):
            stack.append(g.right)
            stack.append(g.left)
        else:
            out.append(g)
    return out


def fold(f: Formula, atom: Callable, make: Callable,
         at: Optional[Callable] = None):
    """The value of f built bottom-up over its Boolean structure, with an
    explicit stack, so however deep !, &, | and -> nest. Each node is
    read with its polarity: True at f, flipped under ! and on the left
    of ->. Nodes are read in left-to-right preorder; at(g, positive), if
    given, is called on each node as it is read, and a value other than
    None is g's value, its inside not read. Otherwise an atom's value is
    atom(g, positive) and a connective's make(g, positive, *values), its
    operands' values in order, so make may hand back g itself when they
    are its operands. A node that is no formula raises FormulaError."""
    values: list = []
    stack: list = [(f, True, None)]    # (node, polarity, class once read)
    pop = stack.pop
    while stack:
        g, positive, kind = pop()
        if kind is Not:
            values[-1] = make(g, positive, values[-1])
        elif kind is not None:
            right = values.pop()
            values[-1] = make(g, positive, values[-1], right)
        elif at is not None and (value := at(g, positive)) is not None:
            values.append(value)
        else:
            kind = type(g)
            if kind is And or kind is Or or kind is Implies:
                stack += ((g, positive, kind), (g.right, positive, None),
                          (g.left, positive != (kind is Implies), None))
            elif kind is Not:
                stack += ((g, positive, kind), (g.arg, not positive, None))
            elif kind in ATOM_CLASSES:
                values.append(atom(g, positive))
            else:
                raise FormulaError(f"not a formula: {g!r}")
    return values[0]


def terms_of_atom(a: Formula) -> Tuple[Term, ...]:
    if isinstance(a, Eq):
        return (a.left, a.right)
    if isinstance(a, Contact):
        return a.terms
    if isinstance(a, Rcc8):
        return (a.left, a.right)
    if isinstance(a, (Conn, ConnLe)):
        return (a.term,)
    raise FormulaError(f"not an atom: {a!r}")


def terms_of(f: Formula) -> Iterator[Term]:
    for a in atoms(f):
        yield from terms_of_atom(a)


def variables(f: Formula) -> Set[str]:
    out = set()
    for t in terms_of(f):
        for s in subterms(t):
            if isinstance(s, Var):
                out.add(s.name)
    return out


_FAMILY = {**dict.fromkeys(RC_CONSTRUCTORS, "rc"),
           **dict.fromkeys(SET_CONSTRUCTORS, "set")}


def _family_of(t: Term, pure: Set[int]) -> Optional[str]:
    """The family of t: 'rc', 'set', or None when only variables and
    constants occur. A term mixes the families exactly when some
    operator has an operand whose operator is of the other family, so a
    term that does not is of its own operator's family. `pure` holds the
    identities of the operator terms found not to mix, whose subterms are
    not walked again: a subterm shared by several terms, or occurring
    twice in one, is walked once. The terms in `pure` must stay alive
    while it is used, so that no identity is reused."""
    family = _FAMILY.get(type(t))
    if family is None or id(t) in pure:
        return family
    walked = {id(t)}
    stack = [t]
    while stack:
        s = stack.pop()
        fam = _FAMILY[type(s)]
        for c in (s.left, s.right) if type(s) in _BINARY_TERMS else (s.arg,):
            new = _FAMILY.get(type(c))
            if new is None:
                continue
            if new != fam:
                raise FormulaError("term mixes regular-closed and set operators")
            if id(c) not in pure and id(c) not in walked:
                walked.add(id(c))
                stack.append(c)
    pure |= walked
    return family


def _atom_families(atoms: Iterable[Formula], pure: Set[int]
                   ) -> Iterator[Tuple[Formula, Optional[str]]]:
    """Each of the atoms, in order, with the family of their terms up to
    and including its own (`pure` as in `_family_of`). Raises at the
    first term, in that order, that mixes the families or differs from
    the terms before it."""
    family = None
    for a in atoms:
        for t in terms_of_atom(a):
            new = _family_of(t, pure)
            if new is not None and new != family:
                if family is not None:
                    raise FormulaError("formula mixes regular-closed and set operators")
                family = new
        yield a, family


def formula_family(f: Formula) -> Optional[str]:
    family = None
    for _, family in _atom_families(atoms(f), set()):
        pass
    return family


# ---------------------------------------------------------------------------
# Language classification

def classify(f: Formula) -> str:
    """Least language tag containing every constructor and predicate of f."""
    return language(f)[0]


def language(f: Formula) -> Tuple[str, Optional[str]]:
    """The tag `classify` gives f and the family `formula_family` gives
    it, from one walk over f's atoms. A tag ending in "c" ("c" or "cc")
    says that a conn or conn_le atom occurs."""
    family = None
    has_eq = has_rcc8 = has_contact = False
    rcc8_vars_only = True
    max_arity = 0
    suffix = ""
    for a, family in _atom_families(atoms(f), set()):
        if isinstance(a, Eq):
            has_eq = True
        elif isinstance(a, Contact):
            has_contact = True
            max_arity = max(max_arity, len(a.terms))
        elif isinstance(a, Rcc8):
            has_rcc8 = True
            if not (isinstance(a.left, Var) and isinstance(a.right, Var)):
                rcc8_vars_only = False
        elif isinstance(a, Conn):
            if suffix == "":
                suffix = "c"
        elif isinstance(a, ConnLe):
            suffix = "cc"
    if family == "set":
        if has_contact or has_rcc8:
            raise FormulaError("contact predicates take regular-closed terms only")
        base = "S4u"
    elif max_arity > 2:
        base = "Cm"
    elif has_contact:
        base = "C"
    elif has_rcc8 and rcc8_vars_only and not has_eq:
        base = "RCC8"
    elif has_rcc8:
        base = "C"
    else:
        base = "B"
    return base + suffix, family


# ---------------------------------------------------------------------------
# Three-valued search

class KleeneGates:
    """Kleene gates in a DAG, and a depth-first search over their leaves.
    A gate is a leaf, a negation, or a conjunction or disjunction of any
    number of operands; the constants are the empty conjunction (True)
    and the empty disjunction (False). Gates are numbered as they are
    made, after their operands, and an equal gate is made once, so gates
    share operands. Each gate is (kind, operands), its kind None for a
    leaf or a negation and otherwise the value that decides it alone:
    False for a conjunction, True for a disjunction. `start` holds each
    gate's value while every leaf is unknown, and `nodes` counts the
    values tried over all searches."""

    def __init__(self):
        self.gates: List[Tuple[Optional[bool], Tuple[int, ...]]] = []
        self.parents: List[List[int]] = []      # per gate, the gates it feeds
        self.start: List[Optional[bool]] = []
        self.nodes = 0
        self._made: Dict[Tuple[Optional[bool], Tuple[int, ...]], int] = {}

    def leaf(self) -> int:
        return self._add(None, (), None)

    def _add(self, kind: Optional[bool], args: Tuple[int, ...],
             value: Optional[bool]) -> int:
        k = len(self.gates)
        self.gates.append((kind, args))
        self.parents.append([])
        self.start.append(value)
        for a in args:
            self.parents[a].append(k)
        return k

    def _gate(self, kind: Optional[bool], args: Tuple[int, ...]) -> int:
        k = self._made.get((kind, args))
        if k is None:
            values = set(map(self.start.__getitem__, args))
            if kind is None:
                value = None if None in values else not values.pop()
            else:
                value = (kind if kind in values else
                         None if None in values else not kind)
            k = self._made[kind, args] = self._add(kind, args, value)
        return k

    def neg(self, a: int) -> int:
        return self._gate(None, (a,))

    def meet(self, *args: int) -> int:
        return args[0] if len(args) == 1 else self._gate(False, args)

    def join(self, *args: int) -> int:
        return args[0] if len(args) == 1 else self._gate(True, args)

    def search(self, order: Sequence[int], watched: Iterable[int],
               tick: Optional[Callable[[], None]] = None
               ) -> Iterator[List[bool]]:
        """The assignments to the leaves in `order` under which no watched
        gate is True, in the order of a depth-first search that assigns
        them first to last, False before True, and cuts a branch as soon
        as a watched gate's Kleene value is True. Each comes out as one
        list of the leaves' values, which the search goes on to change.
        Each value tried counts a node and calls `tick`, if given. A
        watched gate True before any assignment yields nothing. The
        search owns its values and its trail, so searches over one DAG
        may interleave, and it reads no gate made after it began."""
        value = self.start[:]
        size = len(value)
        watched = set(watched)
        if any(map(value.__getitem__, watched)):
            return
        gates, parents = self.gates, self.parents
        n = len(order)
        truth: List[Optional[bool]] = [None] * n    # None: not yet tried
        marks = [0] * n     # the trail's length before each position
        trail: List[int] = []
        i = 0
        while i >= 0:
            if i == n:
                yield truth
                i -= 1
                continue
            b = truth[i]
            if b is None:
                marks[i] = len(trail)
            else:
                for k in trail[marks[i]:]:
                    value[k] = None
                del trail[marks[i]:]
                if b:
                    truth[i] = None
                    i -= 1
                    continue
            self.nodes += 1
            if tick is not None:
                tick()
            k = order[i]
            value[k] = truth[i] = b is False
            trail.append(k)
            stack = [k]
            while stack:    # values only refine, so each gate is set once
                k = stack.pop()
                v = value[k]
                if v and k in watched:
                    break
                for p in parents[k]:
                    if p >= size:
                        break
                    if value[p] is None:
                        d, args = gates[p]
                        if d is None:
                            value[p] = not v
                        elif d is v:
                            value[p] = v
                        else:
                            for a in args:
                                if value[a] is not v:
                                    break
                            else:
                                value[p] = v
                            if value[p] is None:
                                continue
                        trail.append(p)
                        stack.append(p)
            else:
                i += 1


def literal_sets(f: Formula) -> Iterator[Tuple[Tuple[Formula, bool], ...]]:
    """The satisfying assignments of f's Boolean skeleton, each as its
    (atom, truth) pairs in the order of the atoms' first occurrence, and
    the assignments in the order of a binary count whose most significant
    bit is the last atom. The skeleton is read off f by `fold` into
    `KleeneGates`: structurally equal atoms are one leaf, and `a -> b` is
    `!a | b`. Its search assigns the atoms from the last down and cuts a
    branch as soon as the Kleene value of f is False; evaluating f under
    every assignment gives the same sequence."""
    gates = KleeneGates()
    add = gates._add        # no constants, so every gate starts unknown
    leaves: Dict[Formula, int] = {}

    def leaf(a, _):
        k = leaves.setdefault(a, len(gates.gates))
        return gates.leaf() if k == len(gates.gates) else k

    def gate(g, _, a, b=None):
        kind = type(g)
        if kind is Not:
            return add(None, (a,), None)
        if kind is Implies:
            a = add(None, (a,), None)
        return add(kind is not And, (a, b), None)

    root = fold(f, leaf, gate)
    atoms = list(leaves)
    for truth in gates.search(list(leaves.values())[::-1],
                              [gates.neg(root)]):
        yield tuple(zip(atoms, reversed(truth)))


# ---------------------------------------------------------------------------
# Parser

KEYWORDS = {"conn", "conn_le", "conn_ge", "int", "cl", "C", "v"} | set(RCC8_RELATIONS)

# the blanks before a token, then the token: a symbol (longest first), a
# numeral, a name or any other character. Texts are scanned without their
# trailing blanks, which would otherwise be rescanned from each position.
_TOKEN = re.compile(r"\s*(->|!=|<=|[(),=!&|+*^~-]|\d+|[^\W\d]\w*|\S)")

# the lexemes that are their own kind
_OWN_KIND = KEYWORDS | {"->", "!=", "<=", *"(),=!&|+*^~-"}


def _lex(text: str) -> Tuple[List[str], List[str]]:
    """The lexemes of text and their kinds, in step: a symbol or keyword
    is its own kind, a numeral "NAT", a name "VAR" and the end of the
    text "EOF", whose lexeme is "". Each distinct lexeme is classified
    once, so the per-token work is the regex's and a dict lookup's."""
    lexemes = _TOKEN.findall(text.rstrip())
    lexemes.append("")
    kind_of, bad = {}, []
    for lexeme in set(lexemes):
        if lexeme in _OWN_KIND:
            kind_of[lexeme] = lexeme
        elif not lexeme:
            kind_of[lexeme] = "EOF"
        elif lexeme[0].isdecimal():
            kind_of[lexeme] = "NAT"
        elif lexeme[0].isalpha() or lexeme[0] == "_":
            kind_of[lexeme] = "VAR"
        else:   # a name may not start with a numeral such as '½' or '²'
            bad.append(lexeme)
    if bad:
        first = min(map(lexemes.index, bad))
        raise ParseError(f"unexpected character {lexemes[first][0]!r}",
                         *_position(text, first))
    return lexemes, list(map(kind_of.__getitem__, lexemes))


def _position(text: str, index: int) -> Tuple[int, int]:
    """(line, column) of token `index` of text, the end of the text for
    EOF, read off a second scan: positions are only needed for errors."""
    m = next(itertools.islice(_TOKEN.finditer(text.rstrip()), index, None), None)
    start = len(text) if m is None else m.start(1)
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


class _Fail(Exception):
    """A syntax error inside the parser: args are the index of the token
    it is at, the message, and whether the token found there follows the
    message. `_Parser.run` turns it into a ParseError; a "(" that was not
    a formula catches it, and so works out no position."""


# what follows a parenthesized term at the start of an atom
_AFTER_TERM = frozenset({"=", "!=", "<=", "+", "*", "v", "^"})
_PREDICATES = frozenset({"C", "conn", "conn_le", "conn_ge", *RCC8_RELATIONS})
_SUMS = {"+": Sum, "v": Union}
_PRODUCTS = {"*": Prod, "^": Inter}
_PREFIXES = {"-": Compl, "~": SetCompl}


class _Parser:
    """Recursive descent over the token kinds, reading `kinds[pos]`
    directly. Each distinct term and formula is built once per parse
    (`share`), so a parsed formula is a DAG in which equal subterms are
    one object. A run of "!" or of prefix term operators is read in a
    loop, and sums and products in `parse_term` and `parse_product`, so
    each level of parentheses costs at most four stack frames. `atoms`
    holds every atom read, in the order of the text, so that `parse`
    checks their families without walking the finished formula."""

    def __init__(self, text):
        self.text = text
        self.lexemes, self.kinds = _lex(text)
        self.pos = 0
        self.nodes: Dict[tuple, object] = {}
        self.pure: Set[int] = set()   # see _family_of
        self.atoms: List[Formula] = []

    def run(self, start):
        """start(), which must read the whole text; a syntax error raises
        the ParseError that `_Fail` describes."""
        try:
            result = start()
            if self.kinds[self.pos] != "EOF":
                raise _Fail(self.pos, "expected 'EOF'", True)
            return result
        except _Fail as fail:
            index, message, found = fail.args
        if found:
            message += f" (found {self.lexemes[index] or 'end of input'!r})"
        raise ParseError(message, *_position(self.text, index))

    def shared(self, key, cls, *args):
        """The one cls(*args) of this parse, filed under `key`, which holds
        the names and numbers among args and the identities of the rest:
        those are nodes of this parse, so equal nodes get equal keys."""
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = cls(*args)
        return node

    def share(self, cls, *children):
        """The one cls(*children) of this parse (see `shared`)."""
        key = (cls, *map(id, children))
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = cls(*children)
        return node

    def parse_imp(self):
        """-> associates to the right."""
        parts = [self.parse_disj()]
        while self.kinds[self.pos] == "->":
            self.pos += 1
            parts.append(self.parse_disj())
        f = parts.pop()
        while parts:
            f = self.share(Implies, parts.pop(), f)
        return f

    def chain(self, cls, parts):
        """The parts as one balanced chain (`_chain`); a lone part is
        returned as it is, since every parsed chain is balanced."""
        return parts[0] if len(parts) == 1 else _chain(
            cls, parts, lambda l, r: self.share(cls, l, r))

    def parse_disj(self):
        parts = [self.parse_conj()]
        while self.kinds[self.pos] == "|":
            self.pos += 1
            parts.append(self.parse_conj())
        return self.chain(Or, parts)

    def parse_conj(self):
        parts = [self.parse_lit()]
        while self.kinds[self.pos] == "&":
            self.pos += 1
            parts.append(self.parse_lit())
        return self.chain(And, parts)

    def parse_lit(self):
        kinds = self.kinds
        start = pos = self.pos
        while kinds[pos] == "!":
            pos += 1
        f = None
        # "(" opens a parenthesized formula only when it is not a term;
        # terms also start with "(" inside atoms, so try formula first.
        if kinds[pos] == "(":
            self.pos = pos + 1
            read = len(self.atoms)
            try:
                f = self.parse_imp()
            except _Fail:
                pass
            if f is not None and kinds[self.pos] == ")" and (
                    kinds[self.pos + 1] not in _AFTER_TERM):
                self.pos += 1
            else:
                f = None
                del self.atoms[read:]   # read again as terms of an atom
        if f is None:
            self.pos = pos
            f = self.parse_atom()
        for _ in range(pos - start):
            f = self.share(Not, f)
        return f

    def parse_atom(self):
        kinds = self.kinds
        pos = self.pos
        kind = kinds[pos]
        if kind in _PREDICATES:
            return self.parse_predicate(kind)
        t1 = self.parse_term()
        op = kinds[self.pos]
        if op != "=" and op != "!=" and op != "<=":
            raise _Fail(self.pos, "expected '=', '!=' or '<=' after term", True)
        self.pos += 1
        t2 = self.parse_term()
        if op == "<=":
            try:
                fam = (_family_of(t1, self.pure)
                       or _family_of(t2, self.pure) or "rc")
            except FormulaError as e:
                raise _Fail(pos, str(e), False) from None
            meet, compl = _LEQ_OPERATORS[fam]
            t1, t2 = self.share(meet, t1, self.share(compl, t2)), ZERO
        f = self.share(Eq, t1, t2)
        self.atoms.append(f)
        return self.share(Not, f) if op == "!=" else f

    def parse_predicate(self, kind):
        """An atom kind(...): its arguments are terms, and for conn_le and
        conn_ge a numeral before them."""
        kinds = self.kinds
        at = self.pos
        pos = at + 1
        if kinds[pos] != "(":
            raise _Fail(pos, "expected '('", True)
        pos += 1
        if kind == "conn_le" or kind == "conn_ge":
            if kinds[pos] != "NAT":
                raise _Fail(pos, "expected 'NAT'", True)
            try:
                k = int(self.lexemes[pos])
            except ValueError:   # more digits than int() takes
                raise _Fail(pos, "numeral too long", False) from None
            if kinds[pos + 1] != ",":
                raise _Fail(pos + 1, "expected ','", True)
            pos += 2
        self.pos = pos
        ts = [self.parse_term()]
        if kind == "C":
            while kinds[self.pos] == ",":
                self.pos += 1
                ts.append(self.parse_term())
        elif kind in RCC8_RELATIONS:
            if kinds[self.pos] != ",":
                raise _Fail(self.pos, "expected ','", True)
            self.pos += 1
            ts.append(self.parse_term())
        if kinds[self.pos] != ")":
            raise _Fail(self.pos, "expected ')'", True)
        self.pos += 1
        t = ts[0]
        if kind == "C":
            if len(ts) < 2:
                raise _Fail(at, "C needs at least two arguments", False)
            a = self.shared((Contact, *map(id, ts)), Contact, tuple(ts))
        elif kind == "conn":
            a = self.share(Conn, t)
        elif kind == "conn_le":
            if k < 1:
                raise _Fail(at, "conn_le requires k >= 1", False)
            a = self.shared((ConnLe, k, id(t)), ConnLe, k, t)
        elif kind == "conn_ge":
            if k < 2:
                raise _Fail(at, "conn_ge requires k >= 2", False)
            a = self.shared((ConnLe, k - 1, id(t)), ConnLe, k - 1, t)
        else:
            a = self.shared((Rcc8, kind, *map(id, ts)), Rcc8, kind, *ts)
        self.atoms.append(a)
        return self.share(Not, a) if kind == "conn_ge" else a

    def parse_term(self):
        """Products joined by + or v, to the left; each node is shared
        inline (see `shared`), as terms are most of a large formula."""
        kinds, nodes = self.kinds, self.nodes
        t = self.parse_product()
        while (cls := _SUMS.get(kinds[self.pos])) is not None:
            self.pos += 1
            right = self.parse_product()
            key = (cls, id(t), id(right))
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = cls(t, right)
            t = node
        return t

    def parse_product(self):
        """Unary terms joined by * or ^, to the left (as `parse_term`)."""
        kinds, nodes = self.kinds, self.nodes
        t = self.parse_unary()
        while (cls := _PRODUCTS.get(kinds[self.pos])) is not None:
            self.pos += 1
            right = self.parse_unary()
            key = (cls, id(t), id(right))
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = cls(t, right)
            t = node
        return t

    def parse_unary(self):
        kinds = self.kinds
        start = pos = self.pos
        while kinds[pos] in _PREFIXES:
            pos += 1
        end = pos
        kind = kinds[pos]
        if kind == "VAR":
            self.pos = pos + 1
            name = self.lexemes[pos]
            t = self.nodes.get(name)
            if t is None:
                t = self.nodes[name] = Var(name)
        elif kind == "(" or kind == "int" or kind == "cl":
            if kind != "(":
                pos += 1
                if kinds[pos] != "(":
                    raise _Fail(pos, "expected '('", True)
            self.pos = pos + 1
            t = self.parse_term()
            if kinds[self.pos] != ")":
                raise _Fail(self.pos, "expected ')'", True)
            self.pos += 1
            if kind != "(":
                t = self.share(Interior if kind == "int" else Closure, t)
        elif kind == "NAT":
            self.pos = pos + 1
            lexeme = self.lexemes[pos]
            if lexeme == "0":
                t = ZERO
            elif lexeme == "1":
                t = ONE
            else:
                raise _Fail(pos, f"numeric term must be 0 or 1, got {lexeme}",
                            False)
        else:
            raise _Fail(pos, "expected term", True)
        if end != start:
            for i in range(end - 1, start - 1, -1):
                t = self.share(_PREFIXES[kinds[i]], t)
        return t


def parse(text: str) -> Formula:
    """Parse a formula and validate term-family purity. Equal subterms
    of the result are one object."""
    parser = _Parser(text)
    f = parser.run(parser.parse_imp)
    family = None
    for _, family in _atom_families(parser.atoms, parser.pure):
        pass
    # a set term in a contact makes the family "set": only then look for one
    if family == "set" and any(
            _FAMILY.get(type(t)) == "set" for a in parser.atoms
            if isinstance(a, (Contact, Rcc8)) for t in terms_of_atom(a)):
        raise FormulaError("contact predicates take regular-closed terms only")
    return f


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.run(p.parse_term)
    _family_of(t, p.pure)
    return t


# ---------------------------------------------------------------------------
# Printer (canonical minimal-parentheses form)

_TERM_PREC = {Sum: 1, Union: 1, Prod: 2, Inter: 2,
              Compl: 3, SetCompl: 3, Interior: 3, Closure: 3,
              Var: 4, Zero: 4, One: 4}


def print_term(t: Term) -> str:
    return _print_term(t, 0)


def _print_term(u: Term, parent_prec: int) -> str:
    """print_term of u below an operator of precedence parent_prec (0 at
    the top), parenthesized where that precedence asks."""
    kind = type(u)
    if kind is Var:
        return u.name
    prec = _TERM_PREC.get(kind, 0)
    if kind is Sum or kind is Union:
        op = " + " if kind is Sum else " v "
        s = _print_term(u.left, prec) + op + _print_term(u.right, prec + 1)
    elif kind is Prod or kind is Inter:
        op = " * " if kind is Prod else " ^ "
        s = _print_term(u.left, prec) + op + _print_term(u.right, prec + 1)
    elif kind is Compl:
        s = "-" + _print_term(u.arg, prec)
    elif kind is SetCompl:
        s = "~" + _print_term(u.arg, prec)
    elif kind is Zero:
        return "0"
    elif kind is One:
        return "1"
    elif kind is Interior:
        return "int(" + _print_term(u.arg, 0) + ")"
    elif kind is Closure:
        return "cl(" + _print_term(u.arg, 0) + ")"
    else:
        raise FormulaError(f"not a term: {u!r}")
    return "(" + s + ")" if prec < parent_prec else s


_FORMULA_PREC = {Implies: 1, Or: 2, And: 3, Not: 4}


def print_formula(f: Formula) -> str:
    def go(g, parent_prec):
        kind = type(g)
        if kind is Eq:
            return _print_term(g.left, 0) + " = " + _print_term(g.right, 0)
        if kind is Contact:
            return "C(" + ", ".join([_print_term(t, 0) for t in g.terms]) + ")"
        if kind is Rcc8:
            return f"{g.rel}({_print_term(g.left, 0)}, {_print_term(g.right, 0)})"
        if kind is Conn:
            return "conn(" + _print_term(g.term, 0) + ")"
        if kind is ConnLe:
            return f"conn_le({g.k}, {_print_term(g.term, 0)})"
        if kind is Not:
            bangs = ""      # a run of ! is read in a loop, however long
            while type(g.arg) is Not:
                bangs += "!"
                g = g.arg
            arg = g.arg
            if type(arg) is Eq:
                return (bangs + _print_term(arg.left, 0) + " != "
                        + _print_term(arg.right, 0))
            if isinstance(arg, ATOM_CLASSES):
                return bangs + "!" + go(arg, 0)
            return bangs + "!(" + go(arg, 0) + ")"
        prec = _FORMULA_PREC.get(kind, 0)
        # & and | are associative, so a chain prints flat however it nests
        if kind is And or kind is Or:
            op = " & " if kind is And else " | "
            s = op.join([go(h, prec) for h in operands(g, kind)])
        elif kind is Implies:
            parts = []      # -> associates to the right: read its spine
            while type(g) is Implies:
                parts.append(go(g.left, prec + 1))
                g = g.right
            parts.append(go(g, prec))
            s = " -> ".join(parts)
        else:
            raise FormulaError(f"not a formula: {g!r}")
        return "(" + s + ")" if prec < parent_prec else s

    return go(f, 0)
