"""AST, parser, printer, classification and Boolean skeleton for region
terms and formulas.

Two term families share one grammar: the regular-closed algebra
(Sum/Prod/Compl, written + * -) and raw set operators
(Union/Inter/SetCompl/Interior/Closure, written v ^ ~ int cl).
Mixing the two families inside one formula is rejected.
"""

import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple


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

    def __str__(self):
        return print_term(self)


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class One(Term):
    pass


@dataclass(frozen=True)
class Sum(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Prod(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Compl(Term):
    arg: Term


@dataclass(frozen=True)
class Union(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Inter(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class SetCompl(Term):
    arg: Term


@dataclass(frozen=True)
class Interior(Term):
    arg: Term


@dataclass(frozen=True)
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

    def __str__(self):
        return print_formula(self)


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Contact(Formula):
    terms: Tuple[Term, ...]

    def __post_init__(self):
        if len(self.terms) < 2:
            raise FormulaError("contact needs at least two terms")


@dataclass(frozen=True)
class Rcc8(Formula):
    rel: str
    left: Term
    right: Term

    def __post_init__(self):
        if self.rel not in RCC8_RELATIONS:
            raise FormulaError(f"unknown relation {self.rel!r}")


@dataclass(frozen=True)
class Conn(Formula):
    term: Term


@dataclass(frozen=True)
class ConnLe(Formula):
    k: int
    term: Term

    def __post_init__(self):
        if self.k < 1:
            raise FormulaError("conn_le requires k >= 1")


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
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


def _atom_families(f: Formula, pure: Set[int]
                   ) -> Iterator[Tuple[Formula, Optional[str]]]:
    """Each atom of f, left to right, with the family of f's terms up to
    and including its own (`pure` as in `_family_of`). Raises at the
    first term, in that order, that mixes the families or differs from
    the terms before it."""
    family = None
    for a in atoms(f):
        for t in terms_of_atom(a):
            new = _family_of(t, pure)
            if new is not None and new != family:
                if family is not None:
                    raise FormulaError("formula mixes regular-closed and set operators")
                family = new
        yield a, family


def formula_family(f: Formula) -> Optional[str]:
    family = None
    for _, family in _atom_families(f, set()):
        pass
    return family


# ---------------------------------------------------------------------------
# Language classification

LANGUAGE_TAGS = (
    "B", "Bc", "Bcc",
    "RCC8", "RCC8c", "RCC8cc",
    "C", "Cc", "Ccc",
    "Cm", "Cmc", "Cmcc",
    "S4u", "S4uc", "S4ucc",
)


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
    for a, family in _atom_families(f, set()):
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
# Boolean skeleton

class _ThreeValued:
    """The Boolean skeleton of a formula, read off it in one pass with an
    explicit stack: one node per occurrence of a connective or atom, in
    left-to-right preorder, so a node's first operand is the node after
    it. Structurally equal atoms are one letter, and `letters` holds the
    atoms by first occurrence. Kleene values are refined upwards from
    each assigned letter and restored through a trail."""

    def __init__(self, f: Formula):
        self.op: List[Optional[type]] = []
        self.parent: List[int] = []
        self.second: List[int] = []     # a binary node's second operand
        leaves: Dict[Formula, List[int]] = {}
        stack = [(f, -1)]
        while stack:
            g, parent = stack.pop()
            k = len(self.op)
            self.parent.append(parent)
            self.second.append(-1)
            if parent >= 0 and k != parent + 1:
                self.second[parent] = k
            if isinstance(g, ATOM_CLASSES):
                self.op.append(None)
                leaves.setdefault(g, []).append(k)
            elif isinstance(g, Not):
                self.op.append(Not)
                stack.append((g.arg, k))
            elif isinstance(g, (And, Or, Implies)):
                self.op.append(type(g))
                stack.append((g.right, k))
                stack.append((g.left, k))
            else:
                raise FormulaError(f"not a formula: {g!r}")
        self.letters = list(leaves)
        self.leaves = list(leaves.values())     # per letter, its nodes
        self.value: List[Optional[bool]] = [None] * len(self.op)
        self.trail: List[int] = []

    def _eval(self, k: int) -> Optional[bool]:
        op, value = self.op[k], self.value
        a = value[k + 1]
        if op is Not:
            return None if a is None else not a
        b = value[self.second[k]]
        if op is Implies:
            a = None if a is None else not a
            op = Or
        if op is And:
            if a is False or b is False:
                return False
            return True if (a is True and b is True) else None
        if a is True or b is True:
            return True
        return False if (a is False and b is False) else None

    def assign(self, letter: int, truth: bool):
        """Values only go from None to a truth value, so propagation stops
        at the first node that stays undetermined or already was set."""
        value, parent = self.value, self.parent
        for k in self.leaves[letter]:
            value[k] = truth
            self.trail.append(k)
            k = parent[k]
            while k >= 0 and value[k] is None:
                new = self._eval(k)
                if new is None:
                    break
                value[k] = new
                self.trail.append(k)
                k = parent[k]

    def undo(self, mark: int):
        while len(self.trail) > mark:
            self.value[self.trail.pop()] = None


def literal_sets(f: Formula) -> Iterator[Tuple[Tuple[Formula, bool], ...]]:
    """The satisfying assignments of f's Boolean skeleton (`_ThreeValued`),
    each as its (atom, truth) pairs in the order of the atoms' first
    occurrence, and the assignments in the order of a binary count whose
    most significant bit is the last atom. A depth-first search assigns
    the atoms from the last down, False before True, and cuts a branch as
    soon as the three-valued value of f is False; evaluating f under
    every assignment gives the same sequence."""
    skeleton = _ThreeValued(f)
    letters = skeleton.letters
    n = len(letters)
    truth = [False] * n
    tried = [0] * n      # values tried at each letter: none, False, both
    marks = [0] * n
    i = n - 1
    while i < n:
        if i < 0:
            yield tuple(zip(letters, truth))
            i = 0
            continue
        if tried[i] == 2:
            skeleton.undo(marks[i])
            tried[i] = 0
            i += 1
            continue
        if tried[i] == 1:
            skeleton.undo(marks[i])
        else:
            marks[i] = len(skeleton.trail)
        truth[i] = tried[i] == 1
        tried[i] += 1
        skeleton.assign(i, truth[i])
        if skeleton.value[0] is not False:
            i -= 1


# ---------------------------------------------------------------------------
# Parser

KEYWORDS = {"conn", "conn_le", "conn_ge", "int", "cl", "C", "v"} | set(RCC8_RELATIONS)

# one alternative per token class, symbols longest first; spaces other
# than newlines match nothing and are skipped
_TOKEN = re.compile(r"(\n)|(->|!=|<=|[(),=!&|+*^~-])|(\d+)|([^\W\d]\w*)|(\S)")


def _tokens(text: str) -> List[Tuple[str, str, int, int]]:
    """(kind, lexeme, line, column) of every token of text, then EOF."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        group, lexeme, pos = m.lastindex, m.group(), m.start()
        col = pos - line_start + 1
        if group == 1:
            line, line_start = line + 1, pos + 1
        elif group == 2:
            tokens.append((lexeme, lexeme, line, col))
        elif group == 3:
            tokens.append(("NAT", lexeme, line, col))
        elif group == 4 and (lexeme[0].isalpha() or lexeme[0] == "_"):
            kind = lexeme if lexeme in KEYWORDS else "VAR"
            tokens.append((kind, lexeme, line, col))
        else:   # a name may not start with a numeral such as '½' or '²'
            raise ParseError(f"unexpected character {lexeme[0]!r}", line, col)
    tokens.append(("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    """Recursive descent over the token list. Each distinct term and
    formula is built once per parse (`share`), so a parsed formula is a
    DAG in which equal subterms are one object."""

    def __init__(self, text):
        self.tokens = _tokens(text)
        self.pos = 0
        self.nodes: Dict[tuple, object] = {}
        self.pure: Set[int] = set()   # see _family_of

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
        return self.shared((cls, *map(id, children)), cls, *children)

    def peek(self):
        # only the last `expect("EOF")` moves past EOF, so pos stays in range
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, msg):
        kind, lexeme, line, col = self.peek()
        shown = lexeme or "end of input"
        raise ParseError(f"{msg} (found {shown!r})", line, col)

    def expect(self, kind):
        if self.peek()[0] != kind:
            self.error(f"expected {kind!r}")
        return self.next()

    def parse_formula(self):
        f = self.parse_imp()
        self.expect("EOF")
        return f

    def parse_imp(self):
        left = self.parse_disj()
        if self.peek()[0] == "->":
            self.next()
            return self.share(Implies, left, self.parse_imp())
        return left

    def parse_chain(self, cls, op, parse_part):
        """The `op`-separated parts as one balanced chain (`_chain`); a lone
        part is returned as it is, since every parsed chain is balanced."""
        parts = [parse_part()]
        while self.peek()[0] == op:
            self.next()
            parts.append(parse_part())
        return parts[0] if len(parts) == 1 else _chain(
            cls, parts, lambda l, r: self.share(cls, l, r))

    def parse_disj(self):
        return self.parse_chain(Or, "|", self.parse_conj)

    def parse_conj(self):
        return self.parse_chain(And, "&", self.parse_lit)

    def parse_lit(self):
        kind = self.peek()[0]
        if kind == "!":
            self.next()
            return self.share(Not, self.parse_lit())
        # "(" opens a parenthesized formula only when it is not a term;
        # terms also start with "(" inside atoms, so try formula first.
        if kind == "(":
            save = self.pos
            try:
                self.next()
                f = self.parse_imp()
                self.expect(")")
                if self.peek()[0] in ("=", "!=", "<=", "+", "*", "v", "^"):
                    raise ParseError("atom", 0, 0)   # backtrack: was a term
                return f
            except ParseError:
                self.pos = save
        return self.parse_atom()

    def parse_atom(self):
        kind, lexeme, line, col = self.peek()
        if kind in RCC8_RELATIONS:
            self.next()
            self.expect("(")
            t1 = self.parse_term()
            self.expect(",")
            t2 = self.parse_term()
            self.expect(")")
            return self.shared((Rcc8, kind, id(t1), id(t2)), Rcc8, kind, t1, t2)
        if kind == "C":
            self.next()
            self.expect("(")
            ts = [self.parse_term()]
            while self.peek()[0] == ",":
                self.next()
                ts.append(self.parse_term())
            self.expect(")")
            if len(ts) < 2:
                raise ParseError("C needs at least two arguments", line, col)
            return self.shared((Contact, *map(id, ts)), Contact, tuple(ts))
        if kind == "conn":
            self.next()
            self.expect("(")
            t = self.parse_term()
            self.expect(")")
            return self.share(Conn, t)
        if kind in ("conn_le", "conn_ge"):
            self.next()
            self.expect("(")
            k = int(self.expect("NAT")[1])
            self.expect(",")
            t = self.parse_term()
            self.expect(")")
            if kind == "conn_le":
                if k < 1:
                    raise ParseError("conn_le requires k >= 1", line, col)
                return self.shared((ConnLe, k, id(t)), ConnLe, k, t)
            if k < 2:
                raise ParseError("conn_ge requires k >= 2", line, col)
            return self.share(Not, self.shared((ConnLe, k - 1, id(t)),
                                               ConnLe, k - 1, t))
        t1 = self.parse_term()
        op = self.peek()[0]
        if op == "=":
            self.next()
            return self.share(Eq, t1, self.parse_term())
        if op == "!=":
            self.next()
            return self.share(Not, self.share(Eq, t1, self.parse_term()))
        if op == "<=":
            self.next()
            t2 = self.parse_term()
            try:
                fam = (_family_of(t1, self.pure)
                       or _family_of(t2, self.pure) or "rc")
            except FormulaError as e:
                raise ParseError(str(e), line, col) from None
            meet, compl = _LEQ_OPERATORS[fam]
            return self.share(Eq, self.share(meet, t1, self.share(compl, t2)),
                              ZERO)
        self.error("expected '=', '!=' or '<=' after term")

    def parse_term(self):
        t = self.parse_term_mul()
        while self.peek()[0] in ("+", "v"):
            op = self.next()[0]
            right = self.parse_term_mul()
            t = self.share(Sum if op == "+" else Union, t, right)
        return t

    def parse_term_mul(self):
        t = self.parse_term_unary()
        while self.peek()[0] in ("*", "^"):
            op = self.next()[0]
            right = self.parse_term_unary()
            t = self.share(Prod if op == "*" else Inter, t, right)
        return t

    def parse_term_unary(self):
        kind, lexeme, line, col = self.peek()
        if kind == "-":
            self.next()
            return self.share(Compl, self.parse_term_unary())
        if kind == "~":
            self.next()
            return self.share(SetCompl, self.parse_term_unary())
        if kind in ("int", "cl"):
            self.next()
            self.expect("(")
            t = self.parse_term()
            self.expect(")")
            return self.share(Interior if kind == "int" else Closure, t)
        if kind == "(":
            self.next()
            t = self.parse_term()
            self.expect(")")
            return t
        if kind == "NAT":
            self.next()
            if lexeme == "0":
                return ZERO
            if lexeme == "1":
                return ONE
            raise ParseError(f"numeric term must be 0 or 1, got {lexeme}", line, col)
        if kind == "VAR":
            self.next()
            return self.shared(lexeme, Var, lexeme)
        self.error("expected term")


def parse(text: str) -> Formula:
    """Parse a formula and validate term-family purity. Equal subterms
    of the result are one object."""
    parser = _Parser(text)
    f = parser.parse_formula()
    set_contact = False
    for a, _ in _atom_families(f, parser.pure):
        if isinstance(a, (Contact, Rcc8)) and not set_contact:
            set_contact = any(_FAMILY.get(type(t)) == "set"
                              for t in terms_of_atom(a))
    if set_contact:
        raise FormulaError("contact predicates take regular-closed terms only")
    return f


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.parse_term()
    p.expect("EOF")
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
            arg = g.arg
            if type(arg) is Eq:
                return _print_term(arg.left, 0) + " != " + _print_term(arg.right, 0)
            if isinstance(arg, ATOM_CLASSES) or type(arg) is Not:
                return "!" + go(arg, 0)
            return "!(" + go(arg, 0) + ")"
        prec = _FORMULA_PREC.get(kind, 0)
        # & and | are associative, so a chain prints flat however it nests
        if kind is And or kind is Or:
            op = " & " if kind is And else " | "
            s = go(g.left, prec) + op + go(g.right, prec)
        elif kind is Implies:
            s = go(g.left, prec + 1) + " -> " + go(g.right, prec)
        else:
            raise FormulaError(f"not a formula: {g!r}")
        return "(" + s + ")" if prec < parent_prec else s

    return go(f, 0)
