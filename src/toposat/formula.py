"""AST, parser, printer and classification for region terms and formulas.

Two term families share one grammar: the regular-closed algebra
(Sum/Prod/Compl, written + * -) and raw set operators
(Union/Inter/SetCompl/Interior/Closure, written v ^ ~ int cl).
Mixing the two families inside one formula is rejected.
"""

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Union as TyUnion


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


def conj(formulas):
    """Right-nested conjunction of a non-empty list."""
    formulas = list(formulas)
    if not formulas:
        raise FormulaError("empty conjunction")
    out = formulas[-1]
    for f in reversed(formulas[:-1]):
        out = And(f, out)
    return out


def disj(formulas):
    formulas = list(formulas)
    if not formulas:
        raise FormulaError("empty disjunction")
    out = formulas[-1]
    for f in reversed(formulas[:-1]):
        out = Or(f, out)
    return out


def leq(t1, t2, family="rc"):
    """t1 <= t2 sugar: t1*(-t2) = 0 for RC terms, t1^~t2 = 0 for set terms."""
    if family == "rc":
        return Eq(Prod(t1, Compl(t2)), ZERO)
    return Eq(Inter(t1, SetCompl(t2)), ZERO)


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
    if isinstance(f, ATOM_CLASSES):
        yield f
    elif isinstance(f, Not):
        yield from atoms(f.arg)
    elif isinstance(f, (And, Or, Implies)):
        yield from atoms(f.left)
        yield from atoms(f.right)
    else:
        raise FormulaError(f"not a formula: {f!r}")


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


def term_family(t: Term) -> Optional[str]:
    """'rc', 'set', or None when only variables/constants occur."""
    fam = None
    for s in subterms(t):
        new = _FAMILY.get(type(s))
        if new is None or new == fam:
            continue
        if fam is not None:
            raise FormulaError("term mixes regular-closed and set operators")
        fam = new
    return fam


def _with_family(fam: Optional[str], t: Term) -> Optional[str]:
    """The family of terms of family `fam` together with t."""
    new = term_family(t)
    if new is None or new == fam:
        return fam
    if fam is not None:
        raise FormulaError("formula mixes regular-closed and set operators")
    return new


def formula_family(f: Formula) -> Optional[str]:
    fam = None
    for t in terms_of(f):
        fam = _with_family(fam, t)
    return fam


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
    for a in atoms(f):
        for t in terms_of_atom(a):
            family = _with_family(family, t)
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
# Propositional skeleton

PropFormula = TyUnion[int, tuple]
# int n > 0: letter n; ("not", g) | ("and", g, h) | ("or", g, h) | ("imp", g, h)


def propositional_skeleton(f: Formula) -> Tuple[PropFormula, Dict[int, Formula]]:
    """Replace each atom by a propositional letter (structurally deduplicated)."""
    table: Dict[int, Formula] = {}
    index: Dict[Formula, int] = {}

    def walk(g):
        if isinstance(g, ATOM_CLASSES):
            if g not in index:
                index[g] = len(index) + 1
                table[index[g]] = g
            return index[g]
        if isinstance(g, Not):
            return ("not", walk(g.arg))
        if isinstance(g, And):
            return ("and", walk(g.left), walk(g.right))
        if isinstance(g, Or):
            return ("or", walk(g.left), walk(g.right))
        if isinstance(g, Implies):
            return ("imp", walk(g.left), walk(g.right))
        raise FormulaError(f"not a formula: {g!r}")

    return walk(f), table


def eval_prop(p: PropFormula, assignment: Dict[int, bool]) -> bool:
    if isinstance(p, int):
        return assignment[p]
    op = p[0]
    if op == "not":
        return not eval_prop(p[1], assignment)
    if op == "and":
        return eval_prop(p[1], assignment) and eval_prop(p[2], assignment)
    if op == "or":
        return eval_prop(p[1], assignment) or eval_prop(p[2], assignment)
    return (not eval_prop(p[1], assignment)) or eval_prop(p[2], assignment)


class _ThreeValued:
    """A skeleton flattened into nodes whose Kleene values are refined
    upwards from each assigned letter and restored through a trail."""

    def __init__(self, p: PropFormula):
        self.op: List[str] = []
        self.args: List[List[int]] = []
        self.parent: List[int] = []
        self.leaves: Dict[int, List[int]] = {}
        stack = [(p, -1)]
        while stack:
            g, parent = stack.pop()
            k = len(self.op)
            self.parent.append(parent)
            self.args.append([])
            if parent >= 0:
                self.args[parent].append(k)
            if isinstance(g, int):
                self.op.append("letter")
                self.leaves.setdefault(g, []).append(k)
            else:
                self.op.append(g[0])
                stack.extend((child, k) for child in reversed(g[1:]))
        self.value: List[Optional[bool]] = [None] * len(self.op)
        self.trail: List[int] = []

    def _eval(self, k: int) -> Optional[bool]:
        op, args, value = self.op[k], self.args[k], self.value
        a = value[args[0]]
        if op == "not":
            return None if a is None else not a
        b = value[args[1]]
        if op == "imp":
            a = None if a is None else not a
            op = "or"
        if op == "and":
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


def literal_sets(p: PropFormula, table: Dict[int, Formula]) -> Iterator[FrozenSet[int]]:
    """Satisfying complete assignments as sets of signed letters, in the
    order of a binary count whose most significant bit is the highest
    letter. A depth-first search assigns letters from the highest down,
    False before True, and cuts a branch as soon as the three-valued
    value of the skeleton is False; `eval_prop` over every assignment
    gives the same sequence."""
    letters = sorted(table)
    n = len(letters)
    skeleton = _ThreeValued(p)
    truth = [False] * n
    tried = [0] * n      # values tried at each letter: none, False, both
    marks = [0] * n
    i = n - 1
    while i < n:
        if i < 0:
            yield frozenset(l if t else -l for l, t in zip(letters, truth))
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
        skeleton.assign(letters[i], truth[i])
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
    def __init__(self, text):
        self.tokens = _tokens(text)
        self.pos = 0

    def peek(self, offset=0):
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

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
            return Implies(left, self.parse_imp())
        return left

    def parse_disj(self):
        f = self.parse_conj()
        while self.peek()[0] == "|":
            self.next()
            f = Or(f, self.parse_conj())
        return f

    def parse_conj(self):
        f = self.parse_lit()
        while self.peek()[0] == "&":
            self.next()
            f = And(f, self.parse_lit())
        return f

    def parse_lit(self):
        kind = self.peek()[0]
        if kind == "!":
            self.next()
            return Not(self.parse_lit())
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
            return Rcc8(lexeme, t1, t2)
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
            return Contact(tuple(ts))
        if kind == "conn":
            self.next()
            self.expect("(")
            t = self.parse_term()
            self.expect(")")
            return Conn(t)
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
                return ConnLe(k, t)
            if k < 2:
                raise ParseError("conn_ge requires k >= 2", line, col)
            return Not(ConnLe(k - 1, t))
        t1 = self.parse_term()
        op = self.peek()[0]
        if op == "=":
            self.next()
            return Eq(t1, self.parse_term())
        if op == "!=":
            self.next()
            return Not(Eq(t1, self.parse_term()))
        if op == "<=":
            self.next()
            t2 = self.parse_term()
            try:
                fam = term_family(t1) or term_family(t2) or "rc"
            except FormulaError as e:
                raise ParseError(str(e), line, col) from None
            return leq(t1, t2, fam)
        self.error("expected '=', '!=' or '<=' after term")

    def parse_term(self):
        t = self.parse_term_mul()
        while self.peek()[0] in ("+", "v"):
            op = self.next()[0]
            right = self.parse_term_mul()
            t = Sum(t, right) if op == "+" else Union(t, right)
        return t

    def parse_term_mul(self):
        t = self.parse_term_unary()
        while self.peek()[0] in ("*", "^"):
            op = self.next()[0]
            right = self.parse_term_unary()
            t = Prod(t, right) if op == "*" else Inter(t, right)
        return t

    def parse_term_unary(self):
        kind, lexeme, line, col = self.peek()
        if kind == "-":
            self.next()
            return Compl(self.parse_term_unary())
        if kind == "~":
            self.next()
            return SetCompl(self.parse_term_unary())
        if kind in ("int", "cl"):
            self.next()
            self.expect("(")
            t = self.parse_term()
            self.expect(")")
            return Interior(t) if kind == "int" else Closure(t)
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
            return Var(lexeme)
        self.error("expected term")


def parse(text: str) -> Formula:
    """Parse a formula and validate term-family purity."""
    f = _Parser(text).parse_formula()
    formula_family(f)
    for a in atoms(f):
        if isinstance(a, (Contact, Rcc8)):
            for t in terms_of_atom(a):
                if term_family(t) == "set":
                    raise FormulaError("contact predicates take regular-closed terms only")
    return f


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.parse_term()
    p.expect("EOF")
    term_family(t)
    return t


# ---------------------------------------------------------------------------
# Printer (canonical minimal-parentheses form)

_TERM_PREC = {Sum: 1, Union: 1, Prod: 2, Inter: 2,
              Compl: 3, SetCompl: 3, Interior: 3, Closure: 3,
              Var: 4, Zero: 4, One: 4}


def print_term(t: Term) -> str:
    def go(u, parent_prec):
        prec = _TERM_PREC[type(u)]
        if isinstance(u, Var):
            s = u.name
        elif isinstance(u, Zero):
            s = "0"
        elif isinstance(u, One):
            s = "1"
        elif isinstance(u, (Sum, Union)):
            op = " + " if isinstance(u, Sum) else " v "
            s = go(u.left, prec) + op + go(u.right, prec + 1)
        elif isinstance(u, (Prod, Inter)):
            op = " * " if isinstance(u, Prod) else " ^ "
            s = go(u.left, prec) + op + go(u.right, prec + 1)
        elif isinstance(u, Compl):
            s = "-" + go(u.arg, prec)
        elif isinstance(u, SetCompl):
            s = "~" + go(u.arg, prec)
        elif isinstance(u, Interior):
            return "int(" + go(u.arg, 0) + ")"
        elif isinstance(u, Closure):
            return "cl(" + go(u.arg, 0) + ")"
        else:
            raise FormulaError(f"not a term: {u!r}")
        if prec < parent_prec:
            return "(" + s + ")"
        return s

    return go(t, 0)


_FORMULA_PREC = {Implies: 1, Or: 2, And: 3, Not: 4}


def print_formula(f: Formula) -> str:
    def go(g, parent_prec):
        if isinstance(g, Eq):
            return f"{print_term(g.left)} = {print_term(g.right)}"
        if isinstance(g, Contact):
            return "C(" + ", ".join(print_term(t) for t in g.terms) + ")"
        if isinstance(g, Rcc8):
            return f"{g.rel}({print_term(g.left)}, {print_term(g.right)})"
        if isinstance(g, Conn):
            return f"conn({print_term(g.term)})"
        if isinstance(g, ConnLe):
            return f"conn_le({g.k}, {print_term(g.term)})"
        prec = _FORMULA_PREC[type(g)]
        if isinstance(g, Not):
            if isinstance(g.arg, Eq):
                return f"{print_term(g.arg.left)} != {print_term(g.arg.right)}"
            inner = go(g.arg, prec)
            if isinstance(g.arg, ATOM_CLASSES) or isinstance(g.arg, Not):
                return "!" + inner
            return "!(" + go(g.arg, 0) + ")"
        if isinstance(g, And):
            s = go(g.left, prec) + " & " + go(g.right, prec + 1)
        elif isinstance(g, Or):
            s = go(g.left, prec) + " | " + go(g.right, prec + 1)
        elif isinstance(g, Implies):
            s = go(g.left, prec + 1) + " -> " + go(g.right, prec)
        else:
            raise FormulaError(f"not a formula: {g!r}")
        if prec < parent_prec:
            return "(" + s + ")"
        return s

    return go(f, 0)
