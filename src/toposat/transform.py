"""Satisfiability-preserving rewrites and cross-language translations.

Covers: the binary-relation atoms to contact rewrite, the embedding of
regular-closed terms into raw set terms via cl(int(.)), positive-count
elimination, both contact-elimination lemmas with relativization, and
the future-past temporal translation with its fence-cell semantics.

Every rewrite of a formula's Boolean structure is one `formula.fold`,
so none recurses over !, &, | or ->, and a subformula it leaves as it
is is kept, not copied. Terms are still walked recursively.
"""

from dataclasses import dataclass
from functools import reduce
from typing import Dict, List, Optional, Tuple

from . import formula as F
from .formula import (And, Compl, Conn, ConnLe, Contact, Closure, Eq, Formula,
                      FormulaError, Implies, Inter, Interior, Not, One, Or,
                      Prod, Rcc8, SetCompl, Sum, Term, Union, Var, Zero,
                      ZERO, ONE, conj)
from .frames import Model, fence_cells
from .semantics import empty_space_eval


class TransformError(Exception):
    """Rewrite precondition violated."""


# ---------------------------------------------------------------------------
# Fresh variables

class FreshVars:
    """Per-pipeline counter for _aux<N> variable names."""

    def __init__(self, formula: Optional[Formula] = None):
        self.n = 0
        if formula is not None:
            for v in F.variables(formula):
                if v.startswith("_aux"):
                    raise TransformError(f"reserved variable name {v!r} in input")

    def next(self) -> Var:
        self.n += 1
        return Var(f"_aux{self.n}")


# ---------------------------------------------------------------------------
# Generic formula surgery

def _rebuild(g: Formula, _, a: Formula, b: Optional[Formula] = None
             ) -> Formula:
    """Connective g over the operands a (and b), for `F.fold`: g itself
    when they are its own, so an unchanged subformula is not copied."""
    if type(g) is Not:
        return g if a is g.arg else Not(a)
    return g if a is g.left and b is g.right else type(g)(a, b)


def replace_occurrence(f: Formula, pred, builder) -> Formula:
    """Replace every node matching pred(node, positive) by builder(node),
    called on the matches in preorder; the polarity `positive` is as
    `F.fold` reads it, True at the root and flipped under `!` and left
    of `->`. The inside of a match is not searched. Raises if nothing
    matches."""
    matched = []

    def at(g, positive):
        if pred(g, positive):
            matched.append(g)
            return builder(g)

    out = F.fold(f, lambda a, _: a, _rebuild, at)
    if not matched:
        raise TransformError("no matching occurrence")
    return out


def _nnf_literal(g: Formula, positive: bool) -> Optional[Formula]:
    """The negation normal form of g read with its polarity when g is an
    atom or a negated atom, g itself where it is its own form; None for
    any other node."""
    if type(g) is Not and type(g.arg) in F.ATOM_CLASSES:
        return g if positive else g.arg
    if type(g) in F.ATOM_CLASSES:
        return g if positive else Not(g)
    return None


def _nnf_node(g: Formula, positive: bool, a: Formula,
              b: Optional[Formula] = None) -> Formula:
    """A connective g in negation normal form, over its operands' forms,
    which `F.fold` read with g's polarity or its flip: a ! is dropped, a
    positive & and a negative | or -> become &, the rest |; g itself
    when that is its own form."""
    if type(g) is Not:
        return a
    cls = And if (type(g) is And) == positive else Or
    return g if cls is type(g) and a is g.left and b is g.right else cls(a, b)


def nnf(f: Formula) -> Formula:
    """Negation normal form: negation only on atoms, no implications.
    Literals are read whole (`_nnf_literal`), and a subformula already in
    that form is kept, not copied."""
    return F.fold(f, _nnf_literal, _nnf_node, _nnf_literal)


# ---------------------------------------------------------------------------
# Relation atoms to contact

def rcc8_to_c(f: Formula) -> Formula:
    """Expand every binary-relation atom into contact/equality form."""

    def expand(a, _):
        if not isinstance(a, Rcc8):
            return a
        t1, t2 = a.left, a.right
        rel = a.rel
        if rel == "TPPi":
            rel, t1, t2 = "TPP", t2, t1
        elif rel == "NTPPi":
            rel, t1, t2 = "NTPP", t2, t1
        if rel == "DC":
            return Not(Contact((t1, t2)))
        if rel == "EQ":
            return Eq(t1, t2)
        if rel == "EC":
            return And(Eq(Prod(t1, t2), ZERO), Contact((t1, t2)))
        if rel == "PO":
            return conj([Not(Eq(Prod(t1, t2), ZERO)), Not(F.leq(t1, t2)),
                         Not(F.leq(t2, t1))])
        if rel == "TPP":
            return conj([F.leq(t1, t2), Contact((t1, Compl(t2))),
                         Not(F.leq(t2, t1))])
        if rel == "NTPP":
            return And(Not(Contact((t1, Compl(t2)))), Not(F.leq(t2, t1)))
        raise TransformError(f"unknown relation {rel!r}")

    return F.fold(f, expand, _rebuild)


# ---------------------------------------------------------------------------
# Dagger: regular-closed terms as raw set terms

def dagger_term(t: Term) -> Term:
    if isinstance(t, Var):
        return Closure(Interior(t))
    if isinstance(t, (Zero, One)):
        return t
    if isinstance(t, Compl):
        return Closure(SetCompl(dagger_term(t.arg)))
    if isinstance(t, Prod):
        return Closure(Interior(Inter(dagger_term(t.left), dagger_term(t.right))))
    if isinstance(t, Sum):
        return Union(dagger_term(t.left), dagger_term(t.right))
    raise TransformError(f"not a regular-closed term: {t!r}")


def dagger(f: Formula) -> Formula:
    """Rewrite an RC-family formula for interpretation over arbitrary
    point sets: variables become cl(int(r)), contact becomes non-empty
    intersection."""
    if F.formula_family(f) == "set":
        raise TransformError("input already uses set operators")
    f = rcc8_to_c(f)

    def expand(a, _):
        if isinstance(a, Eq):
            return Eq(dagger_term(a.left), dagger_term(a.right))
        if isinstance(a, Contact):
            t = dagger_term(a.terms[0])
            for u in a.terms[1:]:
                t = Inter(t, dagger_term(u))
            return Not(Eq(t, ZERO))
        if isinstance(a, Conn):
            return Conn(dagger_term(a.term))
        if isinstance(a, ConnLe):
            return ConnLe(a.k, dagger_term(a.term))
        raise TransformError(f"cannot rewrite atom {a!r}")

    return F.fold(f, expand, _rebuild)


# ---------------------------------------------------------------------------
# Positive occurrences of component-count predicates

def eliminate_count_pos(f: Formula) -> Formula:
    """Replace every positively occurring at-most-k (or at-least-k, i.e.
    negated at-most) component atom by its union-of-connected-pieces
    expansion, each over fresh variables of its own. Set-operator
    formulas only: the expansion needs frames whose region family is
    closed under taking components, which the power-set classes
    guarantee."""
    if F.formula_family(f) == "rc":
        raise TransformError("count elimination applies to set-operator formulas")
    fresh = FreshVars(f)

    def pred(g, positive):
        return positive and isinstance(g.arg if isinstance(g, Not) else g,
                                       ConnLe)

    def builder(g):
        if isinstance(g, ConnLe):
            tau, k = g.term, g.k
            parts = [fresh.next() for _ in range(k)]
            return conj([Eq(tau, reduce(Union, parts))]
                        + [Conn(r) for r in parts])
        # not(at most k) = at least k+1 components
        tau, k = g.arg.term, g.arg.k
        parts = [fresh.next() for _ in range(k + 1)]
        out = [Eq(tau, reduce(Union, parts))]
        out += [Not(Eq(r, ZERO)) for r in parts]
        out += [Eq(Inter(tau, Inter(Closure(parts[i]), Closure(parts[j]))), ZERO)
                for i in range(len(parts)) for j in range(i + 1, len(parts))]
        return conj(out)

    return replace_occurrence(f, pred, builder)


# ---------------------------------------------------------------------------
# Relativization and contact elimination

def relativize(f: Formula, s: str) -> Formula:
    """Replace every maximal term tau by s*tau."""
    sv = Var(s)

    def expand(a, _):
        if isinstance(a, Eq):
            return Eq(Prod(sv, a.left), Prod(sv, a.right))
        if isinstance(a, Contact):
            return Contact(tuple(Prod(sv, t) for t in a.terms))
        if isinstance(a, Rcc8):
            return Rcc8(a.rel, Prod(sv, a.left), Prod(sv, a.right))
        if isinstance(a, Conn):
            return Conn(Prod(sv, a.term))
        if isinstance(a, ConnLe):
            return ConnLe(a.k, Prod(sv, a.term))
        raise TransformError(f"not an atom: {a!r}")

    return F.fold(f, expand, _rebuild)


def _epsilon(f: Formula) -> Formula:
    """`0 = 1` when f is satisfied over the empty space, an absorbing
    falsehood otherwise."""
    if empty_space_eval(f):
        return Eq(ZERO, ONE)
    return Not(Eq(ZERO, ZERO))


def eliminate_contact_pos(f: Formula,
                          fresh: Optional[FreshVars] = None) -> Formula:
    """Replace every positive binary contact atom by `t = 0` for one fresh
    marker t, guarded by connected witnesses t1 <= tau1, t2 <= tau2 with
    connected sum, where tau1 and tau2 are the terms of the last contact
    replaced. With more than one distinct contact the result need not be
    equisatisfiable with f."""
    fresh = fresh or FreshVars(f)
    t, t1, t2 = fresh.next(), fresh.next(), fresh.next()
    target = [None]

    def pred(g, positive):
        return positive and isinstance(g, Contact) and len(g.terms) == 2

    def builder(g):
        target[0] = g
        return Eq(t, ZERO)

    replaced = replace_occurrence(f, pred, builder)
    tau1, tau2 = target[0].terms
    guard = Implies(
        Eq(t, ZERO),
        conj([Conn(Sum(t1, t2)),
              Not(Eq(t1, ZERO)), F.leq(t1, tau1), Conn(t1),
              Not(Eq(t2, ZERO)), F.leq(t2, tau2), Conn(t2)]))
    return Or(_epsilon(f), And(replaced, guard))


def eliminate_contact_neg(f: Formula, connected: bool = False,
                          fresh: Optional[FreshVars] = None) -> Formula:
    """Replace every positive occurrence of a negated binary contact atom
    by `t = 0` for one fresh marker t, relativizing the formula to a
    fresh subspace variable s; the guard reads the terms of the last
    contact replaced, as in `eliminate_contact_pos`."""
    fresh = fresh or FreshVars(f)
    s, t, t1, t2 = fresh.next(), fresh.next(), fresh.next(), fresh.next()
    target = [None]

    def pred(g, positive):
        return (positive and isinstance(g, Not) and isinstance(g.arg, Contact)
                and len(g.arg.terms) == 2)

    def builder(g):
        target[0] = g.arg
        return Eq(t, ZERO)

    replaced = replace_occurrence(f, pred, builder)
    tau1, tau2 = target[0].terms
    body = conj([
        Not(Eq(s, ZERO)),
        relativize(replaced, s.name),
        Implies(Eq(Prod(t, s), ZERO),
                conj([Not(Conn(Sum(t1, t2))),
                      Conn(t1), F.leq(Prod(tau1, s), t1),
                      Conn(t2), F.leq(Prod(tau2, s), t2)])),
    ])
    out = Or(_epsilon(f), body)
    if connected:
        out = And(out, Conn(s))
    return out


def _has_binary_contact(f: Formula) -> bool:
    return any(isinstance(a, Contact) and len(a.terms) == 2 for a in F.atoms(f))


def eliminate_contacts(f: Formula, connected: bool = False) -> Formula:
    """Remove every binary contact atom by the two elimination steps,
    negated contacts first; the result is contact-free."""
    for a in F.atoms(f):
        if isinstance(a, Contact) and len(a.terms) != 2:
            raise TransformError("contact elimination handles binary contact only")
    fresh = FreshVars(f)
    f = nnf(f)
    while _has_binary_contact(f):
        try:
            f = eliminate_contact_neg(f, connected, fresh)
        except TransformError:
            f = eliminate_contact_pos(f, fresh)
        f = nnf(f)
    return f


# ---------------------------------------------------------------------------
# Equality normalization

def eq_normalize(f: Formula, family: Optional[str]) -> Formula:
    """Rewrite equalities into tau = 0 form via symmetric difference,
    built from the operators of f's term family (`formula_family`)."""

    set_family = family == "set"

    def expand(a, _):
        if not isinstance(a, Eq):
            return a
        if isinstance(a.right, Zero):
            return a
        if isinstance(a.left, Zero):
            return Eq(a.right, ZERO)
        # a formula mixing the families raises in formula_family, so
        # no term is a set term unless the family is
        if set_family:
            diff = Union(Inter(a.left, SetCompl(a.right)),
                         Inter(a.right, SetCompl(a.left)))
        else:
            diff = Sum(Prod(a.left, Compl(a.right)),
                       Prod(a.right, Compl(a.left)))
        return Eq(diff, ZERO)

    return F.fold(f, expand, _rebuild)


# ---------------------------------------------------------------------------
# Future-past temporal translation

@dataclass(frozen=True)
class FPVar:
    name: str


@dataclass(frozen=True)
class FPTop:
    pass


@dataclass(frozen=True)
class FPBot:
    pass


@dataclass(frozen=True)
class FPNot:
    arg: object


@dataclass(frozen=True)
class FPAnd:
    left: object
    right: object


@dataclass(frozen=True)
class FPOr:
    left: object
    right: object


@dataclass(frozen=True)
class FPImp:
    left: object
    right: object


@dataclass(frozen=True)
class DiamondF:
    arg: object


@dataclass(frozen=True)
class DiamondP:
    arg: object


def _fp_iff(a, b):
    return FPAnd(FPImp(a, b), FPImp(b, a))


def _fp_term(t: Term):
    if isinstance(t, Var):
        return FPVar(t.name)
    if isinstance(t, Zero):
        return FPBot()
    if isinstance(t, One):
        return FPTop()
    if isinstance(t, Compl):
        return FPNot(_fp_term(t.arg))
    if isinstance(t, Prod):
        return FPAnd(_fp_term(t.left), _fp_term(t.right))
    if isinstance(t, Sum):
        return FPOr(_fp_term(t.left), _fp_term(t.right))
    raise TransformError(f"not a regular-closed term: {t!r}")


def fp_translate(f: Formula):
    """Boolean-with-connectedness formula into a future-past formula
    whose satisfiability over the real line matches."""
    tag = F.classify(f)
    if tag not in ("B", "Bc"):
        raise TransformError(f"translation takes B/Bc input, got {tag}")

    def atom(g, _):
        if isinstance(g, Eq):
            return FPNot(DiamondF(DiamondP(FPNot(_fp_iff(_fp_term(g.left),
                                                         _fp_term(g.right))))))
        if isinstance(g, Conn):
            p = _fp_term(g.term)
            return FPNot(DiamondF(DiamondP(
                FPAnd(p, DiamondF(FPAnd(FPNot(p), DiamondF(p)))))))
        raise TransformError(f"cannot translate {g!r}")

    connective = {Not: FPNot, And: FPAnd, Or: FPOr, Implies: FPImp}
    return F.fold(f, atom, lambda g, _, *values: connective[type(g)](*values))


def fp_print(g) -> str:
    if isinstance(g, FPVar):
        return g.name
    if isinstance(g, FPTop):
        return "true"
    if isinstance(g, FPBot):
        return "false"
    if isinstance(g, FPNot):
        bangs = ""      # a run of ! is read in a loop, however long
        while isinstance(g, FPNot):
            bangs += "!"
            g = g.arg
        return bangs + fp_print(g)
    if isinstance(g, FPAnd):
        return f"({fp_print(g.left)} & {fp_print(g.right)})"
    if isinstance(g, FPOr):
        return f"({fp_print(g.left)} | {fp_print(g.right)})"
    if isinstance(g, FPImp):
        return f"({fp_print(g.left)} -> {fp_print(g.right)})"
    if isinstance(g, DiamondF):
        return f"F({fp_print(g.arg)})"
    if isinstance(g, DiamondP):
        return f"P({fp_print(g.arg)})"
    raise TransformError(f"not a temporal formula: {g!r}")


def fp_modelcheck(model: Model, g, cell_index: int) -> bool:
    """Truth of a future-past formula at one cell of a linear fence.

    A diamond looking forward is witnessed by any later cell, or by the
    cell itself when it is an interval cell (an interval contains points
    strictly after any of its own points); symmetrically for the past.

    Letters are read half-open: a point cell carries a letter exactly
    when the interval to its right does. This keeps the pointwise
    Boolean connectives aligned with the region operations, which
    disagree at shared endpoints under the literal membership reading."""
    cells = fence_cells(model.frame)
    if not 0 <= cell_index < len(cells):
        raise TransformError("cell index out of range")

    def truth(h, i):
        point, kind = cells[i]
        if isinstance(h, FPVar):
            if h.name not in model.valuation:
                raise TransformError(f"unbound letter {h.name!r}")
            carrier = cells[i + 1][0] if kind == "point" else point
            return carrier in model.valuation[h.name]
        if isinstance(h, FPTop):
            return True
        if isinstance(h, FPBot):
            return False
        if isinstance(h, FPNot):
            return not truth(h.arg, i)
        if isinstance(h, FPAnd):
            return truth(h.left, i) and truth(h.right, i)
        if isinstance(h, FPOr):
            return truth(h.left, i) or truth(h.right, i)
        if isinstance(h, FPImp):
            return (not truth(h.left, i)) or truth(h.right, i)
        if isinstance(h, DiamondF):
            if kind == "interval" and truth(h.arg, i):
                return True
            return any(truth(h.arg, j) for j in range(i + 1, len(cells)))
        if isinstance(h, DiamondP):
            if kind == "interval" and truth(h.arg, i):
                return True
            return any(truth(h.arg, j) for j in range(i))
        raise TransformError(f"not a temporal formula: {h!r}")

    return truth(g, cell_index)
