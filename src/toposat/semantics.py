"""Model checking: terms to point sets, formulas to truth values.

Regular-closed constructors evaluate in the RC algebra of the frame
(product = closure of interior of the intersection, complement =
closure of the set complement); set constructors evaluate literally.
Connectedness counts components of the extension in the whole frame.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional

from . import formula as F
from .frames import Model, PointSet, QuasiOrderFrame, family_mismatch


class SemanticsError(Exception):
    """Evaluation failure: unbound variable or language/frame mismatch."""


@dataclass
class Verdict:
    truth: bool
    trace: Optional[Dict] = None

    def __bool__(self):
        return self.truth


def eval_term(model: Model, t: F.Term,
              memo: Optional[Dict[int, PointSet]] = None) -> PointSet:
    """The extension of t in model. `memo` maps the identity of each term
    already evaluated to its extension, so a subterm met again, here or
    in a later call given the same memo, is evaluated once; its terms
    must stay alive while it is used, so that no identity is reused."""
    if isinstance(t, F.Var):
        if t.name not in model.valuation:
            raise SemanticsError(f"unbound variable {t.name!r}")
        return model.valuation[t.name]
    if isinstance(t, F.Zero):
        return frozenset()
    if isinstance(t, F.One):
        return model.frame.points
    if memo is None:
        memo = {}
    X = memo.get(id(t))
    if X is not None:
        return X
    frame = model.frame
    if isinstance(t, (F.Sum, F.Union)):
        X = eval_term(model, t.left, memo) | eval_term(model, t.right, memo)
    elif isinstance(t, F.Prod):
        X = eval_term(model, t.left, memo) & eval_term(model, t.right, memo)
        X = frame.closure(frame.interior(X))
    elif isinstance(t, F.Compl):
        X = frame.closure(frame.complement(eval_term(model, t.arg, memo)))
    elif isinstance(t, F.Inter):
        X = eval_term(model, t.left, memo) & eval_term(model, t.right, memo)
    elif isinstance(t, F.SetCompl):
        X = frame.complement(eval_term(model, t.arg, memo))
    elif isinstance(t, F.Interior):
        X = frame.interior(eval_term(model, t.arg, memo))
    elif isinstance(t, F.Closure):
        X = frame.closure(eval_term(model, t.arg, memo))
    else:
        raise SemanticsError(f"not a term: {t!r}")
    memo[id(t)] = X
    return X


def check_family(model: Model, f: F.Formula):
    problem = family_mismatch(F.formula_family(f), model.frame_class)
    if problem is not None:
        raise SemanticsError(problem)


def _rcc8_truth(model: Model, rel: str, X: PointSet, Y: PointSet) -> bool:
    frame = model.frame
    if rel == "TPPi":
        return _rcc8_truth(model, "TPP", Y, X)
    if rel == "NTPPi":
        return _rcc8_truth(model, "NTPP", Y, X)
    if rel == "DC":
        return not X & Y
    if rel == "EQ":
        return X == Y
    iX, iY = frame.interior(X), frame.interior(Y)
    if rel == "EC":
        return bool(X & Y) and not iX & iY
    if rel == "PO":
        return bool(iX & iY) and bool(iX - Y) and bool(iY - X)
    if rel == "TPP":
        return X <= Y and not X <= iY and not Y <= X
    if rel == "NTPP":
        return X <= iY and not Y <= X
    raise SemanticsError(f"unknown relation {rel!r}")


def atom_truth(model: Model, a: F.Formula,
               memo: Optional[Dict[int, PointSet]] = None) -> bool:
    """The truth of atom a in model; `memo` as in `eval_term`."""
    if memo is None:
        memo = {}
    if isinstance(a, F.Eq):
        return eval_term(model, a.left, memo) == eval_term(model, a.right, memo)
    if isinstance(a, F.Contact):
        exts = [eval_term(model, t, memo) for t in a.terms]
        common = exts[0]
        for e in exts[1:]:
            common &= e
        return bool(common)
    if isinstance(a, F.Rcc8):
        return _rcc8_truth(model, a.rel, eval_term(model, a.left, memo),
                           eval_term(model, a.right, memo))
    if isinstance(a, F.Conn):
        return len(model.frame.components(eval_term(model, a.term, memo))) <= 1
    if isinstance(a, F.ConnLe):
        return len(model.frame.components(eval_term(model, a.term, memo))) <= a.k
    raise SemanticsError(f"not an atom: {a!r}")


def holds(model: Model, f: F.Formula, trace: bool = False) -> Verdict:
    """The truth of f in model, each distinct subterm (by identity)
    evaluated once. Without `trace`, And and Or stop at the first operand
    that decides them; with it, every atom is evaluated and the verdict's
    `trace` maps each atom to its truth. And and Or chains, runs of !
    and right-nested -> chains are walked without recursion, however
    long; every operand of a -> chain is evaluated, left to right."""
    check_family(model, f)
    record = {} if trace else None
    memo: Dict[int, PointSet] = {}

    def go(g):
        if isinstance(g, F.ATOM_CLASSES):
            value = atom_truth(model, g, memo)
            if record is not None:
                record[g] = value
            return value
        if isinstance(g, (F.And, F.Or)):
            # an And chain is decided by a False operand, an Or by a True one
            decisive = isinstance(g, F.Or)
            value = not decisive
            for h in F.operands(g, F.Or if decisive else F.And):
                if go(h) == decisive:
                    if record is None:
                        return decisive
                    value = decisive
            return value
        if isinstance(g, F.Not):
            flip = False        # a run of ! is read in a loop
            while isinstance(g, F.Not):
                flip, g = not flip, g.arg
            return go(g) != flip
        if isinstance(g, F.Implies):
            lefts = []      # a right-nested -> chain is read in a loop
            while isinstance(g, F.Implies):
                lefts.append(go(g.left))
                g = g.right
            right = go(g)
            return right or not all(lefts)
        raise SemanticsError(f"not a formula: {g!r}")

    return Verdict(go(f), record)


def rcc8_relation(model: Model, t1: F.Term, t2: F.Term) -> str:
    """The unique one of the eight relations holding between two
    non-empty regular closed extensions."""
    X = eval_term(model, t1)
    Y = eval_term(model, t2)
    if not X or not Y:
        raise SemanticsError("relations partition non-empty regions only")
    frame = model.frame
    if not (frame.is_regular_closed(X) and frame.is_regular_closed(Y)):
        raise SemanticsError("relations partition regular closed regions only")
    matches = [rel for rel in F.RCC8_RELATIONS if _rcc8_truth(model, rel, X, Y)]
    if len(matches) != 1:
        raise SemanticsError(f"relations not mutually exclusive: {matches}")
    return matches[0]


def count_components(model: Model, t: F.Term) -> int:
    return len(model.frame.components(eval_term(model, t)))


def empty_space_eval(f: F.Formula) -> bool:
    """Truth of f in the unique model over the empty frame."""
    frame_class = "all" if F.formula_family(f) == "set" else "regc"
    model = Model(QuasiOrderFrame([], []),
                  {v: frozenset() for v in F.variables(f)}, frame_class)
    return holds(model, f).truth
