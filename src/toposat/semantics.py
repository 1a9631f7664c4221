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


def eval_term(model: Model, t: F.Term) -> PointSet:
    frame = model.frame
    if isinstance(t, F.Var):
        if t.name not in model.valuation:
            raise SemanticsError(f"unbound variable {t.name!r}")
        return model.valuation[t.name]
    if isinstance(t, F.Zero):
        return frozenset()
    if isinstance(t, F.One):
        return frame.points
    if isinstance(t, F.Sum):
        return eval_term(model, t.left) | eval_term(model, t.right)
    if isinstance(t, F.Prod):
        X = eval_term(model, t.left) & eval_term(model, t.right)
        return frame.closure(frame.interior(X))
    if isinstance(t, F.Compl):
        return frame.closure(frame.complement(eval_term(model, t.arg)))
    if isinstance(t, F.Union):
        return eval_term(model, t.left) | eval_term(model, t.right)
    if isinstance(t, F.Inter):
        return eval_term(model, t.left) & eval_term(model, t.right)
    if isinstance(t, F.SetCompl):
        return frame.complement(eval_term(model, t.arg))
    if isinstance(t, F.Interior):
        return frame.interior(eval_term(model, t.arg))
    if isinstance(t, F.Closure):
        return frame.closure(eval_term(model, t.arg))
    raise SemanticsError(f"not a term: {t!r}")


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


def atom_truth(model: Model, a: F.Formula) -> bool:
    if isinstance(a, F.Eq):
        return eval_term(model, a.left) == eval_term(model, a.right)
    if isinstance(a, F.Contact):
        exts = [eval_term(model, t) for t in a.terms]
        common = exts[0]
        for e in exts[1:]:
            common &= e
        return bool(common)
    if isinstance(a, F.Rcc8):
        return _rcc8_truth(model, a.rel,
                           eval_term(model, a.left), eval_term(model, a.right))
    if isinstance(a, F.Conn):
        return len(model.frame.components(eval_term(model, a.term))) <= 1
    if isinstance(a, F.ConnLe):
        return len(model.frame.components(eval_term(model, a.term))) <= a.k
    raise SemanticsError(f"not an atom: {a!r}")


def holds(model: Model, f: F.Formula, trace: bool = False) -> Verdict:
    check_family(model, f)
    record = {} if trace else None

    def go(g):
        if isinstance(g, F.ATOM_CLASSES):
            value = atom_truth(model, g)
            if record is not None:
                record[g] = value
            return value
        if isinstance(g, F.Not):
            return not go(g.arg)
        if isinstance(g, F.And):
            left = go(g.left)
            if record is None and not left:
                return False
            return go(g.right) and left
        if isinstance(g, F.Or):
            left = go(g.left)
            if record is None and left:
                return True
            return go(g.right) or left
        if isinstance(g, F.Implies):
            left = go(g.left)
            right = go(g.right)
            return (not left) or right
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
