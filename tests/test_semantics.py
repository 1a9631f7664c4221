"""Term evaluation and formula truth tests."""

import random

import pytest

from conftest import rand_quasi_order, rand_rc_model
from toposat import formula as F
from toposat.formula import parse, parse_term, print_formula
from toposat.frames import (FRAME_CLASSES, RC_CLASSES, Model, QuasiSawFrame,
                            make_fence)
from toposat.semantics import (SemanticsError, atom_truth, count_components,
                               empty_space_eval, eval_term, holds,
                               rcc8_relation)


def two_fork_model():
    saw = QuasiSawFrame(["a", "b", "c"], ["z1", "z2"],
                        {"z1": {"a", "b"}, "z2": {"b", "c"}})
    val = {"r1": saw.rc_from_support(frozenset({"a"})),
           "r2": saw.rc_from_support(frozenset({"b"})),
           "r3": saw.rc_from_support(frozenset({"a", "c"}))}
    return Model(saw, val, "conregc")


def test_eval_rc_operations():
    model = two_fork_model()
    assert eval_term(model, parse_term("r1 + r2")) == {"a", "b", "z1", "z2"}
    # RC product drops the shared hub: interiors of r1 and r2 are disjoint
    assert eval_term(model, parse_term("r1 * r2")) == frozenset()
    assert eval_term(model, parse_term("-r1")) == {"b", "c", "z1", "z2"}
    assert eval_term(model, parse_term("0")) == frozenset()
    assert eval_term(model, parse_term("1")) == model.frame.points


def test_eval_set_operations():
    saw = QuasiSawFrame(["a", "b"], ["z"], {"z": {"a", "b"}})
    model = Model(saw, {"x": frozenset({"a"}), "y": frozenset({"z"})}, "all")
    assert eval_term(model, parse_term("x v y")) == {"a", "z"}
    assert eval_term(model, parse_term("~x")) == {"b", "z"}
    assert eval_term(model, parse_term("cl(x)")) == {"a", "z"}
    assert eval_term(model, parse_term("int(x v y)")) == {"a"}


def test_unbound_variable():
    model = two_fork_model()
    with pytest.raises(SemanticsError):
        eval_term(model, parse_term("missing"))


def test_contact_truth():
    model = two_fork_model()
    assert atom_truth(model, parse("C(r1, r2)"))
    assert not atom_truth(model, parse("C(r1, r3 * r2)"))
    assert atom_truth(model, parse("C(r1, r2, r1 + r2)"))


def test_conn_truth():
    model = two_fork_model()
    assert atom_truth(model, parse("conn(r1)"))
    assert not atom_truth(model, parse("conn(r3)"))
    assert atom_truth(model, parse("conn_le(2, r3)"))
    assert not atom_truth(model, parse("conn_le(1, r3)"))
    assert count_components(model, parse_term("r3")) == 2


def test_holds_connectives():
    model = two_fork_model()
    assert holds(model, parse("C(r1, r2) & conn(r1)")).truth
    assert holds(model, parse("conn(r3) -> r1 = 0")).truth
    assert not holds(model, parse("!C(r1, r2)")).truth
    verdict = holds(model, parse("C(r1, r2) & r1 != 0"), trace=True)
    assert verdict.truth and len(verdict.trace) == 2


def test_family_frame_mismatch():
    model = two_fork_model()
    with pytest.raises(SemanticsError):
        holds(model, parse("~x = 0"))
    saw = QuasiSawFrame(["a"], [], {})
    set_model = Model(saw, {"r": frozenset({"a"})}, "all")
    with pytest.raises(SemanticsError):
        holds(set_model, parse("-r = 0"))


def test_rcc8_relation_partition():
    model = two_fork_model()
    assert rcc8_relation(model, parse_term("r1"), parse_term("r2")) == "EC"
    assert rcc8_relation(model, parse_term("r1"), parse_term("r1")) == "EQ"
    assert rcc8_relation(model, parse_term("r1"), parse_term("r3")) == "TPP"
    assert rcc8_relation(model, parse_term("r3"), parse_term("r1")) == "TPPi"
    with pytest.raises(SemanticsError):
        rcc8_relation(model, parse_term("0"), parse_term("r1"))


def test_rcc8_dc_po():
    saw = QuasiSawFrame(["a", "b", "c"], ["z1", "z2"],
                        {"z1": {"a", "b"}, "z2": {"b", "c"}})
    val = {"left": saw.rc_from_support(frozenset({"a", "b"})),
           "right": saw.rc_from_support(frozenset({"b", "c"})),
           "far": saw.rc_from_support(frozenset({"c"}))}
    model = Model(saw, val, "regc")
    assert rcc8_relation(model, parse_term("left"), parse_term("right")) == "PO"
    assert rcc8_relation(model, parse_term("far"),
                         parse_term("left")) in ("DC", "EC")


def test_fence_evaluation():
    fence = make_fence(3)
    r = fence.rc_from_support(frozenset({"i0", "i2"}))
    model = Model(fence, {"r": r}, "fence")
    assert not holds(model, parse("conn(r)")).truth
    assert holds(model, parse("conn(1)")).truth


def test_empty_space_eval():
    assert empty_space_eval(parse("r = 0"))
    assert not empty_space_eval(parse("r != 0"))
    assert empty_space_eval(parse("conn(r)"))
    assert empty_space_eval(parse("x ^ y = 0"))


# ---------------------------------------------------------------------------
# The memoized checker against a per-atom reference

def test_a_long_implication_chain_is_read_in_a_loop():
    # every operand is evaluated, left to right, as the trace shows
    n = 3000
    f = parse(" -> ".join(f"a{i} = 0" for i in range(n)))
    frame = QuasiSawFrame(["t"], [], {})
    for empty in (set(range(n)), set(range(n - 1)), {n - 1}, set()):
        model = Model(frame, {f"a{i}": frozenset() if i in empty else
                              frame.points for i in range(n)})
        verdict = holds(model, f, trace=True)
        assert verdict.truth == (len(empty & set(range(n - 1))) < n - 1
                                 or n - 1 in empty)
        assert [a.left.name for a in verdict.trace] == [f"a{i}" for i in range(n)]
        assert holds(model, f).truth == verdict.truth


def _reference(model, f, record):
    """`holds` as a plain recursion that evaluates each atom occurrence on
    its own through `atom_truth`, with the same short-circuits; fills
    `record` (unless None) as `holds(..., trace=True)` does."""
    if isinstance(f, F.ATOM_CLASSES):
        value = atom_truth(model, f)
        if record is not None:
            record[f] = value
        return value
    if isinstance(f, F.Not):
        return not _reference(model, f.arg, record)
    left = _reference(model, f.left, record)
    if isinstance(f, F.And):
        if record is None and not left:
            return False
        return _reference(model, f.right, record) and left
    if isinstance(f, F.Or):
        if record is None and left:
            return True
        return _reference(model, f.right, record) or left
    right = _reference(model, f.right, record)
    return (not left) or right


_OPERATORS = {"rc": ((F.Sum, F.Prod), (F.Compl,)),
              "set": ((F.Union, F.Inter), (F.SetCompl, F.Interior, F.Closure))}


def _shared_formula(rng, names, family):
    """A random formula of `family` in which terms and subformulas are
    built from earlier ones, so that equal subterms are often one object."""
    binary, unary = _OPERATORS[family]
    terms = [F.Var(n) for n in names] + [F.Zero(), F.One()]
    for _ in range(10):
        if rng.random() < 0.4:
            terms.append(rng.choice(unary)(rng.choice(terms)))
        else:
            terms.append(rng.choice(binary)(rng.choice(terms), rng.choice(terms)))
    late = lambda: rng.choice(terms[-6:])
    kinds = ["eq", "conn", "conn_le"] + (["c", "rcc8"] if family == "rc" else [])
    forms = []
    for kind in rng.choices(kinds, k=4):
        if kind == "eq":
            forms.append(F.Eq(late(), rng.choice([late(), F.Zero()])))
        elif kind == "conn":
            forms.append(F.Conn(late()))
        elif kind == "conn_le":
            forms.append(F.ConnLe(rng.randint(1, 2), late()))
        elif kind == "c":
            forms.append(F.Contact(tuple(late() for _ in range(rng.randint(2, 3)))))
        else:
            forms.append(F.Rcc8(rng.choice(F.RCC8_RELATIONS), late(), late()))
    for _ in range(6):
        op = rng.choice([F.Not, F.And, F.Or, F.Implies])
        if op is F.Not:
            forms.append(F.Not(rng.choice(forms)))
        else:
            forms.append(op(rng.choice(forms), rng.choice(forms)))
    return forms[-1]


def _rand_model(rng, names, frame_class):
    if frame_class in ("regc", "conregc"):
        return rand_rc_model(rng, names, frame_class)
    if frame_class == "fence":
        fence = make_fence(rng.randint(1, 4))
        return Model(fence, {v: fence.rc_from_support(frozenset(
            x for x in fence.depth0 if rng.random() < 0.5)) for v in names},
            "fence")
    frame = rand_quasi_order(rng)
    while frame_class == "con" and not frame.is_connected():
        frame = rand_quasi_order(rng)
    return Model(frame, {v: frozenset(x for x in frame.points
                                      if rng.random() < 0.5) for v in names},
                 frame_class)


def test_holds_agrees_with_a_per_atom_reference():
    rng = random.Random(20261019)
    names = ["a", "b", "c"]
    for frame_class in FRAME_CLASSES:
        family = "rc" if frame_class in RC_CLASSES else "set"
        truths = set()
        for _ in range(80):
            model = _rand_model(rng, names, frame_class)
            f = _shared_formula(rng, names, family)
            want = _reference(model, f, None)
            verdict = holds(model, f)
            assert verdict.truth == want and verdict.trace is None
            record = {}
            assert _reference(model, f, record) == want
            verdict = holds(model, f, trace=True)
            assert verdict.truth == want
            assert list(verdict.trace.items()) == list(record.items())
            # the same formula parsed, whose equal subterms are one object
            assert holds(model, parse(print_formula(f))).truth == want
            truths.add(want)
        assert truths == {True, False}, frame_class


class _CountingSaw(QuasiSawFrame):
    """A quasi-saw that counts the closures it is asked for."""
    closures = 0

    def closure(self, X):
        self.closures += 1
        return super().closure(X)


def test_holds_closes_each_distinct_product_and_complement_once():
    saw = _CountingSaw(["a", "b", "c"], ["z1", "z2"],
                       {"z1": {"a", "b"}, "z2": {"b", "c"}})
    model = Model(saw, {"r1": saw.rc_from_support(frozenset({"a", "b"})),
                        "r2": saw.rc_from_support(frozenset({"b"})),
                        "r3": saw.rc_from_support(frozenset({"c"}))}, "regc")
    f = parse("C(r1 * -r2, r3) & r1 * -r2 != 0 & (-(r1 * -r2) + -r3 = 0 "
              "| EC(r1 * -r2, -r3)) & conn(-(r1 * -r2)) & -r2 * -r3 = 0")
    closed = [s for t in F.terms_of(f) for s in F.subterms(t)
              if isinstance(s, (F.Prod, F.Compl))]
    distinct = {id(s) for s in closed}
    assert len(distinct) == 5 and len(closed) == 17
    saw.closures = 0
    assert holds(model, f, trace=True).truth is False
    assert saw.closures == len(distinct)
