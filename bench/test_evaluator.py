"""The benchmark's evaluator agrees with `toposat.semantics.holds`.

Run with `PYTHONPATH=src python -m pytest -q bench`.
"""

import random

import evaluator as E
from toposat import formula as F
from toposat import frames
from toposat.semantics import holds

NAMES = ["a", "b", "c"]


def _random_literal(rng, kinds):
    atom = E.random_atom(F, rng, NAMES, kinds)
    return atom if rng.random() < 0.5 else F.Not(atom)


def _random_set_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return F.Var(rng.choice(NAMES))
    op = rng.choice(("union", "inter", "compl", "int", "cl"))
    if op == "compl":
        return F.SetCompl(_random_set_term(rng, depth - 1))
    if op == "int":
        return F.Interior(_random_set_term(rng, depth - 1))
    if op == "cl":
        return F.Closure(_random_set_term(rng, depth - 1))
    left, right = _random_set_term(rng, depth - 1), _random_set_term(rng, depth - 1)
    return F.Union(left, right) if op == "union" else F.Inter(left, right)


def _random_saw(rng):
    p = rng.randint(1, 4)
    return E.Saw(p, [rng.randint(1, (1 << p) - 1) for _ in range(rng.randint(0, 3))])


def test_rc_evaluator_agrees_with_holds():
    rng = random.Random(7)
    kinds = ["eq", "zero", "c", "cm", "rcc8", "conn", "conn_le"]
    for _ in range(400):
        saw = _random_saw(rng)
        val = {v: rng.randint(0, saw.full) for v in NAMES}
        model = E.to_model(F, frames, saw, val, "regc")
        ev = E.Evaluator(F, saw, val)
        for _ in range(5):
            f = F.conj([_random_literal(rng, kinds) for _ in range(rng.randint(1, 3))])
            assert ev.holds(f) == holds(model, f).truth, F.print_formula(f)


def test_set_evaluator_agrees_with_holds():
    rng = random.Random(8)
    for _ in range(400):
        saw = _random_saw(rng)
        val = {v: rng.randint(0, saw.everything) for v in NAMES}
        model = E.to_model(F, frames, saw, val, "all")
        ev = E.Evaluator(F, saw, val, "set")
        for _ in range(5):
            t1, t2 = _random_set_term(rng, 2), _random_set_term(rng, 2)
            for f in (F.Eq(t1, t2), F.Conn(t1), F.ConnLe(2, t2)):
                assert ev.holds(f) == holds(model, f).truth, F.print_formula(f)


def test_reading_a_model_back():
    rng = random.Random(9)
    for _ in range(200):
        saw = _random_saw(rng)
        val = {v: rng.randint(0, saw.full) for v in NAMES}
        model = E.to_model(F, frames, saw, val, "regc")
        f = F.conj([_random_literal(rng, ["c", "conn", "rcc8"]) for _ in range(3)])
        assert E.certificate_ok(F, model, f, "regc") == holds(model, f).truth
        assert E.certificate_ok(F, model, F.Not(f), "regc") != holds(model, f).truth


def test_planted_conjunctions_hold_and_cores_fail():
    rng = random.Random(10)
    kinds = ["eq", "c", "rcc8", "conn", "conn_le"]
    for _ in range(100):
        saw = E.random_saw(rng, rng.randint(3, 4), rng.randint(1, 2), connected=True)
        f, val = E.planted(F, rng, saw, NAMES, kinds, 4, must=["conn"])
        model = E.to_model(F, frames, saw, val, "conregc")
        assert holds(model, f).truth
        core = E.unsat_core(F, rng, NAMES)
        for _ in range(5):
            other = {v: rng.randint(0, saw.full) for v in NAMES}
            assert not E.Evaluator(F, saw, other).holds(core)
            assert not holds(E.to_model(F, frames, saw, other, "regc"), core).truth


def test_fence_shape():
    for n in range(1, 6):
        saw = E.fence_saw(n)
        assert saw.is_fence()
        model = E.to_model(F, frames, saw, {}, "fence")
        assert frames.fence_cells(model.frame)
    assert not E.Saw(3, [0b111, 0b011]).is_fence()
    assert not E.Saw(4, [0b0011, 0b0101, 0b1001]).is_fence()
