"""Shared random generators for frames, models, terms, and formulas."""

import random
from typing import List, Sequence

import pytest

from toposat import formula as F
from toposat.formula import (Compl, Conn, ConnLe, Contact, Eq, Not, One,
                             Prod, Sum, Var, Zero)
from toposat.frames import Model, QuasiOrderFrame, QuasiSawFrame


def rand_quasi_saw(rng: random.Random, max_teeth: int = 4,
                   max_hubs: int = 3, connected: bool = False) -> QuasiSawFrame:
    p = rng.randint(1, max_teeth)
    q = rng.randint(0, max_hubs)
    teeth = [f"t{i}" for i in range(p)]
    succ1 = {}
    for j in range(q):
        size = rng.randint(1, p)
        succ1[f"z{j}"] = set(rng.sample(teeth, size))
    saw = QuasiSawFrame(teeth, succ1.keys(), succ1)
    if connected and not saw.is_connected():
        return rand_quasi_saw(rng, max_teeth, max_hubs, connected)
    return saw


def rand_quasi_order(rng: random.Random, max_points: int = 6) -> QuasiOrderFrame:
    n = rng.randint(1, max_points)
    points = [f"p{i}" for i in range(n)]
    edges = [(a, b) for a in points for b in points
             if a != b and rng.random() < 0.3]
    return QuasiOrderFrame(points, edges)


def rand_rc_valuation(rng: random.Random, saw: QuasiSawFrame,
                      names: Sequence[str]):
    return {v: saw.rc_from_support(frozenset(
        t for t in saw.depth0 if rng.random() < 0.5)) for v in names}


def rand_rc_model(rng: random.Random, names: Sequence[str],
                  frame_class: str = "regc") -> Model:
    saw = rand_quasi_saw(rng, connected=frame_class in ("conregc", "con"))
    return Model(saw, rand_rc_valuation(rng, saw, names), frame_class)


def rand_b_term(rng: random.Random, names: Sequence[str], depth: int) -> F.Term:
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.8:
            return Var(rng.choice(list(names)))
        return Zero() if roll < 0.9 else One()
    op = rng.choice(["sum", "prod", "compl"])
    if op == "compl":
        return Compl(rand_b_term(rng, names, depth - 1))
    left = rand_b_term(rng, names, depth - 1)
    right = rand_b_term(rng, names, depth - 1)
    return Sum(left, right) if op == "sum" else Prod(left, right)


def rand_c_literal(rng: random.Random, names: Sequence[str],
                   depth: int = 2) -> F.Formula:
    if rng.random() < 0.5:
        atom = Eq(rand_b_term(rng, names, depth), Zero())
    else:
        atom = Contact((rand_b_term(rng, names, depth),
                        rand_b_term(rng, names, depth)))
    return atom if rng.random() < 0.5 else Not(atom)


def rand_c_conjunction(rng: random.Random, names: Sequence[str],
                       max_atoms: int = 3) -> F.Formula:
    return F.conj([rand_c_literal(rng, names)
                   for _ in range(rng.randint(1, max_atoms))])


def rand_contact_pattern(rng: random.Random, names: Sequence[str]) -> F.Formula:
    """A conjunction that puts each pair of variables in contact or out
    of it, makes some pairs disjoint and some variables nonzero. Its
    models often need teeth of one type in several forks."""
    lits: List[F.Formula] = []
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            contact = Contact((Var(x), Var(y)))
            lits.append(contact if rng.random() < 0.5 else Not(contact))
            if rng.random() < 0.5:
                lits.append(Eq(Prod(Var(x), Var(y)), Zero()))
    lits += [Not(Eq(Var(x), Zero())) for x in names if rng.random() < 0.5]
    return F.conj(lits)


def rand_bc_formula(rng: random.Random, names: Sequence[str],
                    max_atoms: int = 5) -> F.Formula:
    lits: List[F.Formula] = []
    for _ in range(rng.randint(1, max_atoms)):
        if rng.random() < 0.4:
            atom: F.Formula = Conn(rand_b_term(rng, names, 2))
        else:
            atom = Eq(rand_b_term(rng, names, 2), rand_b_term(rng, names, 2))
        lits.append(atom if rng.random() < 0.6 else Not(atom))
    return F.conj(lits)


# the atom kinds each conn language draws from, and those it must hold
_CONN_KINDS = {"Bc": (["eq", "conn"], ["conn"]),
               "Cc": (["eq", "c2", "conn"], ["c2", "conn"]),
               "Ccc": (["eq", "c2", "conn", "conn_le"], ["c2", "conn_le"]),
               "Cmc": (["eq", "c2", "c3", "conn"], ["c3", "conn"])}


def rand_conn_atom(rng: random.Random, names: Sequence[str],
                   kind: str) -> F.Formula:
    """An atom of one kind: eq, c2 or c3 (2- or 3-ary contact), conn or
    conn_le."""
    term = lambda: rand_b_term(rng, names, 2)
    if kind == "eq":
        return Eq(term(), term())
    if kind in ("c2", "c3"):
        return Contact(tuple(term() for _ in range(int(kind[1]))))
    return Conn(term()) if kind == "conn" else ConnLe(rng.randint(1, 2), term())


def rand_conn_formula(rng: random.Random, names: Sequence[str], tag: str,
                      max_atoms: int = 4) -> F.Formula:
    """A conjunction in the language `tag` (Bc, Cc, Ccc or Cmc) of random
    literals, some of them disjunctions of two."""
    kinds, must = _CONN_KINDS[tag]
    picked = must + [rng.choice(kinds)
                     for _ in range(rng.randint(0, max_atoms - len(must)))]
    lits = [rand_conn_atom(rng, names, kind) for kind in picked]
    lits = [a if rng.random() < 0.6 else Not(a) for a in lits]
    rng.shuffle(lits)
    if len(lits) > 1 and rng.random() < 0.3:
        lits[:2] = [F.Or(lits[0], lits[1])]
    return F.conj(lits)


@pytest.fixture
def rng():
    return random.Random(20260824)
