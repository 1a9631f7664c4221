"""A check that needs no pytest, for the oldest Python `pyproject.toml`
allows, where the formula nodes' `slots=True` first appeared:

    PYTHONPATH=src python3.10 tests/smoke.py

It parses and prints every corpus entry back, deep-copies and pickles
one node of each class, and solves once on the fork route and once on
the bounded route. It prints one line and exits 0 when all of it holds.
"""

import copy
import dataclasses
import pickle
import sys

from toposat import formula as F
from toposat import gadgets
from toposat.solver import SAT, solve


def one_node_of_each_class():
    """A node of every term and formula class of `formula`."""
    a, b = F.Var("a"), F.Var("b")
    nodes = [a, F.ZERO, F.ONE, F.Sum(a, b), F.Prod(a, b), F.Compl(a),
             F.Union(a, b), F.Inter(a, b), F.SetCompl(a), F.Interior(a),
             F.Closure(a), F.Eq(a, b), F.Contact((a, b)),
             F.Rcc8("EC", a, b), F.Conn(a), F.ConnLe(2, a),
             F.Not(F.Conn(a)), F.And(F.Conn(a), F.Conn(b)),
             F.Or(F.Conn(a), F.Conn(b)), F.Implies(F.Conn(a), F.Conn(b))]
    classes = {cls for cls in vars(F).values() if isinstance(cls, type)
               and issubclass(cls, (F.Term, F.Formula))} - {F.Term, F.Formula}
    assert {type(node) for node in nodes} == classes
    return nodes


def main():
    entries = gadgets.corpus()
    for entry in entries:
        text = F.print_formula(entry.formula)
        assert F.print_formula(F.parse(text)) == text, entry.name
    nodes = one_node_of_each_class()
    for node in nodes:
        assert not hasattr(node, "__dict__"), type(node).__name__
        for twin in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert twin == node and hash(twin) == hash(node), twin
        for field in dataclasses.fields(node):
            try:
                setattr(node, field.name, None)
            except dataclasses.FrozenInstanceError:
                pass
            else:
                raise AssertionError(f"{type(node).__name__} took a field")
    forks = solve(F.parse("EC(a, b) & C(a, -b)"), "regc")
    bounded = solve(F.parse("!conn(a) & conn(a + b)"), "regc", 6)
    assert forks.status == SAT and forks.method == "forks", forks
    assert bounded.status == SAT and bounded.method != "forks", bounded
    print(f"python {sys.version.split()[0]}: {len(entries)} corpus entries "
          f"round-trip, {len(nodes)} node classes copy and pickle, "
          f"fork route {forks.status}, bounded route {bounded.status} "
          f"({bounded.method})")


if __name__ == "__main__":
    main()
