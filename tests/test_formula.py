"""Formula AST, parser, printer, and classification tests.

`parse_outcomes.json` pins what `parse` makes of 2,000 seeded texts
(`_outcome_texts`): the first 16 hex digits of a SHA-256 over the repr
of the formula, or over the type and message of the error it raises.
When parse outcomes change on purpose, write the file again with

    PYTHONPATH=src python tests/test_formula.py --write
"""

import copy
import dataclasses
import hashlib
import itertools
import json
import pickle
import random
import sys
from pathlib import Path

import pytest

from toposat import formula as F
from toposat.formula import (And, Compl, Conn, ConnLe, Contact, Eq, FormulaError,
                             Implies, Inter, Not, One, Or, ParseError, Prod,
                             SetCompl, Sum, Union, Var, Zero, conj, disj, leq,
                             neq, parse, parse_term, print_formula, print_term)


def roundtrip(text):
    return print_formula(parse(text))


def test_parse_basic_atoms():
    assert parse("r1 = 0") == Eq(Var("r1"), Zero())
    assert parse("r1 != 1") == Not(Eq(Var("r1"), One()))
    assert parse("C(r1, r2)") == Contact((Var("r1"), Var("r2")))
    assert parse("C(r1, r2, r3)") == Contact((Var("r1"), Var("r2"), Var("r3")))
    assert parse("conn(r)") == Conn(Var("r"))
    assert parse("conn_le(3, r)") == ConnLe(3, Var("r"))
    assert parse("EC(r1, r2)") == F.Rcc8("EC", Var("r1"), Var("r2"))


def test_conn_ge_is_sugar():
    assert parse("conn_ge(2, r)") == Not(ConnLe(1, Var("r")))
    with pytest.raises(ParseError):
        parse("conn_ge(1, r)")


def test_term_precedence():
    assert parse_term("r1 + r2 * r3") == Sum(Var("r1"), Prod(Var("r2"), Var("r3")))
    assert parse_term("-r1 * r2") == Prod(Compl(Var("r1")), Var("r2"))
    assert parse_term("(r1 + r2) * r3") == Prod(Sum(Var("r1"), Var("r2")), Var("r3"))


def test_set_terms():
    assert parse_term("x v y") == Union(Var("x"), Var("y"))
    assert parse_term("x ^ ~y") == Inter(Var("x"), SetCompl(Var("y")))
    assert parse_term("cl(int(x))") == F.Closure(F.Interior(Var("x")))


def test_formula_precedence():
    f = parse("a = 0 & b = 0 | c = 0 -> d = 0")
    assert isinstance(f, Implies)
    assert isinstance(f.left, Or)
    assert isinstance(f.left.left, And)


def test_leq_neq_helpers():
    assert leq(Var("a"), Var("b")) == Eq(Prod(Var("a"), Compl(Var("b"))), Zero())
    assert leq(Var("a"), Var("b"), "set") == Eq(
        Inter(Var("a"), SetCompl(Var("b"))), Zero())
    assert neq(Var("a"), Zero()) == Not(Eq(Var("a"), Zero()))
    assert parse("a <= b") == leq(Var("a"), Var("b"))
    assert parse("a <= ~b") == leq(Var("a"), SetCompl(Var("b")), "set")


def test_conj_disj():
    parts = [Eq(Var("a"), Zero()), Eq(Var("b"), Zero()), Eq(Var("c"), Zero())]
    assert conj(parts) == And(parts[0], And(parts[1], parts[2]))
    assert disj(parts) == Or(parts[0], Or(parts[1], parts[2]))
    # balanced, split at the middle; a part that is a chain is spliced in
    d = Eq(Var("d"), Zero())
    balanced = And(And(parts[0], parts[1]), And(parts[2], d))
    assert conj(parts + [d]) == balanced
    assert conj([And(parts[0], parts[1]), And(parts[2], d)]) == balanced
    assert conj([parts[0], And(parts[1], And(parts[2], d))]) == balanced
    assert conj([Or(parts[0], parts[1]), d]) == And(Or(parts[0], parts[1]), d)
    with pytest.raises(FormulaError):
        conj([])
    with pytest.raises(FormulaError):
        disj([])


def _chain_depth(f):
    """How deep And and Or nodes nest in f."""
    deepest, stack = 0, [(f, 0)]
    while stack:
        g, depth = stack.pop()
        if isinstance(g, (And, Or)):
            stack += [(g.left, depth + 1), (g.right, depth + 1)]
        deepest = max(deepest, depth)
    return deepest


@pytest.mark.parametrize("op", ["&", "|"])
def test_parsed_chain_nests_logarithmically(op):
    import math
    for n in (1, 2, 3, 5, 8, 100, 1000, 10000):
        f = parse(f" {op} ".join(f"x{i} = 0" for i in range(n)))
        assert _chain_depth(f) <= math.ceil(math.log2(n))
        assert len(F.operands(f, And if op == "&" else Or)) == n


def test_chain_groupings_parse_to_one_object():
    groupings = ["a = 0 & b = 0 & c = 0", "(a = 0 & b = 0) & c = 0",
                 "a = 0 & (b = 0 & c = 0)"]
    f = parse(groupings[0])
    for text in groupings:
        assert parse(text) == f
        assert print_formula(parse(text)) == groupings[0]
    # within one parse, the three are one object
    g = parse(" | ".join(f"({text})" for text in groupings))
    assert g.left is g.right.left is g.right.right
    assert print_formula(g) == " | ".join([groupings[0]] * 3)
    # a chain built by hand prints flat however it nests
    a, b, c = (Eq(Var(v), Zero()) for v in "abc")
    assert print_formula(Or(Or(a, b), c)) == "a = 0 | b = 0 | c = 0"
    assert print_formula(And(a, Or(b, c))) == "a = 0 & (b = 0 | c = 0)"


def _rand_chain_part(rng, depth):
    atom = rng.choice([Eq(Var("a"), Zero()), Eq(Prod(Var("a"), Var("b")), One()),
                       Contact((Var("a"), Compl(Var("b")))), Conn(Var("c")),
                       F.Rcc8("EC", Var("b"), Var("c"))])
    if depth == 0 or rng.random() < 0.3:
        return atom if rng.random() < 0.5 else Not(atom)
    kind = rng.choice(["and", "or", "imp", "not"])
    if kind == "not":
        return Not(_rand_chain_part(rng, depth - 1))
    if kind == "imp":
        return Implies(_rand_chain_part(rng, depth - 1),
                       _rand_chain_part(rng, depth - 1))
    return (conj if kind == "and" else disj)(
        [_rand_chain_part(rng, depth - 1) for _ in range(rng.randint(1, 4))])


def test_chains_print_flat_and_parse_back(rng):
    for n in range(1, 18):
        for build in (conj, disj):
            for _ in range(20):
                f = build([_rand_chain_part(rng, 3) for _ in range(n)])
                assert parse(print_formula(f)) == f, print_formula(f)


def test_keywords_not_variables():
    with pytest.raises(ParseError):
        parse("conn = 0")
    with pytest.raises(ParseError):
        parse_term("cl + 1")


def test_parse_error_positions():
    for text, where in (("a = 0 &\nb $ 0", "2:3: unexpected character '$'"),
                        ("a = 0\n\t& b # 0", "2:6: unexpected character '#'"),
                        ("a = 0 &\n  )", "2:3: expected term (found ')')"),
                        ("C(a,\n  b) &\n\n   c ^= 0",
                         "4:7: expected term (found '=')")):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == where


def test_a_numeral_that_is_no_decimal_starts_no_token():
    # '²' is a digit to str.isdigit but not to int()
    for text, col in (("conn_le(², a)", 9), ("a = ½", 5), ("x² = 0 & 1² = 0", 11)):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"1:{col}: unexpected character {text[col - 1]!r}"


def _token_positions(text, count):
    """(line, column) of each of the first `count` tokens of text, read
    off the ParseError raised at it."""
    positions = []
    for index in range(count):
        parser = F._Parser(text)

        def fail():
            raise F._Fail(index, "here", False)

        with pytest.raises(ParseError) as caught:
            parser.run(fail)
        assert str(caught.value).endswith(": here")
        positions.append((caught.value.line, caught.value.column))
    return positions


def test_tokens():
    text = "conn(x1) -> a != 0 & a <= b | conn_le(12, v_2) v !C(a, -b)"
    parser = F._Parser(text)
    assert list(zip(parser.kinds, parser.lexemes)) == [
        ("conn", "conn"), ("(", "("), ("VAR", "x1"), (")", ")"),
        ("->", "->"), ("VAR", "a"), ("!=", "!="), ("NAT", "0"), ("&", "&"),
        ("VAR", "a"), ("<=", "<="), ("VAR", "b"), ("|", "|"),
        ("conn_le", "conn_le"), ("(", "("), ("NAT", "12"), (",", ","),
        ("VAR", "v_2"), (")", ")"), ("v", "v"), ("!", "!"), ("C", "C"),
        ("(", "("), ("VAR", "a"), (",", ","), ("-", "-"), ("VAR", "b"),
        (")", ")"), ("EOF", "")]
    assert [col for _, col in _token_positions(text, 8)] == [
        1, 5, 6, 8, 10, 13, 15, 18]
    assert _token_positions(text, 29)[-1] == (1, 59)
    parser = F._Parser("a\n  = 0\n")
    assert list(zip(parser.kinds, parser.lexemes)) == [
        ("VAR", "a"), ("=", "="), ("NAT", "0"), ("EOF", "")]
    assert _token_positions("a\n  = 0\n", 4) == [(1, 1), (2, 3), (2, 5), (3, 1)]


def test_a_long_numeral_is_a_parse_error():
    # int() reads at most 4,300 digits by default
    for name in ("conn_le", "conn_ge"):
        with pytest.raises(ParseError) as caught:
            parse(f"a = 0 &\n  {name}(" + "9" * 5000 + ", a)")
        assert str(caught.value) == "2:11: numeral too long"


def test_a_parse_that_succeeds_builds_no_parse_error(monkeypatch):
    from toposat import gadgets
    built = []
    init = ParseError.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ParseError, "__init__", counted)
    texts = ["(a + b) * c = 0 & (a = 0 | (b) = 0)",
             print_formula(gadgets.gen_tiling_formula(
                 gadgets.tiles_mismatched(), 0, 1)),
             print_formula(gadgets.gen_tm_formula(gadgets.tm_accepter(), ()))]
    for text in texts:
        parse(text)
    assert built == []
    with pytest.raises(ParseError):
        parse("(a + b) * c = 0 &")
    assert len(built) == 1


def test_parse_nests_deep():
    assert parse_term("-(" * 200 + "a" + ")" * 200) is not None
    for text in ("!(" * 100 + "a = 0" + ")" * 100,
                 "(" * 120 + "a = 0" + ")" * 120,
                 "!" * 800 + "a = 0"):
        f = parse(text)
        while isinstance(f, Not):
            f = f.arg
        assert f == Eq(Var("a"), Zero())


def _nodes(f):
    """Every term and formula occurrence of f."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, F.ATOM_CLASSES):
            for t in F.terms_of_atom(g):
                yield from F.subterms(t)
        elif isinstance(g, Not):
            stack.append(g.arg)
        else:
            stack.extend((g.left, g.right))


def test_parse_shares_equal_subterms():
    from toposat import gadgets
    for text in [
        "C(a * -b, c) & (a * -b = 0 | !(a * -b = 0)) & a * -b <= -b "
        "& conn_le(300, -b) & !conn_ge(301, -b) & EC(-b, c) -> EC(-b, c)",
        "x ^ ~y <= cl(~y) | int(x ^ ~y) v cl(~y) = 0",
        print_formula(gadgets.gen_tiling_formula(gadgets.tiles_mismatched(), 0, 1)),
    ]:
        first = {}
        for node in _nodes(parse(text)):
            assert first.setdefault(node, node) is node


def test_family_errors_keep_their_order():
    # the first term, left to right, that mixes the families or differs
    # from the terms before it raises; a set term in a contact only then
    for text, message in [
        ("C(~a, b) & -a = 0", "formula mixes regular-closed and set operators"),
        ("C(~a, b) & a ^ -b = 0", "term mixes regular-closed and set operators"),
        ("C(~a, b) & a = 0", "contact predicates take regular-closed terms only"),
    ]:
        with pytest.raises(FormulaError) as caught:
            parse(text)
        assert type(caught.value) is FormulaError and str(caught.value) == message
    with pytest.raises(ParseError) as caught:
        parse("C(~a, b) &\n  (-a v b) <= c")
    assert str(caught.value) == "2:3: term mixes regular-closed and set operators"
    # parse reads a contact's own terms, classify the formula's family
    f = parse("C(a, b) & ~a = 0")
    with pytest.raises(FormulaError, match="contact predicates"):
        F.classify(f)


def test_parse_checks_the_atoms_it_read(monkeypatch):
    # parse checks families over the atoms the parser read, in the order
    # of the text, and walks no finished formula to find them again
    from toposat import gadgets
    calls = []
    walk = F.atoms

    def spied(f):
        calls.append(f)
        return walk(f)

    monkeypatch.setattr(F, "atoms", spied)
    text = print_formula(gadgets.gen_tm_formula(gadgets.tm_accepter(), ()))
    for source in (text, "(a + b) * c = 0 & (a = 0 | (b) = 0)",
                   "((a = 0)) -> !conn_ge(2, a) & EC(a, b) | a <= b"):
        f = parse(source)
        assert calls == []
    assert F.formula_family(f) == "rc" and len(calls) == 1
    # a parenthesized formula read again as a term leaves no atom behind
    parser = F._Parser("((a = 0) + b = 0) & c = 0")
    with pytest.raises(ParseError):
        parser.run(parser.parse_imp)
    assert parser.atoms == []


def test_family_purity():
    with pytest.raises(FormulaError):
        parse("C(x, ~y)")
    with pytest.raises(FormulaError):
        F.formula_family(And(Eq(Compl(Var("x")), Zero()),
                             Eq(SetCompl(Var("x")), Zero())))


def test_classify():
    assert F.classify(parse("r1 * r2 = 0")) == "B"
    assert F.classify(parse("EC(r1, r2)")) == "RCC8"
    assert F.classify(parse("EC(r1 + r2, r3)")) == "C"
    assert F.classify(parse("C(r1, r2)")) == "C"
    assert F.classify(parse("C(r1, r2, r3)")) == "Cm"
    assert F.classify(parse("C(r1, r2) & conn(r1)")) == "Cc"
    assert F.classify(parse("C(r1, r2) & conn_le(2, r1)")) == "Ccc"
    assert F.classify(parse("x v y = 1")) == "S4u"


def test_roundtrip_examples():
    for text in [
        "EC(r1, r2) & EC(r1, -r2)",
        "C(r1 + r2, r3) -> C(r1, r3) | C(r2, r3)",
        "conn(r1) & conn_le(2, r1 * -r2)",
        "!(a = 0 | b = 0)",
        "x != 0 & cl(x) <= y",
        "int(x) v ~cl(y) = 1",
    ]:
        f = parse(text)
        assert parse(print_formula(f)) == f


def test_printer_minimal_parens():
    assert print_term(parse_term("(r1 + r2) * r3")) == "(r1 + r2) * r3"
    assert print_term(parse_term("r1 + (r2 * r3)")) == "r1 + r2 * r3"
    assert print_formula(parse("!(a = 0)")) == "a != 0"


def test_variables_and_closure():
    f = parse("C(r1 * r2, -r3) & r1 = 0")
    assert F.variables(f) == {"r1", "r2", "r3"}


def _eval_skeleton(g, truth):
    """g's truth value when each atom takes the value the dict `truth`
    gives it: the brute-force oracle for `literal_sets`."""
    if isinstance(g, Not):
        return not _eval_skeleton(g.arg, truth)
    if isinstance(g, And):
        return _eval_skeleton(g.left, truth) and _eval_skeleton(g.right, truth)
    if isinstance(g, Or):
        return _eval_skeleton(g.left, truth) or _eval_skeleton(g.right, truth)
    if isinstance(g, Implies):
        return not _eval_skeleton(g.left, truth) or _eval_skeleton(g.right, truth)
    return truth[g]


def _brute_literal_sets(f):
    """Every assignment to f's distinct atoms, taken by first occurrence,
    in binary-count order with the last atom most significant, kept
    where f evaluates to true."""
    atoms = list(dict.fromkeys(F.atoms(f)))
    for mask in range(1 << len(atoms)):
        truth = {a: bool(mask >> i & 1) for i, a in enumerate(atoms)}
        if _eval_skeleton(f, truth):
            yield tuple((a, truth[a]) for a in atoms)


def test_propositional_skeleton_roundtrip():
    f = parse("a = 0 & (C(a, b) | !(b = 0))")
    sets = list(F.literal_sets(f))
    assert sets
    for literals in sets:
        assert [a for a, _ in literals] == [Eq(Var("a"), Zero()),
                                            Contact((Var("a"), Var("b"))),
                                            Eq(Var("b"), Zero())]
        assert _eval_skeleton(f, dict(literals))


def _rand_prop_formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(atoms)
    op = rng.choice(["not", "and", "or", "imp"])
    if op == "not":
        return Not(_rand_prop_formula(rng, atoms, depth - 1))
    left = _rand_prop_formula(rng, atoms, depth - 1)
    right = _rand_prop_formula(rng, atoms, depth - 1)
    return {"and": And, "or": Or, "imp": Implies}[op](left, right)


def test_literal_sets_match_brute_force(rng):
    for _ in range(400):
        atoms = [Eq(Var(f"x{i}"), Zero()) for i in range(rng.randint(1, 7))]
        f = _rand_prop_formula(rng, atoms, rng.randint(0, 6))
        assert list(F.literal_sets(f)) == list(_brute_literal_sets(f))


def test_literal_sets_share_equal_atoms():
    # two equal atoms that are distinct objects are one letter
    first, second = Eq(Var("a"), Zero()), Eq(Var("a"), Zero())
    contact = Contact((Var("a"), Var("b")))
    assert first is not second and first == second
    f = And(first, Or(second, contact))
    assert list(F.literal_sets(f)) == [((first, True), (contact, False)),
                                      ((first, True), (contact, True))]


def test_literal_sets_pairs_follow_first_occurrence():
    # b's atom comes first, under -> and !, though a sorts before it
    a, b, c = (Eq(Var(v), Zero()) for v in "abc")
    f = Implies(Not(Implies(b, Not(a))), Or(c, Not(b)))
    sets = list(F.literal_sets(f))
    assert sets == list(_brute_literal_sets(f))
    assert {tuple(atom for atom, _ in literals) for literals in sets} == {(b, a, c)}


def test_literal_sets_prune_without_recursion():
    # 2000 letters: a conjunction leaves one assignment, found by walking
    # one branch, and the search keeps no stack frame per letter
    atoms = [Eq(Var(f"x{i}"), Zero()) for i in range(2000)]
    assert list(F.literal_sets(conj(atoms))) == [
        tuple((a, True) for a in atoms)]


def test_literal_sets_of_a_deep_skeleton():
    # !(g -> b) is g & !b, so 2,500 such layers, 5,000 levels of
    # alternating ! and ->, leave the one literal set a, !b
    a, b = Eq(Var("a"), Zero()), Eq(Var("b"), Zero())
    f = a
    for _ in range(2500):
        f = Not(Implies(f, b))
    assert list(F.literal_sets(f)) == [((a, True), (b, False))]


_FOLD_ATOMS = [parse("a = 0"), parse("C(a, b)"), parse("conn(b)")]


def _rand_boolean(rng, depth):
    """A random formula over `_FOLD_ATOMS` with !, &, | and -> nested up
    to `depth` deep, some of its & and | as balanced chains."""
    roll = rng.random()
    if depth == 0 or roll < 0.15:
        return rng.choice(_FOLD_ATOMS)
    if roll < 0.4:
        return Not(_rand_boolean(rng, depth - 1))
    if roll < 0.55:
        return rng.choice([conj, disj])(
            [_rand_boolean(rng, depth - 1) for _ in range(rng.randint(1, 4))])
    cls = rng.choice([And, Or, Implies])
    return cls(_rand_boolean(rng, depth - 1), _rand_boolean(rng, depth - 1))


def _fold_reference(g, positive, atom, make, at):
    """`F.fold` written as the plain recursion it replaces."""
    if at is not None:
        value = at(g, positive)
        if value is not None:
            return value
    if isinstance(g, F.ATOM_CLASSES):
        return atom(g, positive)
    if isinstance(g, Not):
        return make(g, positive,
                    _fold_reference(g.arg, not positive, atom, make, at))
    left = _fold_reference(g.left, positive != isinstance(g, Implies),
                           atom, make, at)
    return make(g, positive, left,
                _fold_reference(g.right, positive, atom, make, at))


def test_fold_matches_a_recursive_reference(rng):
    for _ in range(300):
        f = _rand_boolean(rng, rng.randint(0, 7))
        # an identity rebuild gives back an equal formula, or f itself
        assert F.fold(f, lambda a, _: a,
                      lambda g, _, *values: type(g)(*values)) == f
        assert F.fold(f, lambda a, _: a, lambda g, _, *values: g) is f
        # every node in the same preorder with the same polarity; atoms
        # and connectives in the same postorder, given the same operands
        runs = []
        for walk in (lambda *args: F.fold(f, *args),
                     lambda *args: _fold_reference(f, True, *args)):
            seen, built = [], []

            def atom(a, positive):
                built.append((print_formula(a), positive))
                return print_formula(a) if positive else "~" + print_formula(a)

            def make(g, positive, *values):
                built.append((type(g).__name__, positive, values))
                return (type(g).__name__, positive, values)

            def at(g, positive):
                seen.append((print_formula(g), positive))
                # cut at every negatively read | and positively read !
                if isinstance(g, Or if not positive else Not):
                    return ("cut", print_formula(g), positive)
                return None

            whole = walk(atom, make, None)
            cut = walk(atom, make, at)
            runs.append((whole, cut, seen, built))
        assert runs[0] == runs[1]


def test_fold_rejects_a_foreign_node():
    keep = lambda a, _: a
    rebuild = lambda g, _, *values: type(g)(*values)
    for bad in (And(parse("a = 0"), "a = 0"), Not(Var("a")),
                Implies(None, parse("a = 0")), parse("a = 0").left):
        with pytest.raises(FormulaError, match="not a formula"):
            F.fold(bad, keep, rebuild)


def _rand_gates(rng, leaves, count):
    """A `KleeneGates` with `leaves` leaves, the two constants and `count`
    random gates over earlier ones, which often share operands; and each
    gate as an expression for `_kleene`: ("leaf", i), ("const", b),
    ("not", e), ("and", es) or ("or", es)."""
    gates = F.KleeneGates()
    made = [(("leaf", i), gates.leaf()) for i in range(leaves)]
    made += [(("const", True), gates.meet()), (("const", False), gates.join())]
    for _ in range(count):
        op = rng.choice(["not", "and", "or"])
        picks = [rng.choice(made) for _ in range(1 if op == "not" else
                                                 rng.randint(1, 3))]
        build = {"not": gates.neg, "and": gates.meet, "or": gates.join}[op]
        made.append(((op, tuple(e for e, _ in picks)),
                     build(*(k for _, k in picks))))
    return gates, made


def _kleene(e, known):
    """The Kleene value of expression e when leaf i is known[i] or, when
    absent, unknown; evaluated from scratch."""
    op = e[0]
    if op == "leaf":
        return known.get(e[1])
    if op == "const":
        return e[1]
    values = [_kleene(x, known) for x in e[1]]
    if op == "not":
        return None if values[0] is None else not values[0]
    decider = op == "or"        # the value that decides the gate alone
    if decider in values:
        return decider
    return None if None in values else not decider


def _brute_search(made, order, watched):
    """What `KleeneGates.search` must give, by brute force: the complete
    assignments, in search order, under which no watched expression is
    True, and the node count of a search that tries a value after every
    prefix whose Kleene value forces no watched expression True."""
    n = len(order)

    def forced(prefix):
        known = {order[i]: b for i, b in enumerate(prefix)}
        return any(_kleene(made[w][0], known) is True for w in watched)

    values = (False, True)
    if forced(()):
        return [], 0
    nodes = sum(not forced(prefix[:-1]) for size in range(1, n + 1)
                for prefix in itertools.product(values, repeat=size))
    return [list(a) for a in itertools.product(values, repeat=n)
            if not forced(a)], nodes


def test_kleene_search_matches_brute_force(rng):
    for _ in range(300):
        leaves = rng.randint(0, 5)
        gates, made = _rand_gates(rng, leaves, rng.randint(0, 12))
        order = rng.sample(range(leaves), leaves)
        watched = rng.sample(range(len(made)), rng.randint(0, 3))
        ticks = []
        got = [list(a) for a in gates.search(
            [made[i][1] for i in order], [made[w][1] for w in watched],
            lambda: ticks.append(1))]
        assert (got, gates.nodes) == _brute_search(made, order, watched)
        assert len(ticks) == gates.nodes


def test_kleene_searches_interleave(rng):
    """Two searches over one DAG, stepped in turn, with a gate made
    between their steps, each give what they give alone."""
    for _ in range(100):
        gates, made = _rand_gates(rng, 4, rng.randint(0, 12))
        runs = []
        for _ in range(2):
            order = [made[i][1] for i in rng.sample(range(4), 4)]
            watched = [made[w][1] for w in rng.sample(range(len(made)), 2)]
            alone = [list(a) for a in gates.search(order, watched)]
            runs.append((gates.search(order, watched), alone, []))
        while any(it is not None for it, _, _ in runs):
            for r, (it, alone, got) in enumerate(runs):
                if it is None:
                    continue
                a = next(it, None)
                if a is None:
                    runs[r] = (None, alone, got)
                    assert got == alone
                else:
                    got.append(list(a))
                # a gate over a leaf both searches assign, and its negation
                k = gates.meet(made[rng.randrange(4)][1], rng.choice(made)[1])
                gates.neg(k)


def test_nodes_are_slotted_and_frozen():
    # no node carries an instance dict; equality, hashing, immutability,
    # copying and pickling are those of a frozen dataclass
    from smoke import one_node_of_each_class
    for node in one_node_of_each_class():
        assert not hasattr(node, "__dict__"), type(node)
        for field in dataclasses.fields(node):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, field.name, getattr(node, field.name))
        for twin in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert twin == node and hash(twin) == hash(node)
            assert type(twin) is type(node) and repr(twin) == repr(node)


def test_a_long_implication_chain_prints_in_a_loop():
    # -> chains along their right spine and & and | chains from their
    # operands, however they nest; texts are compared, as == recurses
    text = " -> ".join(f"a{i} = 0" for i in range(3000))
    assert roundtrip(text) == text
    atoms = [Eq(Var(f"a{i}"), Zero()) for i in range(3000)]
    right_nested = atoms[-1]
    for a in reversed(atoms[:-1]):
        right_nested = Or(Not(a), right_nested)
    assert print_formula(right_nested) == " | ".join(
        [f"a{i} != 0" for i in range(2999)] + ["a2999 = 0"])
    assert roundtrip("(a = 0 -> b = 0) -> (c = 0 | d = 0 -> e = 0) -> "
                     "f = 0 & (g = 0 -> h = 0)") == (
        "(a = 0 -> b = 0) -> (c = 0 | d = 0 -> e = 0) -> "
        "f = 0 & (g = 0 -> h = 0)")


def test_contact_arity_guard():
    with pytest.raises(FormulaError):
        Contact((Var("a"),))
    with pytest.raises(FormulaError):
        ConnLe(0, Var("a"))


PARSE_OUTCOMES = Path(__file__).resolve().parent / "parse_outcomes.json"

_NAMES = ("a", "b", "x1", "v_2")
_TERM_OPERATORS = {"rc": ("+", "*", "-"), "set": ("v", "^", "~")}


def _rand_term_tokens(rng, family, depth):
    """The tokens of a random term of `family`, which now and then
    switches to the other family or writes a numeral other than 0 and 1."""
    if rng.random() < 0.01:
        family = "set" if family == "rc" else "rc"
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.8:
            return [rng.choice(_NAMES)]
        return [rng.choice(("0", "1") * 10 + ("2",))]
    plus, times, compl = _TERM_OPERATORS[family]
    kind = rng.randrange(5)
    if kind == 0:
        return [compl] + _rand_term_tokens(rng, family, depth - 1)
    if kind == 1 and family == "set":
        return [rng.choice(("int", "cl")), "("] + _rand_term_tokens(
            rng, family, depth - 1) + [")"]
    if kind == 1:
        return ["("] + _rand_term_tokens(rng, family, depth - 1) + [")"]
    left = _rand_term_tokens(rng, family, depth - 1)
    right = _rand_term_tokens(rng, family, depth - 1)
    return left + [plus if kind < 3 else times] + right


def _rand_atom_tokens(rng, family):
    def term():
        return _rand_term_tokens(rng, family, 2)

    kind = rng.randrange(8)
    if family == "set" and kind in (3, 4) and rng.random() < 0.9:
        kind = 5     # contacts and relations take no set terms
    if kind < 3:
        first = term()
        if rng.random() < 0.4:   # a term in parentheses starts the literal
            first = ["("] + first + [")"]
            if rng.random() < 0.3:
                first = first + [rng.choice(_TERM_OPERATORS[family][:2])] + term()
        return first + [("=", "!=", "<=")[kind]] + term()
    if kind == 3:
        args = term()
        for _ in range(rng.choice((0,) + (1,) * 8 + (2,) * 4)):
            args += [","] + term()
        return ["C", "("] + args + [")"]
    if kind == 4:
        return [rng.choice(F.RCC8_RELATIONS), "("] + term() + [","] + term() + [")"]
    if kind == 5:
        return ["conn", "("] + term() + [")"]
    name = rng.choice(("conn_le", "conn_ge"))
    k = rng.choice((0, 1, 2, 3, 4, 5) + (rng.randint(2, 400),) * 5)
    return [name, "(", str(k), ","] + term() + [")"]


def _rand_formula_tokens(rng, family, depth):
    if depth == 0 or rng.random() < 0.35:
        return _rand_atom_tokens(rng, family)
    kind = rng.randrange(5)
    if kind == 0:
        return ["!"] + _rand_formula_tokens(rng, family, depth - 1)
    if kind == 1:
        return (rng.choice((["("], ["!", "("])) +
                _rand_formula_tokens(rng, family, depth - 1) + [")"])
    return (_rand_formula_tokens(rng, family, depth - 1) +
            [rng.choice(("&", "|", "->"))] +
            _rand_formula_tokens(rng, family, depth - 1))


def _join_tokens(rng, tokens):
    """The tokens as text, mostly one blank apart, now and then a
    newline, a tab or nothing."""
    out = []
    for tok in tokens:
        out.append(tok)
        out.append(rng.choice((" ",) * 12 + ("\n", "\t", "", "\n\t  ")))
    return "".join(out)


def _corrupt(rng, tokens):
    """The text of tokens with one token dropped, duplicated or swapped
    with another, a stray character inserted, or the text truncated."""
    tokens = list(tokens)
    i = rng.randrange(len(tokens))
    kind = rng.randrange(5)
    if kind == 0:
        del tokens[i]
    elif kind == 1:
        tokens.insert(i, tokens[i])
    elif kind == 2:
        j = rng.randrange(len(tokens))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif kind == 3:
        tokens.insert(i, rng.choice("$#²½(),=!"))
    text = _join_tokens(rng, tokens)
    return text[:rng.randrange(len(text) + 1)] if kind == 4 else text


def _outcome_texts():
    """1,000 random formula texts over both term families, each followed
    by a corrupted copy."""
    rng = random.Random(20261020)
    for _ in range(1000):
        tokens = _rand_formula_tokens(rng, rng.choice(("rc", "set")), 4)
        yield _join_tokens(rng, tokens)
        yield _corrupt(rng, tokens)


def _parse_outcome(text):
    try:
        outcome = repr(parse(text))
    except Exception as e:
        outcome = f"{type(e).__name__}: {e}"
    return hashlib.sha256(outcome.encode()).hexdigest()[:16]


def test_parse_outcomes_are_unchanged():
    want = json.loads(PARSE_OUTCOMES.read_text())
    got = [_parse_outcome(text) for text in _outcome_texts()]
    assert len(got) == len(want) == 2000
    assert [i for i, d in enumerate(got) if d != want[i]] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    PARSE_OUTCOMES.write_text(json.dumps(
        [_parse_outcome(text) for text in _outcome_texts()], indent=0) + "\n")
