"""Formula AST, parser, printer, and classification tests."""

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
    with pytest.raises(FormulaError):
        conj([])


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


def test_tokens():
    tokens = F._Parser("conn(x1) -> a != 0 & a <= b | conn_le(12, v_2) v "
                       "!C(a, -b)").tokens
    assert [t[:2] for t in tokens] == [
        ("conn", "conn"), ("(", "("), ("VAR", "x1"), (")", ")"),
        ("->", "->"), ("VAR", "a"), ("!=", "!="), ("NAT", "0"), ("&", "&"),
        ("VAR", "a"), ("<=", "<="), ("VAR", "b"), ("|", "|"),
        ("conn_le", "conn_le"), ("(", "("), ("NAT", "12"), (",", ","),
        ("VAR", "v_2"), (")", ")"), ("v", "v"), ("!", "!"), ("C", "C"),
        ("(", "("), ("VAR", "a"), (",", ","), ("-", "-"), ("VAR", "b"),
        (")", ")"), ("EOF", "")]
    assert [t[3] for t in tokens[:8]] == [1, 5, 6, 8, 10, 13, 15, 18]
    assert tokens[-1] == ("EOF", "", 1, 59)
    assert F._Parser("a\n  = 0\n").tokens == [
        ("VAR", "a", 1, 1), ("=", "=", 2, 3), ("NAT", "0", 2, 5),
        ("EOF", "", 3, 1)]


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


def test_propositional_skeleton_roundtrip():
    f = parse("a = 0 & (C(a, b) | !(b = 0))")
    skeleton, table = F.propositional_skeleton(f)
    assert set(table.values()) == {Eq(Var("a"), Zero()),
                                   Contact((Var("a"), Var("b"))),
                                   Eq(Var("b"), Zero())}
    sets = list(F.literal_sets(skeleton, table))
    assert sets
    for literals in sets:
        assignment = {abs(l): l > 0 for l in literals}
        assert F.eval_prop(skeleton, assignment)


def _rand_prop_formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(atoms)
    op = rng.choice(["not", "and", "or", "imp"])
    if op == "not":
        return Not(_rand_prop_formula(rng, atoms, depth - 1))
    left = _rand_prop_formula(rng, atoms, depth - 1)
    right = _rand_prop_formula(rng, atoms, depth - 1)
    return {"and": And, "or": Or, "imp": Implies}[op](left, right)


def _brute_literal_sets(skeleton, table):
    """Every assignment in binary-count order, kept where eval_prop holds."""
    letters = sorted(table)
    for mask in range(1 << len(letters)):
        assignment = {l: bool(mask >> i & 1) for i, l in enumerate(letters)}
        if F.eval_prop(skeleton, assignment):
            yield frozenset(l if assignment[l] else -l for l in letters)


def test_literal_sets_match_brute_force(rng):
    for _ in range(400):
        atoms = [Eq(Var(f"x{i}"), Zero()) for i in range(rng.randint(1, 7))]
        f = _rand_prop_formula(rng, atoms, rng.randint(0, 6))
        skeleton, table = F.propositional_skeleton(f)
        assert (list(F.literal_sets(skeleton, table))
                == list(_brute_literal_sets(skeleton, table)))


def test_literal_sets_prune_without_recursion():
    from conftest import balanced_conj
    # 2000 letters: a conjunction leaves one assignment, found by walking
    # one branch, and the search keeps no stack frame per letter
    atoms = [Eq(Var(f"x{i}"), Zero()) for i in range(2000)]
    skeleton, table = F.propositional_skeleton(balanced_conj(atoms))
    assert list(F.literal_sets(skeleton, table)) == [frozenset(table)]


def test_contact_arity_guard():
    with pytest.raises(FormulaError):
        Contact((Var("a"),))
    with pytest.raises(FormulaError):
        ConnLe(0, Var("a"))
