"""Formula rewriting tests: negation normal form, relation expansion,
set-lifting, count and contact elimination, temporal translation."""

import random

import pytest

from toposat import formula as F
from toposat import transform as T
from toposat.formula import Not, parse, parse_term
from toposat.frames import Model, QuasiSawFrame, make_fence
from toposat.semantics import holds
from toposat.solver import solve

from conftest import rand_bc_formula, rand_rc_model


def test_nnf_shape():
    f = parse("!(a = 0 & !(C(a, b) | b = 0))")
    g = T.nnf(f)

    def check(h):
        if isinstance(h, Not):
            assert isinstance(h.arg, F.ATOM_CLASSES)
        elif isinstance(h, (F.And, F.Or)):
            check(h.left)
            check(h.right)
        else:
            assert isinstance(h, F.ATOM_CLASSES)

    check(g)


def test_nnf_preserves_truth(rng):
    for _ in range(50):
        model = rand_rc_model(rng, ["a", "b"])
        f = parse("!(a = 0 & !(C(a, b) | !(b != 0 -> C(a, a))))")
        assert holds(model, f).truth == holds(model, T.nnf(f)).truth


def test_rcc8_to_c_equivalence(rng):
    formulas = [parse(s) for s in
                ["EC(a, b)", "DC(a, b)", "PO(a, b)", "TPP(a, b)",
                 "NTPP(a, b)", "TPPi(a, b)", "NTPPi(a, b)", "EQ(a, b)"]]
    for _ in range(60):
        model = rand_rc_model(rng, ["a", "b"])
        for f in formulas:
            assert holds(model, f).truth == holds(model, T.rcc8_to_c(f)).truth


def test_dagger_term_shape():
    assert T.dagger_term(parse_term("r")) == parse_term("cl(int(r))")
    assert T.dagger_term(parse_term("-r")) == parse_term("cl(~cl(int(r)))")


def test_dagger_on_rc_model(rng):
    # on a model whose valuation is already regular closed, the set
    # reading of the dagger matches the topological reading
    for _ in range(40):
        model = rand_rc_model(rng, ["a", "b"])
        set_model = Model(model.frame, model.valuation, "all")
        f = parse("C(a, -b) & a != 0")
        assert holds(model, f).truth == holds(set_model, T.dagger(f)).truth


def test_eliminate_count_pos():
    f = parse("conn_le(2, x)")
    g = T.eliminate_count_pos(f)
    assert not any(isinstance(a, F.ConnLe) for a in F.atoms(g))
    with pytest.raises(T.TransformError):
        T.eliminate_count_pos(parse("conn_le(2, -x)"))


def test_eliminate_count_pos_equisat(rng):
    f = parse("conn_le(2, x) & x != 0")
    g = T.eliminate_count_pos(f)
    r1 = solve(f, "all", 4)
    r2 = solve(g, "all", 6)
    assert r1.status == "SAT" and r2.status == "SAT"


def test_relativize():
    f = parse("C(a, b) & conn(a)")
    g = T.relativize(f, "s")
    assert g == parse("C(s * a, s * b) & conn(s * a)")


def test_eliminate_contacts_removes_contacts():
    f = parse("C(a, b) & !C(a, -b) & conn(a)")
    g = T.eliminate_contacts(f)
    assert not any(isinstance(at, F.Contact) for at in F.atoms(g))
    h = T.eliminate_contacts(f, connected=True)
    assert not any(isinstance(at, F.Contact) for at in F.atoms(h))


def test_eliminate_contacts_equisat_small():
    pairs = [("C(a, b)", 8, True), ("C(a, b) & a * b = 0", 8, True),
             ("C(a, b) & a = 0", 4, False)]
    for text, bound, expect_sat in pairs:
        f = parse(text)
        g = T.eliminate_contacts(f)
        got = solve(g, "regc", bound)
        assert (got.status == "SAT") == expect_sat, text


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="every contact of one sign shares one marker, "
                          "guarded by the terms of the last one")
def test_contact_elimination_keeps_two_contacts_apart():
    # b = 0 leaves C(a, b) false, so f has no model; one marker for both
    # contacts, guarded by a and c alone, makes the rewrite satisfiable
    f = parse("C(a, b) & C(a, c) & b = 0")
    for connected, frame_class in ((False, "regc"), (True, "conregc")):
        assert solve(f, frame_class, 6).status == "UNSAT"
        g = T.eliminate_contacts(f, connected=connected)
        assert solve(g, frame_class, 1).status != "SAT"


def test_eq_normalize():
    g = T.eq_normalize(parse("a = b"), None)
    assert g == parse("a * -b + b * -a = 0")
    s = T.eq_normalize(parse("x = y v z"), "set")
    assert isinstance(s, F.Eq) and isinstance(s.right, F.Zero)
    assert F.formula_family(s) == "set"
    assert T.eq_normalize(parse("a = 0"), None) == parse("a = 0")


def test_eq_normalize_preserves_truth(rng):
    for _ in range(40):
        model = rand_rc_model(rng, ["a", "b"])
        f = parse("a = b | a + b = 1")
        g = T.eq_normalize(f, F.formula_family(f))
        assert holds(model, f).truth == holds(model, g).truth


def test_fresh_vars_avoid_existing():
    fresh = T.FreshVars(parse("u0 = 0 & u1 != 0"))
    names = {fresh.next().name for _ in range(4)}
    assert not names & {"u0", "u1"}
    assert len(names) == 4


def test_fp_translate_rejects_contact():
    with pytest.raises(T.TransformError):
        T.fp_translate(parse("C(a, b)"))


def test_fp_translate_print():
    out = T.fp_print(T.fp_translate(parse("conn(r)")))
    assert out == "!F(P((r & F((!r & F(r))))))"


def test_fp_modelcheck_matches_semantics(rng):
    for _ in range(30):
        n = rng.randint(1, 6)
        fence = make_fence(n)
        val = {v: fence.rc_from_support(frozenset(
            c for c in fence.depth0 if rng.random() < 0.5))
            for v in ("a", "b")}
        model = Model(fence, val, "fence")
        f = rand_bc_formula(rng, ["a", "b"], max_atoms=3)
        g = T.fp_translate(f)
        truth = holds(model, f).truth
        for i in range(2 * n - 1):
            assert T.fp_modelcheck(model, g, i) == truth


# 5,000 nested ! before an atom: every pass over the Boolean structure
# reads it with an explicit stack or a loop. Deep results are compared by
# their printed text, since comparing deep formulas recurses.
DEEP = 5000


@pytest.mark.parametrize("base", ["EC(a, b)", "a = 0", "a = b"])
def test_rewrites_take_a_deep_run_of_negations(base):
    f, shallow = parse("!" * DEEP + base), parse("!!" + base)
    # a rewrite of the atom under the run of ! prints as it does under two
    for rewrite in (lambda g: g, T.rcc8_to_c, T.dagger,
                    lambda g: T.eq_normalize(g, None)):
        want = "!" * (DEEP - 2) + F.print_formula(rewrite(shallow))
        assert F.print_formula(rewrite(f)) == want
    # an even number of ! cancels out
    assert F.print_formula(T.nnf(f)) == base
    assert F.print_formula(T.eliminate_contacts(f)) == F.print_formula(
        T.eliminate_contacts(parse(base)))
    assert list(F.literal_sets(f)) == list(F.literal_sets(parse(base)))
    for frame_class in ("regc", "conregc"):
        r = solve(f, frame_class)
        assert r.status == "SAT" and r.method == "forks"
        assert holds(r.certificate, f).truth
