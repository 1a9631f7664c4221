"""Satisfiability procedure tests: fork construction, canonical frame
enumeration, bounded search verdicts, and certificate checking."""

import time

import pytest

from toposat import formula as F
from toposat.formula import Contact, Eq, Not, Var, Zero, parse
from toposat.frames import Model, QuasiSawFrame, model_to_json
from toposat.semantics import atom_truth, eval_term, holds
from toposat.solver import (SolveResult, SolverError, _Prep, _SawCtx, _Terms,
                            _ToothTypes, _admissible_types, _cheap_rc,
                            _cheap_set, _goal, _mask_atom, _relaxed,
                            canonical_saws,
                            check_certificate, fork_bound,
                            forks_decide, sat_bounded, sat_forks, solve,
                            theoretical_bound)


def test_fork_bound():
    assert fork_bound(parse("C(a, b)")) == 3
    assert fork_bound(parse("C(a, b) & a != 0")) == 5
    assert fork_bound(parse("C(a, b, c)")) == 4
    # repeated atoms count once
    assert fork_bound(parse("a != 0 & a = 0")) == 2


def test_theoretical_bound():
    assert theoretical_bound(parse("C(a, b)"), "regc") == 3
    assert theoretical_bound(parse("conn(a)"), "fence") is None
    assert theoretical_bound(parse("conn(a)"), "regc") is None
    assert theoretical_bound(parse("x ^ y = 0"), "all") is None


def test_solve_reports_the_theoretical_bound():
    # the fork bound, plus the connecting point over conregc
    for text, status in (("a = 0 & a != 0", "UNSAT"), ("EC(a, b)", "SAT")):
        f = parse(text)
        for frame_class in ("regc", "conregc"):
            r = solve(f, frame_class)
            assert r.status == status and r.method == "forks"
            assert r.theoretical_bound == theoretical_bound(f, frame_class)
    assert solve(parse("a = 0 & a != 0"), "conregc").theoretical_bound == 3


def test_fork_route_honours_the_budget():
    # 2 ** 14 literal sets, each refuted at once by 1 = 0: the whole
    # refutation takes over a second
    terms = ["b" + " * b" * k for k in range(14)]
    f = parse("C(a, c) & 1 = 0 & " + " & ".join(
        f"({t} = 0 | {t} != 0)" for t in terms))
    start = time.monotonic()
    r = solve(f, "regc", time_budget=0.1)
    assert time.monotonic() - start < 0.2
    assert r.status == "UNSAT_WITHIN_BOUND" and r.stats.get("aborted")
    assert r.bound_used == 0 and r.method == "forks"
    r = solve(f, "regc")
    assert r.status == "UNSAT" and r.method == "forks"


def test_refutation_complete_only_for_the_fork_languages(rng):
    # the smallest models, one point past the bound, exceed
    # 2 ** |subterm closure| points (2 and 4)
    cases = [("!conn_le(3, a)", "regc", 3),
             ("!conn(r1) & conn(1)", "conregc", 4)]     # corpus "two-fork"
    for text, frame_class, bound in cases:
        f = parse(text)
        r = solve(f, frame_class, bound)
        assert r.status == "UNSAT_WITHIN_BOUND" and r.completeness == "BOUNDED"
        assert r.bound_used == bound
        r = solve(f, frame_class, bound + 1)
        assert r.status == "SAT" and holds(r.certificate, f).truth
    # off the fork languages a complete refutation comes from the
    # conn-free relaxation alone, and no model may exist then
    from conftest import rand_bc_formula
    for i in range(60):
        f = rand_bc_formula(rng, ["a", "b"])
        frame_class = ("regc", "conregc")[i % 2]
        r = solve(f, frame_class, 3)
        if r.status == "UNSAT" and not forks_decide(F.classify(f), frame_class):
            assert r.method == "relaxed-forks"
            assert sat_bounded(f, frame_class, 5).status != "SAT"


def test_sat_forks_satisfiable():
    r = sat_forks(parse("C(a, b) & !C(a, -b) & a != 0"))
    assert r.status == "SAT"
    assert r.completeness == "COMPLETE" and r.method == "forks"
    assert check_certificate(r.certificate, parse("C(a, b) & !C(a, -b) & a != 0"))


def test_sat_forks_unsat():
    # external contact on both sides of the boundary is impossible
    r = sat_forks(parse("EC(a, b) & EC(a, -b)"))
    assert r.status == "UNSAT" and r.completeness == "COMPLETE"
    assert sat_forks(parse("C(a, b) & a = 0")).status == "UNSAT"


def test_sat_forks_connected_class():
    f = parse("a * b = 0 & a != 0 & b != 0")
    r = sat_forks(f, "conregc")
    assert r.status == "SAT"
    assert r.certificate.frame.is_connected()
    assert check_certificate(r.certificate, f)


def test_sat_forks_input_guards():
    with pytest.raises(SolverError):
        sat_forks(parse("conn(a)"))
    with pytest.raises(SolverError):
        sat_forks(parse("C(a, b)"), "fence")
    with pytest.raises(SolverError):
        sat_forks(parse("C(a, b)"), "conregc")


def test_canonical_saws_counts():
    counts = [sum(1 for _ in canonical_saws(n)) for n in range(1, 7)]
    assert counts == [1, 2, 3, 6, 12, 29]
    con = [sum(1 for _ in canonical_saws(n, connected=True))
           for n in range(1, 7)]
    assert con == [1, 1, 1, 2, 5, 13]
    anti = [sum(1 for _ in canonical_saws(n, hubs="antichain"))
            for n in range(1, 7)]
    assert anti == [1, 2, 3, 5, 8, 15]


def test_canonical_saws_shape():
    for n in range(1, 6):
        for frame in canonical_saws(n):
            assert len(frame) == n
            succs = [frozenset(frame.succ1[z]) for z in frame.depth1]
            assert len(set(succs)) == len(succs)
        for frame in canonical_saws(n, connected=True):
            assert frame.is_connected()


def test_sat_bounded_empty_space():
    r = sat_bounded(parse("a = 0"), "regc", 2)
    assert r.status == "SAT" and r.bound_used == 0
    assert r.certificate.frame.points == frozenset()
    # the empty space is read off the goal the search leaves check, which
    # skips the conjuncts it enforces; those all hold there
    empty = {"regc": ["1 = 0", "!C(a, a) & a = 1"],
             "conregc": ["1 = 0", "!C(a, a) & a = 1"],
             "all": ["1 = 0", "int(a) = 0 & a = 1"],
             "con": ["1 = 0", "int(a) = 0 & a = 1"]}
    for frame_class, texts in empty.items():
        for text in texts:
            r = sat_bounded(parse(text), frame_class, 2)
            assert r.status == "SAT" and r.bound_used == 0, (text, frame_class)
            assert r.certificate.frame.points == frozenset()
            assert r.stats["nodes"] == r.stats["frames"] == 0
        r = sat_bounded(parse("a != 0"), frame_class, 2)
        assert r.status == "SAT" and r.bound_used > 0, frame_class
        assert r.certificate.frame.points


def test_sat_bounded_statuses():
    sat = sat_bounded(parse("conn(a) & a != 0"), "regc", 3)
    assert sat.status == "SAT" and sat.bound_used == 1

    complete = sat_bounded(parse("a != 0 & a = 0"), "regc", 4)
    assert complete.status == "UNSAT" and complete.completeness == "COMPLETE"

    partial = sat_bounded(parse("conn_le(1, a) & !conn(a) & a != 0"), "regc", 3)
    assert partial.status == "UNSAT_WITHIN_BOUND"
    assert partial.completeness == "BOUNDED"
    assert partial.bound_used == 3


def test_sat_bounded_time_budget():
    r = sat_bounded(parse("conn(a) & !conn(a)"), "regc", 6, time_budget=0.0)
    assert r.status == "UNSAT_WITHIN_BOUND"
    assert r.stats.get("aborted") is True


def test_sat_bounded_guards():
    with pytest.raises(SolverError):
        sat_bounded(parse("C(a, b)"), "regc", -1)
    with pytest.raises(SolverError):
        sat_bounded(parse("~x = 0"), "regc", 3)
    with pytest.raises(SolverError):
        sat_bounded(parse("-a = 0"), "all", 3)
    # the power-set classes read the Boolean and S4u languages only
    for text, frame_class in (("C(a, b)", "all"), ("DC(a, b)", "con"),
                              ("C(a, b, c) & conn(a)", "con")):
        with pytest.raises(SolverError):
            solve(parse(text), frame_class, 3)


def test_solve_routes_forks():
    r = solve(parse("C(a, b) & !C(a, b)"))
    assert r.status == "UNSAT" and r.method == "forks"
    r = solve(parse("C(a, b)"))
    assert r.status == "SAT" and r.method == "forks"


def test_solve_routes_bounded():
    f = parse("conn(a) & conn(b) & !C(a, b) & a != 0 & b != 0")
    r = solve(f, "conregc", 6)
    assert r.status == "SAT" and r.method == "bounded"
    assert r.certificate.frame.is_connected()
    assert holds(r.certificate, f).truth


def test_solve_result_guards():
    with pytest.raises(SolverError):
        SolveResult("SAT")
    with pytest.raises(SolverError):
        SolveResult("UNSAT", completeness="BOUNDED")


def test_forks_agree_with_bounded(rng):
    from conftest import rand_c_conjunction
    for _ in range(60):
        f = rand_c_conjunction(rng, ["a", "b"], max_atoms=2)
        quick = sat_forks(f)
        slow = sat_bounded(f, "regc", fork_bound(f))
        assert (quick.status == "SAT") == (slow.status == "SAT")
        assert slow.status in ("SAT", "UNSAT")


def test_set_classes_read_arbitrary_sets():
    """Formulas without set operators range over arbitrary sets on the
    power-set classes too."""
    # a = {z0, z1}, two hubs over one tooth outside a
    for text in ("!conn(a)", "!conn(a) & conn(b)"):
        f = parse(text)
        r = solve(f, "con", 3)
        assert r.status == "SAT" and len(r.certificate.frame.points) == 3
        assert r.certificate.frame_class == "con"
        assert holds(r.certificate, f).truth
    # a holds two teeth of one type but not the hub between them; no
    # other connected 3-point model has a disconnected interior
    f = parse("!conn(int(a))")
    r = solve(f, "con", 3)
    assert r.status == "SAT" and holds(r.certificate, f).truth
    assert len(r.certificate.valuation["a"]) == 2


def _set_atom(rng, names):
    term = _rand_set_term(rng, names, 2)
    kind = rng.choice(["eq", "conn", "conn_le"])
    if kind == "eq":
        return Eq(term, _rand_set_term(rng, names, 2))
    return F.Conn(term) if kind == "conn" else F.ConnLe(rng.randint(1, 2), term)


def test_set_classes_find_planted_models(rng):
    """Conjunctions true in a random model over arbitrary sets on a
    quasi-saw with hubs, solved at that model's size."""
    from conftest import rand_quasi_saw
    names = ["a", "b"]
    for i in range(300):
        frame_class = ("all", "con")[i % 2]
        saw = rand_quasi_saw(rng, connected=frame_class == "con")
        while not saw.depth1:
            saw = rand_quasi_saw(rng, connected=frame_class == "con")
        valuation = {v: frozenset(x for x in saw.points if rng.random() < 0.5)
                     for v in names}
        model = Model(saw, valuation, frame_class)
        literals = []
        for _ in range(4):
            atom = _set_atom(rng, names)
            literals.append(atom if atom_truth(model, atom) else Not(atom))
        f = F.conj(literals)
        r = solve(f, frame_class, len(saw))
        assert r.status == "SAT", (F.print_formula(f), frame_class, len(saw))
        assert holds(r.certificate, f).truth


def test_forks_decide():
    assert forks_decide("C", "regc") and forks_decide("Cm", "regc")
    assert forks_decide("RCC8", "conregc") and forks_decide("B", "conregc")
    assert not forks_decide("C", "conregc")
    assert not forks_decide("Bc", "regc")
    assert not forks_decide("B", "fence") and not forks_decide("S4u", "all")


def _at_point(t, m, var_index):
    """Whether the lone point of a one-point model of type m lies in t,
    by the model checker."""
    frame = QuasiSawFrame(["x"], [], {})
    valuation = {v: frozenset(["x"] if m >> k & 1 else [])
                 for v, k in var_index.items()}
    return "x" in eval_term(Model(frame, valuation, "regc"), t)


def _bit_order_types(v, zeros, ncontacts, want, var_index):
    """Reference: every type in the search's bit order (bit 0 decided
    first, False before True), filtered by admissibility and `want`."""
    order = sorted(range(1 << v), key=lambda m: [m >> k & 1 for k in range(v)])
    return [m for m in order
            if not any(_at_point(z, m, var_index) for z in zeros)
            and not any(all(_at_point(s, m, var_index) for s in sigma)
                        for sigma in ncontacts)
            and _at_point(want, m, var_index)]


def test_tooth_types_match_admissible_filter(rng):
    from conftest import rand_b_term
    for _ in range(300):
        names = ["a", "b", "c", "d"][:rng.randint(1, 4)]
        var_index = {v: i for i, v in enumerate(names)}
        zeros = [rand_b_term(rng, names, 2) for _ in range(rng.randint(0, 2))]
        ncontacts = [(rand_b_term(rng, names, 2), rand_b_term(rng, names, 2))
                     for _ in range(rng.randint(0, 2))]
        types = _ToothTypes(_Terms(var_index), zeros, ncontacts, None)
        admissible = _admissible_types(_Terms(var_index), zeros, ncontacts, None)
        for _ in range(3):
            want = rand_b_term(rng, names, 2)
            expected = [m for m in admissible if _at_point(want, m, var_index)]
            assert list(types.of(want)) == expected
            assert expected == _bit_order_types(len(names), zeros, ncontacts,
                                                want, var_index)


def test_tooth_types_nested_iteration():
    # _find_fork iterates one term's types inside another's, or inside
    # its own, while both are still being searched
    names = ["a", "b", "c"]
    var_index = {v: i for i, v in enumerate(names)}
    types = _ToothTypes(_Terms(var_index), [], [], None)
    a, b = Var("a"), F.Sum(Var("b"), Var("c"))
    pairs = [(m, n) for m in types.of(a) for n in types.of(b)]
    again = [(m, n) for m in types.of(a) for n in types.of(a)]
    fresh = _ToothTypes(_Terms(var_index), [], [], None)
    assert pairs == [(m, n) for m in list(fresh.of(a)) for n in list(fresh.of(b))]
    assert again == [(m, n) for m in list(fresh.of(a)) for n in list(fresh.of(a))]


def test_fork_route_contact_ladder_scales():
    ladder = F.conj([Contact((Var(f"a{i}"), Var(f"b{i}"))) for i in range(1, 21)])
    start = time.monotonic()
    r = solve(ladder, "regc")
    assert time.monotonic() - start < 1.0
    assert r.status == "SAT" and r.method == "forks"


def test_fork_route_thousand_literals(rng):
    from conftest import balanced_conj, rand_b_term, rand_rc_model
    names = ["a", "b", "c", "d"]
    model = rand_rc_model(rng, names)
    literals = {}
    while len(literals) < 1001:
        if rng.random() < 0.5:
            atom = Eq(rand_b_term(rng, names, 3), Zero())
        else:
            atom = Contact((rand_b_term(rng, names, 3),
                            rand_b_term(rng, names, 3)))
        literals[atom if holds(model, atom).truth else Not(atom)] = None
    r = solve(balanced_conj(list(literals)), "regc")
    assert r.status == "SAT" and r.method == "forks"


def test_fork_route_decides_machine_formulas():
    # thousands of skeleton letters: the accepting machine's formula has
    # a model on forks, the rejecting machine's is false propositionally
    from toposat import gadgets
    accepts = solve(gadgets.gen_tm_formula(gadgets.tm_accepter(), ()), "regc")
    assert accepts.status == "SAT" and accepts.method == "forks"
    rejects = solve(gadgets.gen_tm_formula(gadgets.tm_rejecter(), ()), "regc")
    assert rejects.status == "UNSAT" and rejects.method == "forks"


def _rand_rc_formula(rng, names, depth=2):
    """Random Boolean combination of equality, contact, relation, conn
    and conn_le atoms over regular-closed terms."""
    from conftest import rand_b_term
    if depth == 0 or rng.random() < 0.3:
        kind = rng.choice(["eq", "c", "c3", "rcc8", "conn", "conn_le"])
        term = lambda: rand_b_term(rng, names, 2)
        if kind == "eq":
            return Eq(term(), term())
        if kind in ("c", "c3"):
            return Contact(tuple(term() for _ in range(2 + (kind == "c3"))))
        if kind == "rcc8":
            return F.Rcc8(rng.choice(F.RCC8_RELATIONS), term(), term())
        if kind == "conn":
            return F.Conn(term())
        return F.ConnLe(rng.randint(1, 3), term())
    op = rng.choice(["not", "and", "or", "imp"])
    if op == "not":
        return Not(_rand_rc_formula(rng, names, depth - 1))
    cls = {"and": F.And, "or": F.Or, "imp": F.Implies}[op]
    return cls(_rand_rc_formula(rng, names, depth - 1),
               _rand_rc_formula(rng, names, depth - 1))


def _rand_set_term(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice(names)) if rng.random() < 0.8 else F.One()
    op = rng.choice(["union", "inter", "compl", "int", "cl"])
    if op in ("union", "inter"):
        cls = F.Union if op == "union" else F.Inter
        return cls(_rand_set_term(rng, names, depth - 1),
                   _rand_set_term(rng, names, depth - 1))
    cls = {"compl": F.SetCompl, "int": F.Interior, "cl": F.Closure}[op]
    return cls(_rand_set_term(rng, names, depth - 1))


def _rand_set_formula(rng, names, depth=2):
    if depth == 0 or rng.random() < 0.3:
        term = _rand_set_term(rng, names, 3)
        roll = rng.random()
        if roll < 0.4:
            return Eq(term, _rand_set_term(rng, names, 3))
        return F.Conn(term) if roll < 0.7 else F.ConnLe(rng.randint(1, 3), term)
    op = rng.choice(["not", "and", "or", "imp"])
    if op == "not":
        return Not(_rand_set_formula(rng, names, depth - 1))
    cls = {"and": F.And, "or": F.Or, "imp": F.Implies}[op]
    return cls(_rand_set_formula(rng, names, depth - 1),
               _rand_set_formula(rng, names, depth - 1))


def test_rc_leaf_agrees_with_model_checker(rng):
    from conftest import rand_quasi_saw, rand_rc_valuation
    names = ["a", "b", "c"]
    truths = set()
    for _ in range(400):
        saw = rand_quasi_saw(rng)
        valuation = rand_rc_valuation(rng, saw, names)
        f = _rand_rc_formula(rng, names)
        prep = _Prep(f, *F.language(f), False, None)
        ctx = _SawCtx(saw, False)
        supports = [sum(1 << i for i, t in enumerate(ctx.teeth)
                        if t in valuation.get(v, ())) for v in prep.variables]
        truth = holds(Model(saw, valuation, "regc"), f).truth
        # the whole normalized goal: `prep.goal` skips the conjuncts the
        # search enforces, which an arbitrary valuation may break
        goal = _goal(prep.normal, _mask_atom(prep.masks))
        assert _cheap_rc(goal, supports, ctx) == truth, f
        truths.add(truth)
    assert truths == {True, False}


def test_set_leaf_agrees_with_model_checker(rng):
    from conftest import rand_quasi_saw
    names = ["a", "b"]
    truths = set()
    for _ in range(400):
        saw = rand_quasi_saw(rng)
        valuation = {v: frozenset(x for x in saw.points if rng.random() < 0.5)
                     for v in names}
        f = _rand_set_formula(rng, names)
        prep = _Prep(f, *F.language(f), True, None)
        ctx = _SawCtx(saw, True)
        points = ctx.teeth + ctx.hubs
        masks = [sum(1 << i for i, x in enumerate(points) if x in valuation[v])
                 for v in prep.variables]
        truth = holds(Model(saw, valuation, "all"), f).truth
        goal = _goal(prep.normal, _mask_atom(prep.masks))
        assert _cheap_set(goal, masks, ctx) == truth, f
        truths.add(truth)
    assert truths == {True, False}


def _leaves_agree_with_model_checker(monkeypatch, frame_class, f, max_points):
    """Run the bounded search on every frame it lists up to max_points
    points, and at every leaf it reaches compare the leaf's goal, which
    skips the top-level conjuncts the search enforces, with `holds` of
    the whole formula. The leaf answers False, so the search goes on to
    the next typing. Returns the truths seen."""
    from toposat import solver as S
    whole = frame_class in ("all", "con")
    leaf = "_cheap_set" if whole else "_cheap_rc"
    search = S._search_set if whole else S._search_rc
    real = _cheap_set if whole else _cheap_rc
    truths = set()
    prep = _Prep(f, *F.language(f), whole, None)
    for n in range(1, max_points + 1):
        for frame in S._frames_at(n, frame_class, prep):
            ctx = _SawCtx(frame, whole)
            points = ctx.teeth + ctx.hubs if whole else ctx.teeth

            def check(goal, masks, ctx, frame=frame, points=points):
                valuation = {}
                for v, mask in zip(prep.variables, masks):
                    chosen = frozenset(x for i, x in enumerate(points)
                                       if mask >> i & 1)
                    valuation[v] = (chosen if whole
                                    else frame.rc_from_support(chosen))
                truth = holds(Model(frame, valuation, frame_class), f).truth
                assert real(goal, masks, ctx) == truth, \
                    (F.print_formula(f), sorted(frame.succ1.items()), masks)
                truths.add(truth)
                return False

            monkeypatch.setattr(S, leaf, check)
            search(ctx, prep, {"nodes": 0})
    return truths


def _rand_rc_goal(rng, names):
    """Top-level equations, 2- and 3-ary forbidden contacts, relations,
    conn and conn_le atoms, and a random formula nesting all of them."""
    from conftest import rand_b_term
    term = lambda: rand_b_term(rng, names, 2)
    kinds = [lambda: Eq(term(), Zero()), lambda: Eq(term(), term()),
             lambda: Not(Contact((term(), term()))),
             lambda: Not(Contact((term(), term(), term()))),
             lambda: F.Rcc8(rng.choice(F.RCC8_RELATIONS), term(), term()),
             lambda: F.Conn(term()),
             lambda: F.ConnLe(rng.randint(1, 2), term())]
    top = [rng.choice(kinds)() for _ in range(rng.randint(2, 5))]
    return F.conj(top + [_rand_rc_formula(rng, names, 1)])


def _rand_set_goal(rng, names):
    """Top-level equations, conn and conn_le atoms over set terms, and a
    random formula nesting them."""
    top = [_set_atom(rng, names) for _ in range(rng.randint(2, 4))]
    top.append(Eq(_rand_set_term(rng, names, 2), Zero()))
    return F.conj(top + [_rand_set_formula(rng, names, 1)])


def test_rc_search_leaves_agree_with_model_checker(rng, monkeypatch):
    """At every leaf the regular-closed search reaches, the goal without
    the conjuncts it enforces agrees with the model checker."""
    truths = set()
    for i in range(100):
        frame_class = ("regc", "conregc")[i % 2]
        f = _rand_rc_goal(rng, ["a", "b", "c"][:2 + i // 2 % 2])
        truths |= _leaves_agree_with_model_checker(monkeypatch, frame_class,
                                                   f, 5)
    assert truths == {True, False}


def test_set_search_leaves_agree_with_model_checker(rng, monkeypatch):
    """The same for the power-set classes, whose hub types avoid the
    zero terms."""
    truths = set()
    for i in range(40):
        f = _rand_set_goal(rng, ["a", "b"])
        truths |= _leaves_agree_with_model_checker(
            monkeypatch, ("all", "con")[i % 2], f, 4)
    assert truths == {True, False}


def _deep_term(depth):
    """A term nested `depth` constructors deep."""
    t = Var("a")
    for i in range(depth - 1):
        t = F.Compl(t) if i % 2 else F.Sum(t, Var("b"))
    return t


def test_deep_term_on_every_route():
    t = _deep_term(300)
    fork = F.conj([Contact((t, Var("b"))), Not(Eq(t, Zero()))])
    r = solve(fork, "regc", 3)
    assert r.status == "SAT" and r.method == "forks"
    bounded = F.conj([F.Conn(t), Not(Eq(t, Zero())), Not(Contact((t, Var("c"))))])
    r = solve(bounded, "regc", 3)
    assert r.status == "SAT" and r.method == "bounded"
    r = solve(F.conj([F.Conn(t), Not(Eq(t, Zero()))]), "fence", 3)
    assert r.status == "SAT" and r.method == "bounded"


def test_time_budget_checked_inside_the_search():
    from toposat import gadgets
    f = gadgets.gen_tm_formula(gadgets.tm_accepter(), ())
    start = time.monotonic()
    r = sat_bounded(f, "conregc", 5, time_budget=1.0)
    assert time.monotonic() - start < 2.0
    assert r.status == "UNSAT_WITHIN_BOUND" and r.stats.get("aborted") is True
    assert r.bound_used < 5


def test_time_budget_clock_starts_on_entry():
    from toposat import gadgets
    f = gadgets.gen_tm_formula(gadgets.tm_accepter(), ())
    for run in (sat_bounded, solve):
        start = time.monotonic()
        r = run(f, "conregc", 5, time_budget=1.0)
        assert time.monotonic() - start - r.stats["time"] < 0.05
        assert r.stats.get("aborted") is True


# ---------------------------------------------------------------------------
# Refutation through the conn-free relaxation

def test_relaxation_reads_conn_literals_as_true():
    g = parse("(conn(a) | a = 0) & !conn_le(2, b) & C(a, b)")
    assert _relaxed(g) == parse("C(a, b)")
    assert _relaxed(parse("conn(a) & !conn(b)")) is None
    h = parse("a = 0 | C(a, b)")
    assert _relaxed(h) is h


def _same_result(r, s):
    assert (r.status, r.bound_used, r.method) == (s.status, s.bound_used, s.method)
    assert (r.stats["nodes"], r.stats["frames"]) == (s.stats["nodes"],
                                                     s.stats["frames"])
    if r.status == "SAT":
        assert model_to_json(r.certificate) == model_to_json(s.certificate)


def test_relaxed_refutations_agree_with_the_bounded_search(rng):
    from conftest import rand_conn_formula
    tags = ("Bc", "Cc", "Ccc", "Cmc")
    refuted = 0
    for i in range(300):
        tag, frame_class = tags[i % 4], ("regc", "conregc")[i // 4 % 2]
        f = rand_conn_formula(rng, ["a", "b"], tag)
        assert F.classify(f) == tag
        r = solve(f, frame_class, 4)
        if r.method == "relaxed-forks":
            assert r.status == "UNSAT" and r.completeness == "COMPLETE"
            assert sat_bounded(f, frame_class, 5).status == "UNSAT_WITHIN_BOUND"
            refuted += 1
        else:
            _same_result(r, sat_bounded(f, frame_class, 4))
    assert 30 < refuted < 270


def test_relaxation_never_refutes_a_planted_model(rng):
    from conftest import rand_conn_formula, rand_quasi_saw, rand_rc_valuation
    tags, names = ("Bc", "Cc", "Ccc", "Cmc"), ["a", "b", "c"]
    past_one_point = 0
    for i in range(300):
        tag, frame_class = tags[i % 4], ("regc", "conregc")[i // 4 % 2]
        saw = rand_quasi_saw(rng, 4, 2, connected=frame_class == "conregc")
        model = Model(saw, rand_rc_valuation(rng, saw, names), frame_class)
        # each atom of a random formula, and each variable's emptiness, as
        # the literal the model makes true
        atoms = list(F.atoms(rand_conn_formula(rng, names, tag, 6)))
        f = F.conj([a if holds(model, a).truth else Not(a) for a in
                    atoms + [Eq(Var(v), Zero()) for v in names]])
        r = solve(f, frame_class, len(saw.points))
        assert r.status == "SAT" and r.method == "bounded"
        _same_result(r, sat_bounded(f, frame_class, len(saw.points)))
        past_one_point += r.bound_used > 1
    assert past_one_point > 50      # these ran the refuter first


def test_relaxed_refutation_honours_the_budget():
    # 2 ** 16 literal sets, each refuted at once by 1 = 0 with no type
    # searched: the whole refutation takes seconds, and the budget runs
    # out inside it
    terms = ["b" + " * b" * k for k in range(16)]
    f = parse("conn(c) & C(a, c) & 1 = 0 & " + " & ".join(
        f"({t} = 0 | {t} != 0)" for t in terms))
    for budget in (0.1, 0.3):
        start = time.monotonic()
        r = solve(f, "regc", 4, time_budget=budget)
        assert time.monotonic() - start < budget + 0.1
        assert r.status == "UNSAT_WITHIN_BOUND" and r.stats.get("aborted")
        # the one-point frames are done and no two-point frame is begun
        assert r.bound_used == 1 and r.stats["frames"] == 1


# ---------------------------------------------------------------------------
# Fences: the forward sweep against a brute-force oracle

def _rand_fence_formula(rng, names, depth=2):
    """A Boolean combination of equations, 2- and 3-ary contacts, conn
    and conn_le atoms."""
    from conftest import rand_conn_atom
    if depth == 0 or rng.random() < 0.3:
        return rand_conn_atom(rng, names, rng.choice(
            ["eq", "c2", "c3", "conn", "conn_le"]))
    kind = rng.choice(["and", "or", "not"])
    if kind == "not":
        return Not(_rand_fence_formula(rng, names, depth - 1))
    left = _rand_fence_formula(rng, names, depth - 1)
    right = _rand_fence_formula(rng, names, depth - 1)
    return F.And(left, right) if kind == "and" else F.Or(left, right)


def _fence_models(names, intervals):
    """Every regular closed valuation of the names on a fence."""
    import itertools
    from toposat.frames import make_fence
    fence = make_fence(intervals)
    cells = sorted(fence.depth0)
    supports = [frozenset(x for j, x in enumerate(cells) if mask >> j & 1)
                for mask in range(1 << intervals)]
    for choice in itertools.product(supports, repeat=len(names)):
        yield Model(fence, {v: fence.rc_from_support(s)
                            for v, s in zip(names, choice)}, "fence")


def test_fence_sweep_matches_brute_force(rng):
    """solve(f, "fence", 2L - 1) is SAT exactly when a model of at most L
    intervals exists, and then its certificate has the fewest."""
    models = {(n, length): list(_fence_models(["a", "b", "c"][:n], length))
              for n in (2, 3) for length in range(1, 5)}
    outcomes = set()
    for i in range(60):
        n = 2 + i % 2
        f = _rand_fence_formula(rng, ["a", "b", "c"][:n])
        fewest = next((length for length in range(1, 5)
                       if any(holds(m, f).truth for m in models[n, length])),
                      None)
        outcomes.add(fewest is not None)
        for length in range(1, 5):
            r = solve(f, "fence", 2 * length - 1)
            text = F.print_formula(f)
            if fewest is not None and fewest <= length:
                assert r.status == "SAT", (text, length)
                assert len(r.certificate.frame.points) == 2 * fewest - 1, text
                assert holds(r.certificate, f).truth
            else:
                assert r.status == "UNSAT_WITHIN_BOUND", (text, length)
                assert r.bound_used == 2 * length - 1
    assert outcomes == {True, False}


def test_fence_type_may_repeat():
    # a touches b, c and d, which are pairwise apart: on the line a
    # needs three interval components, as in the fence d a c a b
    f = parse("EC(a, b) & EC(a, c) & EC(a, d) & DC(b, c) & DC(b, d) & DC(c, d)")
    r = solve(f, "fence", 7)
    assert r.status == "UNSAT_WITHIN_BOUND" and r.bound_used == 7
    for bound in (9, 13):
        r = solve(f, "fence", bound)
        assert r.status == "SAT" and r.bound_used == 9
        assert len(r.certificate.frame.points) == 9
        assert holds(r.certificate, f).truth


def test_fence_sweep_saturates():
    from toposat import gadgets
    corpus = {e.name: e for e in gadgets.corpus()}
    start = time.monotonic()
    for name in ("triangle-contact-fence", "four-clique-contact-fence"):
        r = solve(corpus[name].formula, "fence", 20)
        assert r.status == "UNSAT_WITHIN_BOUND" and r.bound_used == 20
        saturated = r.stats["saturated_at"]
        assert saturated % 2 == 1 and saturated < 20
        assert r.stats["frames"] == (saturated + 1) // 2
        assert "aborted" not in r.stats
    assert time.monotonic() - start < 5.0
    # a sweep that reaches its bound first records no saturation
    r = solve(corpus["four-clique-contact-fence"].formula, "fence", 5)
    assert r.stats["frames"] == 3 and "saturated_at" not in r.stats


def test_fence_sweep_honours_the_budget():
    # a is empty and nonempty, so no fence satisfies this; the run
    # counts of four terms keep the sweep from saturating for long
    f = parse("a = 0 & a != 0 & conn_le(40, b) & conn_le(40, c) & "
              "conn_le(40, d) & conn_le(40, b * c)")
    for budget in (0.0, 0.3):
        start = time.monotonic()
        r = sat_bounded(f, "fence", 999, time_budget=budget)
        assert time.monotonic() - start < budget + 0.5
        assert r.status == "UNSAT_WITHIN_BOUND" and r.stats["aborted"] is True
        assert r.bound_used == max(0, 2 * r.stats["frames"] - 3)
        assert "saturated_at" not in r.stats
    assert r.bound_used >= 3
