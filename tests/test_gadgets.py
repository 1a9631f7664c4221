"""Machine, tree, and tiling encodings plus the bundled example corpus."""

import pytest

from toposat import formula as F
from toposat import gadgets as G
from toposat.formula import Conn, ConnLe, parse, print_formula
from toposat.gadgets import (AlternatingTM, GadgetError, MBox, TileType,
                             TuringMachine, accepting_config, atm_rejecter,
                             brute_force_tiling, computation_tree, corpus,
                             gen_atm_formula, gen_tiling_formula,
                             gen_tiling_witness, gen_tm_formula,
                             gen_tm_witness, gen_tree_witness, initial_config,
                             load_atm, load_tileset, load_tm, run_of,
                             step_config, tiles_matched_quad, tiles_mismatched,
                             tiles_uniform, tm_accepter, tm_looper,
                             tm_rejecter, tm_tile_types)
from toposat.semantics import holds
from toposat.solver import sat_bounded


def test_machine_validation():
    with pytest.raises(GadgetError):
        TuringMachine(("q0", "qY", "qH"), "q0", "qY", "qH", ("_",), "_", 2,
                      ((("q0", "_"), ("q0", "_", 0)),
                       (("q0", "_"), ("qY", "_", 0))))
    with pytest.raises(GadgetError):
        TuringMachine(("q0", "qY", "qH"), "q0", "qY", "qH", ("_",), "_", 2,
                      ((("qH", "_"), ("q0", "_", 0)),))
    with pytest.raises(GadgetError):
        TuringMachine(("q0", "qY", "qH"), "q0", "qY", "qH", ("_",), "_", 2,
                      ((("qY", "_"), ("q0", "_", 0)),))


def test_run_of_machines():
    acc = tm_accepter()
    run = run_of(acc, ())
    assert run is not None
    assert run[0] == initial_config(acc, ())
    assert run[-1] == accepting_config(acc)
    for c, c2 in zip(run, run[1:]):
        assert step_config(acc, c) == c2
    assert run_of(acc, ("a",)) is not None
    assert run_of(tm_rejecter(), ()) is None
    assert run_of(tm_looper(), (), max_steps=50) is None
    with pytest.raises(GadgetError):
        initial_config(acc, ("a", "a", "a"))


def test_tm_formula_variable_count():
    for m in (tm_accepter(), tm_rejecter(), tm_looper()):
        f = gen_tm_formula(m, ())
        tiles = tm_tile_types(m)
        assert len(F.variables(f)) == 3 + m.space * len(tiles)
        assert F.classify(f) == "C"


def test_tm_formula_builds_each_contact_product_once():
    # the contacts' products B[l] * T[k][i] come from one table, so equal
    # contact terms are one object: 3 colours x 30 tiles x 2 cells
    f = gen_tm_formula(tm_accepter(), ())
    terms = [t for a in F.atoms(f) if isinstance(a, F.Contact)
             for t in a.terms]
    assert len(terms) == 14712
    assert len(set(terms)) == len({id(t) for t in terms}) == 180


def test_tm_witness_satisfies_formula():
    m = tm_accepter()
    for word in ((), ("a",), ("a", "a")):
        f = gen_tm_formula(m, word)
        witness = gen_tm_witness(m, word, run_of(m, word))
        assert holds(witness, f).truth


def test_tm_witness_rejects_bad_runs():
    m = tm_accepter()
    run = run_of(m, ())
    with pytest.raises(GadgetError):
        gen_tm_witness(m, (), run[:-1])
    with pytest.raises(GadgetError):
        gen_tm_witness(m, (), run[1:])
    with pytest.raises(GadgetError):
        gen_tm_witness(m, (), run[:1] + run[2:])


def test_tm_witness_reads_its_columns_off_the_tile_set(monkeypatch):
    # a step whose column the tile set lacks is a GadgetError
    m = tm_accepter()
    real = G.tm_tile_types
    monkeypatch.setattr(G, "tm_tile_types", lambda m: [
        t for t in real(m) if t.left[0] != "head"])
    with pytest.raises(GadgetError, match="does not encode the step"):
        gen_tm_witness(m, (), run_of(m, ()))


def test_tm_rejecting_formula_unsat_small():
    f = gen_tm_formula(tm_rejecter(), ())
    r = sat_bounded(f, "conregc", 3)
    assert r.status == "UNSAT_WITHIN_BOUND"


def test_tm_formula_roundtrip():
    f = gen_tm_formula(tm_accepter(), ())
    assert parse(print_formula(f)) == f


def test_every_corpus_and_gadget_formula_roundtrips():
    formulas = [entry.formula for entry in corpus()]
    formulas += [gen_tm_formula(tm_accepter(), ("a",)),
                 gen_tm_formula(tm_rejecter(), ()),
                 gen_atm_formula(atm_rejecter(), ())]
    formulas += [gen_tiling_formula(tiles, 0, d)
                 for tiles in (tiles_uniform(), tiles_matched_quad(),
                               tiles_mismatched())
                 for d in (1, 2, 3)]
    for f in formulas:
        assert parse(print_formula(f)) == f


def test_tree_formula_shape():
    m = atm_rejecter()
    f = gen_atm_formula(m, ())
    conns = [a for a in F.atoms(f) if isinstance(a, Conn)]
    assert len(conns) == 2
    assert not any(isinstance(a, ConnLe) for a in F.atoms(f))
    assert F.classify(f) == "Cc"
    assert parse(print_formula(f)) == f


def test_tree_witness_satisfies_formula():
    m = atm_rejecter()
    tree = computation_tree(m, ())
    boxes = [g for g in tree.subformulas if isinstance(g, MBox)]
    witness = gen_tree_witness(tree, boxes)
    assert witness.frame.is_connected()
    # root block of 12 points, two child blocks hooked onto a root
    # tooth (11 new points each), one shared sink
    assert len(witness.frame.points) == 12 + 2 * 11 + 1
    assert holds(witness, gen_atm_formula(m, ())).truth


def test_tree_witness_marker_guard():
    tree = computation_tree(atm_rejecter(), ())
    with pytest.raises(GadgetError):
        gen_tree_witness(tree, [tree.subformulas[0]])


def test_brute_force_tiling():
    assert brute_force_tiling(tiles_uniform(), 0, 1) is not None
    assert brute_force_tiling(tiles_matched_quad(), 0, 2) is not None
    assert brute_force_tiling(tiles_mismatched(), 0, 1) is None


def test_tiling_formula_shape():
    f = gen_tiling_formula(tiles_uniform(), 0, 2)
    assert F.classify(f) == "Ccc"
    counts = sorted(a.k for a in F.atoms(f) if isinstance(a, ConnLe))
    assert counts == [8, 8]
    assert parse(print_formula(f)) == f
    with pytest.raises(GadgetError):
        gen_tiling_formula(tiles_uniform(), 5, 1)
    with pytest.raises(GadgetError):
        gen_tiling_formula(tiles_uniform(), 0, 0)


def test_tiling_witness_satisfies_formula():
    for tiles, d in ((tiles_uniform(), 1), (tiles_matched_quad(), 1)):
        tiling = brute_force_tiling(tiles, 0, d)
        witness = gen_tiling_witness(tiles, tiling, d)
        assert holds(witness, gen_tiling_formula(tiles, 0, d)).truth


def test_tiling_witness_guards():
    tiles = tiles_uniform()
    good = brute_force_tiling(tiles, 0, 1)
    with pytest.raises(GadgetError):
        gen_tiling_witness(tiles, {k: v for k, v in good.items()
                                   if k != (1, 1)}, 1)
    bad = dict(brute_force_tiling(tiles_matched_quad(), 0, 1))
    bad[(0, 0)] = bad[(1, 0)]
    with pytest.raises(GadgetError):
        gen_tiling_witness(tiles_matched_quad(), bad, 1)


def test_load_tm_roundtrip():
    m = load_tm({
        "states": ["q0", "q1", "q2", "qY", "qH"],
        "initial": "q0", "accepting": "qY", "halting": "qH",
        "alphabet": ["_", "a"], "blank": "_", "space": 2,
        "delta": [["q0", "_", "q1", "_", 1], ["q0", "a", "q1", "_", 1],
                  ["q1", "_", "q2", "_", -1], ["q1", "a", "q2", "_", -1],
                  ["q2", "_", "qY", "_", 0], ["qY", "_", "qH", "_", 0]]})
    assert m == tm_accepter()
    with pytest.raises(GadgetError):
        load_tm({"states": ["q0"]})


def test_load_atm():
    m = load_atm({
        "states": ["q0", "qY", "qN"],
        "initial": "q0", "accepting": "qY", "rejecting": "qN",
        "alphabet": ["_"], "blank": "_", "space": 1,
        "mode": {"q0": "exists"},
        "delta": [["q0", "_", "qN", "_", 0], ["q0", "_", "qN", "_", 0]]})
    assert m == atm_rejecter()
    with pytest.raises(GadgetError):
        load_atm({"states": ["q0"]})


def test_load_tileset():
    tiles, t0, d = load_tileset({
        "tiles": [{"id": "c", "left": "c", "top": "c", "right": "c",
                   "bot": "c"}],
        "anchor": "c", "d": 1})
    assert tiles == tiles_uniform() and t0 == 0 and d == 1
    with pytest.raises(GadgetError):
        load_tileset({"tiles": []})


def test_corpus_entries_well_formed():
    entries = corpus()
    names = [e.name for e in entries]
    assert len(names) == len(set(names))
    assert len(entries) >= 15
    for e in entries:
        assert e.expected in ("SAT", "UNSAT", "UNSAT_WITHIN_BOUND", "VALID")
        assert e.frame_class in ("regc", "conregc", "all", "con", "fence")


def test_corpus_witnesses_check():
    for e in corpus():
        if e.witness is not None:
            assert holds(e.witness, e.formula).truth, e.name
