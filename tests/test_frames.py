"""Frame topology, quasi-saw shape, and serialization tests."""

import json
import random

import pytest

from toposat.frames import (FrameError, LoadError, Model, QuasiOrderFrame,
                            QuasiSawFrame, as_quasi_saw, broom, connectify,
                            fence_cells, load_model, make_fence,
                            make_fork_frame, model_to_json, subspace_model)


def _brute_components(frame, X):
    """The pieces of X, each grown by passes over all of X until no point
    joins, listed by their least points."""
    out, left = [], set(X)
    while left:
        comp = {min(left)}
        grown = True
        while grown:
            near = {y for y in left - comp for x in comp
                    if y in frame.succ[x] or x in frame.succ[y]}
            grown = bool(near)
            comp |= near
        left -= comp
        out.append(frozenset(comp))
    return sorted(out, key=min)


def _frames_to_check(rng):
    for _ in range(60):   # random quasi-orders: cycles make clusters
        n = rng.randint(1, 9)
        points = [f"p{i}" for i in range(n)]
        edges = [(a, b) for a in points for b in points
                 if a != b and rng.random() < 0.15]
        yield QuasiOrderFrame(points, edges)
    for _ in range(30):
        teeth = [f"t{i}" for i in range(rng.randint(1, 6))]
        succ1 = {f"z{j}": set(rng.sample(teeth, rng.randint(1, len(teeth))))
                 for j in range(rng.randint(0, 4))}
        yield QuasiSawFrame(teeth, succ1, succ1)
    for n in (1, 2, 5, 12):
        yield make_fence(n)
    for ks in ([1], [3], [2, 1, 4], [3] * 8):
        yield make_fork_frame(ks)


def test_topology_matches_brute_force_definitions():
    # pred, closure, interior, components (their order too) and
    # connectedness against their definitions, point by point
    rng = random.Random(7)
    for frame in _frames_to_check(rng):
        points = sorted(frame.points)
        assert frame.pred == {p: frozenset(q for q in points
                                           if p in frame.succ[q])
                              for p in points}
        subsets = [frozenset(), frame.points] + [
            frozenset(p for p in points if rng.random() < 0.5)
            for _ in range(12)]
        for X in subsets:
            assert frame.closure(X) == {x for x in points if frame.succ[x] & X}
            assert frame.interior(X) == {x for x in X if frame.succ[x] <= X}
            assert frame.components(X) == _brute_components(frame, X)
        assert frame.is_connected() == (
            len(_brute_components(frame, frame.points)) <= 1)


def fork2():
    return QuasiSawFrame(["a", "b"], ["z"], {"z": {"a", "b"}})


def test_interior_closure_duality():
    frame = fork2()
    for X in [frozenset(), frozenset({"a"}), frozenset({"a", "z"}),
              frame.points]:
        assert frame.interior(X) == frame.complement(
            frame.closure(frame.complement(X)))


def test_closure_adds_predecessors():
    frame = fork2()
    assert frame.closure(frozenset({"a"})) == {"a", "z"}
    assert frame.interior(frozenset({"a", "z"})) == {"a"}
    assert frame.is_regular_closed(frozenset({"a", "z"}))
    assert not frame.is_regular_closed(frozenset({"z"}))


def test_components():
    saw = QuasiSawFrame(["a", "b", "c"], ["z"], {"z": {"a", "b"}})
    comps = saw.components(frozenset({"a", "b", "c", "z"}))
    assert len(comps) == 2
    assert saw.components(frozenset()) == []
    assert not saw.is_connected()


def test_rc_from_support_and_back():
    saw = QuasiSawFrame(["a", "b", "c"], ["z1", "z2"],
                        {"z1": {"a", "b"}, "z2": {"b", "c"}})
    X = saw.rc_from_support(frozenset({"a"}))
    assert X == {"a", "z1"}
    assert saw.support(X) == {"a"}
    for U in [frozenset(), frozenset({"b"}), frozenset({"a", "c"})]:
        assert saw.support(saw.rc_from_support(U)) == U


def test_regular_closed_sets_count():
    saw = QuasiSawFrame(["a", "b"], ["z"], {"z": {"a", "b"}})
    assert len(saw.regular_closed_sets()) == 4


def test_quasi_saw_validation():
    with pytest.raises(FrameError):
        QuasiSawFrame(["a"], ["a"], {"a": {"a"}})
    with pytest.raises(FrameError):
        QuasiSawFrame(["a"], ["z"], {"z": {"missing"}})


def test_as_quasi_saw():
    frame = QuasiOrderFrame(["a", "z"], [("z", "a")])
    saw = as_quasi_saw(frame)
    assert saw is not None
    assert saw.depth0 == {"a"}
    chain = QuasiOrderFrame(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert as_quasi_saw(chain) is None


def test_make_fence():
    fence = make_fence(3)
    cells = fence_cells(fence)
    kinds = [kind for _p, kind in cells]
    assert kinds == ["interval", "point", "interval", "point", "interval"]
    assert len(fence) == 5


def test_make_fork_frame():
    frame = make_fork_frame([2, 3])
    assert len(frame.depth0) == 5
    assert len(frame.depth1) == 2
    with pytest.raises(FrameError):
        make_fork_frame([0])


def test_model_rc_validation():
    saw = fork2()
    with pytest.raises(FrameError):
        Model(saw, {"r": frozenset({"z"})}, "regc")
    Model(saw, {"r": frozenset({"z"})}, "all")


def test_model_connected_validation():
    saw = QuasiSawFrame(["a", "b"], [], {})
    with pytest.raises(FrameError):
        Model(saw, {}, "conregc")


def test_broom_keeps_extension_shape():
    # a two-point final cluster flattens to one depth-0 representative
    frame = QuasiOrderFrame(["a", "b", "c"],
                            [("a", "b"), ("b", "a"), ("c", "a"), ("c", "b")])
    X = frozenset({"a", "b", "c"})
    model = Model(frame, {"r": X}, "regc")
    broomed = broom(model)
    saw = as_quasi_saw(broomed.frame)
    assert saw is not None
    assert broomed.valuation["r"] == X
    assert len(broomed.frame.components(X)) == len(frame.components(X))


def test_connectify_b_preserves_boolean_shape():
    saw = QuasiSawFrame(["a", "b"], [], {})
    model = Model(saw, {"r": frozenset({"a"})}, "regc")
    joined = connectify(model, "b")
    assert joined.frame_class == "conregc"
    assert joined.frame.is_connected()
    assert joined.valuation["r"] & saw.depth0 == {"a"}


def test_connectify_rcc8_adds_sink():
    saw = QuasiSawFrame(["a", "b"], ["z"], {"z": {"a", "b"}})
    model = Model(saw, {"r": saw.rc_from_support(frozenset({"a"}))}, "regc")
    joined = connectify(model, "rcc8")
    assert joined.frame.is_connected()
    assert joined.valuation["r"] == model.valuation["r"]


def test_subspace_model():
    saw = QuasiSawFrame(["a", "b", "c"], ["z"], {"z": {"a", "b"}})
    s = saw.rc_from_support(frozenset({"a", "b"}))
    model = Model(saw, {"s": s, "r": saw.rc_from_support(frozenset({"a"}))},
                  "regc")
    sub = subspace_model(model, "s")
    assert sub.frame.points == s
    assert sub.valuation["r"] == {"a", "z"}


def test_json_roundtrip():
    saw = QuasiSawFrame(["a", "b"], ["z"], {"z": {"a", "b"}})
    model = Model(saw, {"r": frozenset({"a", "z"})}, "regc")
    data = model_to_json(model)
    again = load_model(json.dumps(data))
    assert again.valuation == model.valuation
    assert again.frame.points == model.frame.points
    assert model_to_json(again) == data


def test_load_model_errors():
    with pytest.raises(LoadError):
        load_model("{not json")
    with pytest.raises(LoadError):
        load_model({"frame": {"points": ["a", "a"]}})
    with pytest.raises(LoadError):
        load_model({"frame": {"points": ["a"]}, "frame_class": "euclidean"})
