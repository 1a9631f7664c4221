"""Golden answers: a fixed set of solver calls, each pinned by a digest
of its whole answer.

`answers.json` maps the label of every call below to the first 16 hex
digits of a SHA-256 over the answer: status, completeness, method,
`bound_used`, theoretical bound, the stats without their "time", and
the certificate as `model_to_json` writes it (or the message of a
`SolverError`). A change to the solver that keeps its answers keeps
every digest. The calls reach every route: the fork procedure, unit
conflicts, refuted relaxations, the bounded search on all five frame
classes with its SAT, UNSAT and UNSAT_WITHIN_BOUND verdicts, the empty
space and a saturated fence sweep. No call carries a time budget, since
where a budgeted run stops depends on the clock.

Two known faults are kept out, so that the digests pin no wrong
answer: relations that read interiors (TPP, NTPP and their inverses) on
the fork route over conregc, and `sat_bounded` over regc on formulas
without conn below their fork bound, where it lists no lone teeth.

When answers change on purpose, write the file again with

    PYTHONPATH=src python tests/test_answers.py --write
"""

import functools
import hashlib
import json
import random
import sys
from pathlib import Path

from toposat import formula as F
from toposat import gadgets
from toposat.formula import Eq, Not, Var, Zero, parse
from toposat.frames import model_to_json
from toposat.solver import (SolverError, fork_bound, forks_decide, sat_bounded,
                            sat_forks, solve)

ANSWERS = Path(__file__).resolve().parent / "answers.json"

# corpus entries whose run is too long for this test
_SLOW = ("k5-incidence", "tree-run-rejecting")
_INTERIOR_RELATIONS = ("TPP", "NTPP", "TPPi", "NTPPi")


def digest(result) -> str:
    stats = {k: v for k, v in result.stats.items() if k != "time"}
    certificate = (None if result.certificate is None
                   else model_to_json(result.certificate))
    text = json.dumps([result.status, result.completeness, result.method,
                       result.bound_used, result.theoretical_bound, stats,
                       certificate], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _corpus_calls():
    """The corpus entries `toposat corpus` decides with `solve`, each at
    its own bound; a VALID law runs as its negation."""
    for entry in gadgets.corpus():
        if entry.name in _SLOW:
            continue
        if (entry.expected != "VALID" and entry.bound is None
                and not forks_decide(F.classify(entry.formula),
                                     entry.frame_class)):
            continue
        f = Not(entry.formula) if entry.expected == "VALID" else entry.formula
        yield (f"corpus/{entry.name}",
               functools.partial(solve, f, entry.frame_class, entry.bound or 8))


# one call per route that the seeded formulas may miss
_NAMED = [
    ("empty/solve-regc", solve, "conn(a) & a = 0", "regc", 3),
    ("empty/conregc", sat_bounded, "a = 0", "conregc", 2),
    ("empty/all", sat_bounded, "int(a) = 0 & a = 1", "all", 2),
    ("empty/con", sat_bounded, "1 = 0", "con", 2),
    ("fence/one", sat_bounded, "conn(a) & a = 0", "fence", 3),
    ("units/regc", solve, "conn(b) & a = 0 & a != 0", "regc", 4),
    ("units/all", solve, "conn(b) & a = 0 & !(a = 0)", "all", 4),
    ("units/fence", solve, "C(a, b) & conn(a) & !C(a, b)", "fence", 5),
    ("relaxed/regc", solve, "conn(c) & C(a, c) & 1 = 0", "regc", 4),
    ("relaxed/conregc", solve, "conn(a) & C(a, b) & b = 0", "conregc", 4),
    ("bounded-unsat/conregc", sat_bounded, "a != 0 & a = 0", "conregc", 4),
    ("bounded-unsat/rcc8", sat_bounded, "EC(a, b) & DC(a, b)", "conregc", 9),
    ("bounded-sat/conn", sat_bounded, "conn(a) & a != 0", "regc", 3),
    ("bounded-partial/conn", sat_bounded,
     "conn_le(1, a) & !conn(a) & a != 0", "regc", 3),
    ("fence/repeat", solve,
     "EC(a, b) & EC(a, c) & EC(a, d) & DC(b, c) & DC(b, d) & DC(c, d)",
     "fence", 9),
    ("fence/short", solve,
     "EC(a, b) & EC(a, c) & EC(a, d) & DC(b, c) & DC(b, d) & DC(c, d)",
     "fence", 7),
    ("forks/conregc", sat_forks, "a != 0 & b != 0 & a * b = 0", "conregc", None),
    # at its fork bound; its models need one tooth type in two forks
    ("forks-bound/regc", sat_bounded, "C(a, b) & !C(a, c) & C(b, c) & "
     "a * b = 0 & b * c = 0 & a != 0 & c != 0", "regc", 17),
]


def _named_calls():
    for label, fn, text, frame_class, bound in _NAMED:
        args = (parse(text), frame_class) + (() if bound is None else (bound,))
        yield label, functools.partial(fn, *args)


def _reads_interiors(f) -> bool:
    return any(isinstance(a, F.Rcc8) and a.rel in _INTERIOR_RELATIONS
               for a in F.atoms(f))


def _rand_b_formula(rng, names):
    """A conjunction of Boolean equations, or one of RCC8 literals that
    read no interiors between variables: the fork languages over
    conregc."""
    from conftest import rand_b_term
    rcc8 = rng.random() < 0.5
    lits = []
    for _ in range(rng.randint(1, 3)):
        if rcc8:
            atom = F.Rcc8(rng.choice(("DC", "EC", "PO", "EQ")),
                          Var(rng.choice(names)), Var(rng.choice(names)))
        else:
            atom = Eq(rand_b_term(rng, names, 2), Zero())
        lits.append(atom if rng.random() < 0.6 else Not(atom))
    return F.conj(lits)


def _seeded_calls():
    """Random formulas from the shared generators and from
    `test_solver`'s, each run on the routes that take it."""
    from conftest import rand_c_conjunction, rand_conn_formula, rand_contact_pattern
    from test_solver import _rand_rc_formula, _rand_set_formula
    rng = random.Random(20261019)
    for i in range(30):
        f = rand_c_conjunction(rng, ["a", "b", "c"])
        yield f"c/{i}/solve-regc", functools.partial(solve, f, "regc", 6)
        yield f"c/{i}/forks-regc", functools.partial(sat_forks, f, "regc")
        yield f"c/{i}/solve-conregc", functools.partial(solve, f, "conregc", 4)
        yield f"c/{i}/bounded-conregc", functools.partial(
            sat_bounded, f, "conregc", 4)
        yield f"c/{i}/bounded-regc", functools.partial(
            sat_bounded, f, "regc", fork_bound(f))
    for i in range(30):
        f = _rand_b_formula(rng, ["a", "b", "c"])
        yield f"b/{i}/forks-conregc", functools.partial(sat_forks, f, "conregc")
        yield f"b/{i}/solve-conregc", functools.partial(solve, f, "conregc", 6)
        yield f"b/{i}/bounded-conregc", functools.partial(
            sat_bounded, f, "conregc", 6)
        yield f"b/{i}/bounded-fence", functools.partial(sat_bounded, f, "fence", 7)
    tags = ("Bc", "Cc", "Ccc", "Cmc")
    for i in range(40):
        f = rand_conn_formula(rng, ["a", "b"], tags[i % 4])
        for frame_class in ("regc", "conregc"):
            yield f"conn/{i}/solve-{frame_class}", functools.partial(
                solve, f, frame_class, 4)
            yield f"conn/{i}/bounded-{frame_class}", functools.partial(
                sat_bounded, f, frame_class, 4)
        yield f"conn/{i}/solve-fence", functools.partial(solve, f, "fence", 7)
    for i in range(40):
        f = _rand_rc_formula(rng, ["a", "b"])
        tag = F.classify(f)
        for frame_class in ("regc", "conregc", "fence"):
            if (frame_class == "conregc" and forks_decide(tag, frame_class)
                    and _reads_interiors(f)):
                continue
            yield f"rc/{i}/solve-{frame_class}", functools.partial(
                solve, f, frame_class, 4)
            if frame_class != "regc" or tag.endswith("c"):
                yield f"rc/{i}/bounded-{frame_class}", functools.partial(
                    sat_bounded, f, frame_class, 4)
    for i in range(40):
        f = _rand_set_formula(rng, ["a", "b"])
        for frame_class in ("all", "con"):
            yield f"set/{i}/solve-{frame_class}", functools.partial(
                solve, f, frame_class, 3)
            yield f"set/{i}/bounded-{frame_class}", functools.partial(
                sat_bounded, f, frame_class, 3)
    for i in range(40):
        f = rand_contact_pattern(rng, ["a", "b", "c"])
        yield f"pattern/{i}/forks-regc", functools.partial(sat_forks, f, "regc")
        yield f"pattern/{i}/bounded-regc", functools.partial(
            sat_bounded, f, "regc", fork_bound(f))


@functools.lru_cache(maxsize=None)
def _answers():
    """(label, digest, result) for every call; a `SolverError` is an
    answer too, with no result."""
    got = []
    for calls in (_corpus_calls(), _named_calls(), _seeded_calls()):
        for label, call in calls:
            try:
                result = call()
            except SolverError as err:
                text = json.dumps(["SolverError", str(err)])
                got.append((label, hashlib.sha256(text.encode()).hexdigest()[:16],
                            None))
                continue
            got.append((label, digest(result), result))
    return tuple(got)


def test_answers_are_unchanged():
    want = json.loads(ANSWERS.read_text())
    got = {label: d for label, d, _ in _answers()}
    assert sorted(got) == sorted(want)
    assert [label for label in want if got[label] != want[label]] == []


def test_answers_reach_every_route():
    results = [r for _, _, r in _answers() if r is not None]
    routes = {(r.method, r.status) for r in results}
    assert {("forks", "SAT"), ("forks", "UNSAT"), ("units", "UNSAT"),
            ("relaxed-forks", "UNSAT"), ("bounded", "SAT"),
            ("bounded", "UNSAT"), ("bounded", "UNSAT_WITHIN_BOUND")} <= routes
    classes = {r.certificate.frame_class for r in results if r.status == "SAT"}
    assert classes == {"regc", "conregc", "all", "con", "fence"}
    assert any(r.status == "SAT" and not r.certificate.frame.points
               for r in results)
    assert any("saturated_at" in r.stats for r in results)
    assert not any(r.stats.get("aborted") for r in results)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    ANSWERS.write_text(json.dumps(
        {label: d for label, d, _ in _answers()}, indent=0, sort_keys=True)
        + "\n")
