"""The four workloads, built from a seed.

`build(name, seed, P, workdir)` returns the list of operations of one
round. An operation is `Op(label, run, check)`: `run()` takes one
instance to its verdict through the program and returns what the
program returned; `check(output)` returns None when the output is right
and a message when it is not. Every expected answer is known apart from
the program: planted models, laws every contact algebra obeys, the
corpus's hand-written verdicts, and facts read off the tile sets and
machines themselves.

`P` holds the program's modules (`P.F` is `toposat.formula`, then
`P.frames`, `P.semantics`, `P.solver`, `P.transform`, `P.gadgets` and
`P.cli`); nothing here imports `toposat` itself, so the runner can
import it afresh for every timed set-up.
"""

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

import evaluator as E

WORKLOADS = ("fork", "saw", "fence", "pipeline")

NAMES = ["a", "b", "c", "d", "e"]

# Fork-model shapes (teeth, hubs) the planted instances are drawn on.
REGC_SHAPES = [(2, 0), (2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]
CONNECTED_SHAPES = [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]
SAW_SHAPES = [(2, 1), (3, 1), (3, 2), (4, 2)]

# connectify("rcc8") adds a sink below every hub, which moves interiors;
# relations that read interiors are kept off the connected fork route
# (see the FOUND line in CHANGES.md).
CONNECTED_RELATIONS = ("DC", "EC", "PO", "EQ")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def build(name, seed, P, workdir) -> List[Op]:
    rng = random.Random(f"{name}:{seed}")
    return {"fork": _fork, "saw": _saw, "fence": _fence,
            "pipeline": _pipeline}[name](rng, P, workdir)


# ---------------------------------------------------------------------------
# Solver operations and their checks

SAT, UNSAT, NOT_SAT = "SAT", "UNSAT", "NOT_SAT"


def _solve_op(P, label, f, frame_class, bound, expected):
    """One `solve` call. `expected` is SAT (certificate checked twice),
    UNSAT (a complete refutation) or NOT_SAT (no model up to `bound`:
    UNSAT, or UNSAT_WITHIN_BOUND having searched the whole bound)."""
    F = P.F

    def check(result):
        if expected == SAT:
            if result.status != "SAT":
                return f"expected SAT, got {result.status}"
            cert = result.certificate
            if not E.certificate_ok(F, cert, f, frame_class):
                return "certificate fails the benchmark's evaluator"
            if not P.semantics.holds(cert, f).truth:
                return "certificate fails semantics.holds"
            return None
        if expected == UNSAT:
            return None if result.status == "UNSAT" else \
                f"expected UNSAT, got {result.status}"
        if result.status == "UNSAT":
            return None
        if result.status == "UNSAT_WITHIN_BOUND" and result.bound_used == bound:
            return None
        return f"expected no model up to {bound}, got {result.status} " \
               f"bound={result.bound_used}"

    return Op(label, lambda: P.solver.solve(f, frame_class, bound), check)


def _planted_ops(rng, P, label, count, frame_classes, shapes, kinds, atoms,
                 must=(), names=(3,), relations=None):
    """`count` conjunctions true in a random model of the given shapes;
    the bound is the model's point count, so the search must find one."""
    F = P.F
    ops = []
    for i in range(count):
        frame_class = frame_classes[i % len(frame_classes)]
        if frame_class == "fence":
            saw = E.fence_saw(shapes[i % len(shapes)])
        else:
            teeth, hubs = shapes[i % len(shapes)]
            saw = E.random_saw(rng, teeth, hubs,
                               connected=frame_class == "conregc")
        n = names[i % len(names)]
        f, _ = E.planted(F, rng, saw, NAMES[:n], kinds, atoms, must, relations)
        ops.append(_solve_op(P, f"{label}-{i}", f, frame_class,
                             saw.points(), SAT))
    return ops


def _unsat_core_ops(rng, P, label, count, frame_class, bound, atoms, conn):
    """`count` refutable conjunctions: a core false in every contact
    algebra (evaluator.unsat_core), padded with true-or-false literals
    up to `atoms` skeleton atoms, plus a conn atom when `conn`."""
    F = P.F
    ops = []
    for i in range(count):
        core = E.unsat_core(F, rng, NAMES[:3])
        # an EC atom expands to an equation and a contact
        used = 4 if isinstance(core.left, F.Rcc8) else 2
        parts = [core]
        saw = E.random_saw(rng, 3, 1)
        if atoms > used:
            parts.append(E.planted(F, rng, saw, NAMES[:4], ["eq", "zero", "c", "cm"],
                                   atoms - used)[0])
        if conn:
            parts.append(F.Conn(E.random_term(F, rng, NAMES[:3], 1)))
        ops.append(_solve_op(P, f"{label}-{i}", F.conj(parts), frame_class,
                             bound, UNSAT if frame_class == "regc" and not conn
                             else NOT_SAT))
    return ops


def _corpus(P):
    return {e.name: e for e in P.gadgets.corpus()}


def _corpus_op(P, entry, bound=None):
    """A corpus entry at its own bound: VALID laws run as solve(Not(law))."""
    F = P.F
    bound = bound or entry.bound or 8
    if entry.expected == "VALID":
        return _solve_op(P, entry.name, F.Not(entry.formula), entry.frame_class,
                         bound, UNSAT if entry.bound is None else NOT_SAT)
    expected = {"SAT": SAT, "UNSAT": UNSAT,
                "UNSAT_WITHIN_BOUND": NOT_SAT}[entry.expected]
    return _solve_op(P, entry.name, entry.formula, entry.frame_class, bound,
                     expected)


def _fork(rng, P, workdir):
    """Contact formulas without connectedness, decided by `sat_forks`."""
    F = P.F
    ops = _planted_ops(rng, P, "planted-regc", 360, ["regc"], REGC_SHAPES,
                       ["eq", "zero", "c", "cm", "rcc8"], 7, names=[3, 4, 5])
    # over connected spaces only the B and RCC8 fragments take the fork
    # route; a formula mixing them is routed to the bounded search
    ops += _planted_ops(rng, P, "planted-conregc-b", 60, ["conregc"],
                        CONNECTED_SHAPES, ["eq", "zero"], 7, names=[3, 4, 5])
    ops += _planted_ops(rng, P, "planted-conregc-rcc8", 60, ["conregc"],
                        CONNECTED_SHAPES, ["rcc8"], 7, names=[3, 4, 5],
                        relations=CONNECTED_RELATIONS)
    ops += _unsat_core_ops(rng, P, "unsat", 120, "regc", 8, atoms=10, conn=False)
    corpus = _corpus(P)
    ops += [_corpus_op(P, corpus[name]) for name in
            ("ec-both-sides", "ec-distribution", "interior-region-regc")]
    for k in range(1, 9):
        ladder = F.conj([F.Contact((F.Var(f"a{i}"), F.Var(f"b{i}")))
                         for i in range(k)])
        ops.append(_solve_op(P, f"ladder-{k}", ladder, "regc", 8, SAT))
    rng.shuffle(ops)
    return ops


def _no_tiling(tiles):
    """A 2x2 grid needs a tile whose right colour is some tile's left."""
    return not any(a.right == b.left for a in tiles for b in tiles)


def _require(condition, message):
    if not condition:
        raise RuntimeError(message)


def _never_accepts(machine):
    """No transition enters the accepting state, so no run accepts."""
    return (machine.initial != machine.accepting
            and all(out[0] != machine.accepting for _key, out in machine.delta))


def _saw(rng, P, workdir):
    """Bounded search over quasi-saws with conn/conn_le."""
    G = P.gadgets
    corpus = _corpus(P)
    ops = _planted_ops(rng, P, "planted", 1600, ["regc", "conregc"], SAW_SHAPES,
                       ["eq", "c", "rcc8", "conn", "conn_le"], 4,
                       must=["conn"])
    ops += _unsat_core_ops(rng, P, "unsat-regc", 200, "regc", 4, atoms=2, conn=True)
    ops += _unsat_core_ops(rng, P, "unsat-conregc", 200, "conregc", 4, atoms=2,
                           conn=True)
    ops += [_corpus_op(P, corpus[name]) for name in
            ("overlap-joins-components", "component-count-sum",
             "sandwich-connected", "interior-region-conregc", "two-fork",
             "triangle-contact-regc", "four-clique-contact-regc",
             "torus-rings")]
    tiles = G.tiles_mismatched()
    _require(_no_tiling(tiles), "the mismatched tile set tiles a 2x2 grid")
    tiling = G.gen_tiling_formula(tiles, 0, 1)
    ops += [_solve_op(P, f"tiling-mismatched-{b}", tiling, "regc", b, NOT_SAT)
            for b in (1, 2, 3)]
    _require(_never_accepts(G.tm_rejecter()), "the rejecting machine can accept")
    ops.append(_corpus_op(P, corpus["machine-run-rejecting"]))
    rng.shuffle(ops)
    return ops


def _fence(rng, P, workdir):
    """Refutations and planted models over fences (the real line)."""
    corpus = _corpus(P)
    ops = _planted_ops(rng, P, "planted", 1600, ["fence"], [2, 3, 4, 5],
                       ["eq", "c", "rcc8", "conn", "conn_le"], 4,
                       must=["conn"])
    ops += _unsat_core_ops(rng, P, "unsat", 400, "fence", 5, atoms=2, conn=True)
    for name, top in (("triangle-contact-fence", 13),
                      ("four-clique-contact-fence", 13)):
        for b in range(1, top + 1, 2):
            ops.append(_corpus_op(P, corpus[name], b))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Pipeline: generate -> check chains and translations through the CLI

def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


class _Seen:
    """Outputs already checked: a repeated output needs no second check."""

    def __init__(self):
        self.ok = set()

    def check(self, key, fn):
        if key in self.ok:
            return None
        problem = fn()
        if problem is None:
            self.ok.add(key)
        return problem


def _chain_op(P, seen, label, workdir, kind, spec, word, formula, frame_class):
    """`toposat generate KIND --witness` then `toposat check` on its files."""
    F = P.F
    spec_path = os.path.join(workdir, f"{label}.spec.json")
    _write(spec_path, json.dumps(spec))
    prefix = os.path.join(workdir, label)
    log, out = prefix + ".log", prefix + ".out"
    generate = ["generate", kind, "--spec", spec_path, "--out", prefix,
                "--witness", "--output", log]
    if word:
        generate += ["--word", word]
    check_argv = ["check", prefix + ".formula", "--model",
                  prefix + ".model.json", "--output", out]

    def run():
        return P.cli.main(generate), P.cli.main(check_argv)

    def verify():
        text = _read(prefix + ".formula")
        if F.parse(text) != formula:
            return "parse(print_formula(f)) != f"
        model = P.frames.load_model(_read(prefix + ".model.json"))
        if not E.certificate_ok(F, model, formula, frame_class):
            return "witness fails the benchmark's evaluator"
        return None

    def check(codes):
        if codes != (0, 0):
            return f"exit codes {codes}"
        if _read(out) != "TRUE\n":
            return "check did not print TRUE"
        key = (label, _read(prefix + ".formula"), _read(prefix + ".model.json"))
        return seen.check(key, verify)

    return Op(label, run, check)


def _nnf_shape(F, f, positive=True):
    """Negation only on atoms, no implications."""
    if isinstance(f, F.ATOM_CLASSES):
        return True
    if isinstance(f, F.Not):
        return isinstance(f.arg, F.ATOM_CLASSES)
    if isinstance(f, (F.And, F.Or)):
        return _nnf_shape(F, f.left) and _nnf_shape(F, f.right)
    return False


def _translate_op(P, seen, label, workdir, target, formula, model):
    """`toposat translate --to TARGET`; the output must parse and keep the
    property the target promises, judged on `model` (a model of the
    input's frame class, or None)."""
    F = P.F
    path = os.path.join(workdir, f"{label}.formula")
    _write(path, F.print_formula(formula) + "\n")
    out = os.path.join(workdir, f"{label}.{target}")
    argv = ["translate", path, "--to", target, "--output", out]
    truth = None
    if model is not None:
        truth = P.semantics.holds(model, formula).truth
        read = E.from_model(F, model)
        if read is None or E.Evaluator(F, *read).holds(formula) != truth:
            raise RuntimeError(f"{label}: the evaluator disagrees on the input")

    def verify(text):
        if target == "fp":
            return None if "F(" in text and "P(" in text else "no temporal operators"
        g = F.parse(text)
        atoms = list(F.atoms(g))
        if target in ("no-contact", "no-contact-connected"):
            return "contact left" if any(isinstance(a, F.Contact) for a in atoms) \
                else None
        if target == "dagger":
            if F.formula_family(g) not in ("set", None):
                return "not a set formula"
            lifted = P.frames.Model(model.frame, model.valuation,
                                    {"regc": "all", "conregc": "con"}[model.frame_class])
            saw, val, _ = E.from_model(F, lifted)
            if E.Evaluator(F, saw, val, "set").holds(g) != truth:
                return "dagger changed the truth value"
            return None
        if target == "nnf" and not _nnf_shape(F, g):
            return "not in negation normal form"
        if target == "rcc8" and any(isinstance(a, F.Rcc8) for a in atoms):
            return "relation atom left"
        if E.Evaluator(F, *E.from_model(F, model)).holds(g) != truth:
            return "translation changed the truth value (evaluator)"
        if P.semantics.holds(model, g).truth != truth:
            return "translation changed the truth value (semantics.holds)"
        return None

    def check(code):
        if code != 0:
            return f"exit code {code}"
        text = _read(out)
        return seen.check((label, text), lambda: verify(text))

    return Op(label, lambda: P.cli.main(argv), check)


def _tile_spec(rng, d):
    """A 2x2-periodic tile set with seeded colour names, tile order and
    anchor; any such set tiles every 2^d x 2^d grid."""
    h0, h1, v0, v1 = (f"k{n}" for n in rng.sample(range(100), 4))
    h, v = [h0, h1], [v0, v1]
    tiles = [{"left": h[x], "right": h[1 - x], "bot": v[y], "top": v[1 - y]}
             for x in (0, 1) for y in (0, 1)]
    rng.shuffle(tiles)
    for i, t in enumerate(tiles):
        t["id"] = f"tile{i}"
    return {"tiles": tiles, "anchor": rng.choice(tiles)["id"], "d": d}


def _tm_spec(m):
    return {"states": list(m.states), "initial": m.initial,
            "accepting": m.accepting, "halting": m.halting,
            "alphabet": list(m.alphabet), "blank": m.blank, "space": m.space,
            "delta": [[q, a, q2, b, d] for (q, a), (q2, b, d) in m.delta]}


def _atm_spec(m):
    return {"states": list(m.states), "initial": m.initial,
            "accepting": m.accepting, "rejecting": m.rejecting,
            "alphabet": list(m.alphabet), "blank": m.blank, "space": m.space,
            "mode": dict(m.mode),
            "delta": [[q, a, q2, b, d] for (q, a), pair in m.delta
                      for (q2, b, d) in pair]}


FLAT_CONJUNCTS = 1200


def _flat_check_op(P, workdir):
    """`toposat check` on a flat conjunction of 1200 literals, each true on
    the model. `parse` builds a left-nested And and the recursive walkers
    raise RecursionError from about 1000 conjuncts up, which escapes
    `cli.main`; this operation fails until that is mended. Its input does
    not depend on the seed."""
    F = P.F
    rng = random.Random("flat-conjunction")
    saw = E.random_saw(rng, 3, 2)
    names = NAMES[:3]
    val = E.random_supports(rng, saw, names)
    ev = E.Evaluator(F, saw, val)
    literals = []
    while len(literals) < FLAT_CONJUNCTS:
        atom = E.random_atom(F, rng, names, ["eq", "c", "rcc8"])
        literals.append(atom if ev.holds(atom) else F.Not(atom))
    path = os.path.join(workdir, "flat.formula")
    _write(path, " & ".join(F.print_formula(l) for l in literals) + "\n")
    model_path = os.path.join(workdir, "flat.model.json")
    model = E.to_model(F, P.frames, saw, val, "regc")
    _write(model_path, json.dumps(P.frames.model_to_json(model)))
    out = os.path.join(workdir, "flat.out")
    argv = ["check", path, "--model", model_path, "--output", out]

    def check(code):
        if code != 0 or _read(out) != "TRUE\n":
            return f"exit code {code}, expected TRUE"
        return None

    return Op("flat-conjunction-check", lambda: P.cli.main(argv), check)


def _pipeline(rng, P, workdir):
    """generate -> check with no search, and the translate targets."""
    F, G = P.F, P.gadgets
    seen = _Seen()
    ops = []
    for i in range(6):
        for d in (1, 2, 3):
            spec = _tile_spec(rng, d)
            tiles, anchor, _ = G.load_tileset(spec)
            ops.append(_chain_op(P, seen, f"tiling-{i}-d{d}", workdir, "tiling",
                                 spec, "", G.gen_tiling_formula(tiles, anchor, d),
                                 "regc"))
    word = rng.choice(["", "a", "aa", "a_", "_a"])
    machine = G.tm_accepter()
    ops.append(_chain_op(P, seen, "tm", workdir, "tm", _tm_spec(machine), word,
                         G.gen_tm_formula(machine, tuple(word)), "fence"))
    atm = G.atm_rejecter()
    ops.append(_chain_op(P, seen, "atm", workdir, "atm", _atm_spec(atm), "",
                         G.gen_atm_formula(atm, ()), "conregc"))

    corpus = _corpus(P)
    for name in ("interior-region-regc", "two-fork", "triangle-contact-regc",
                 "four-clique-contact-regc", "k5-incidence",
                 "grid-tiling-uniform", "tree-run-rejecting"):
        entry = corpus[name]
        for target in ("nnf", "rcc8", "dagger", "no-contact",
                       "no-contact-connected"):
            ops.append(_translate_op(P, seen, f"{name}.{target}", workdir,
                                     target, entry.formula, entry.witness))
    for name in ("two-fork", "overlap-joins-components"):
        ops.append(_translate_op(P, seen, f"{name}.fp", workdir, "fp",
                                 corpus[name].formula, None))

    for i in range(50):
        teeth, hubs = SAW_SHAPES[i % len(SAW_SHAPES)]
        saw = E.random_saw(rng, teeth, hubs)
        names = NAMES[:4]
        val = E.random_supports(rng, saw, names)
        f = _random_formula(F, rng, names)
        model = E.to_model(F, P.frames, saw, val, "regc")
        for target in ("nnf", "rcc8"):
            ops.append(_translate_op(P, seen, f"random-{i}.{target}", workdir,
                                     target, f, model))
    ops.append(_flat_check_op(P, workdir))
    rng.shuffle(ops)
    return ops


def _random_formula(F, rng, names, depth=3):
    """Random Boolean combination of contact, relation and conn atoms."""
    if depth == 0 or rng.random() < 0.25:
        return E.random_atom(F, rng, names, ["eq", "c", "cm", "rcc8", "conn",
                                             "conn_le"])
    op = rng.choice(("and", "or", "imp", "not"))
    if op == "not":
        return F.Not(_random_formula(F, rng, names, depth - 1))
    cls = {"and": F.And, "or": F.Or, "imp": F.Implies}[op]
    return cls(_random_formula(F, rng, names, depth - 1),
               _random_formula(F, rng, names, depth - 1))
