"""Golden outputs of the generators and the rewrites, each pinned by a
digest.

`outputs.json` maps a label to the first 16 hex digits of a SHA-256
over one output: a printed formula, a witness as `model_to_json`
writes it, a file `toposat generate --witness` writes, or the text a
`translate` target prints. An output that is an error is pinned as its
class and message; the count elimination's errors are pinned by class
alone. It covers:
- every corpus entry's formula and witness;
- `generate --witness` for machines, alternating machines and tilings;
- `gen_tm_formula` and `gen_tm_witness` for the bundled accepter on
  five words, and for 300 seeded machines on seeded words;
- every `translate` target over the corpus and 300 seeded formulas;
- `eliminate_count_pos` over 100 seeded set formulas.

When outputs change on purpose, write the file again with

    PYTHONPATH=src python tests/test_outputs.py --write
"""

import functools
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

from toposat import cli, gadgets
from toposat import transform as T
from toposat.formula import FormulaError, print_formula
from toposat.frames import model_to_json
from toposat.gadgets import GadgetError, TuringMachine

OUTPUTS = Path(__file__).resolve().parent / "outputs.json"

_ACCEPTER_WORDS = ("", "a", "aa", "a_", "_a")


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()
                          ).hexdigest()[:16]


def _outcome(call, errors=(GadgetError, FormulaError, T.TransformError)):
    """What call() gives, or the class and message of the error it raises."""
    try:
        return call()
    except errors as err:
        return [type(err).__name__, str(err)]


def _corpus_outputs():
    for entry in gadgets.corpus():
        yield f"corpus/{entry.name}/formula", print_formula(entry.formula)
        if entry.witness is not None:
            yield f"corpus/{entry.name}/witness", model_to_json(entry.witness)


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


def _tile_spec(tiles, anchor, d):
    return {"tiles": [{"id": f"t{i}", "left": t.left, "top": t.top,
                       "right": t.right, "bot": t.bot}
                      for i, t in enumerate(tiles)],
            "anchor": f"t{anchor}", "d": d}


def _generate_outputs():
    """The files `toposat generate --witness` writes, and its exit code."""
    runs = [(f"tm/{word or 'empty'}", "tm", _tm_spec(gadgets.tm_accepter()),
             word) for word in _ACCEPTER_WORDS]
    runs.append(("atm/rejecter", "atm", _atm_spec(gadgets.atm_rejecter()), ""))
    for name, tiles, d in (("uniform", gadgets.tiles_uniform(), 2),
                           ("matched", gadgets.tiles_matched_quad(), 1),
                           ("matched", gadgets.tiles_matched_quad(), 2)):
        runs.append((f"tiling/{name}-d{d}", "tiling", _tile_spec(tiles, 0, d),
                     ""))
    with tempfile.TemporaryDirectory() as tmp:
        for label, kind, spec, word in runs:
            spec_path = Path(tmp, "spec.json")
            spec_path.write_text(json.dumps(spec))
            prefix = Path(tmp, label.replace("/", "-"))
            code = cli.main(["generate", kind, "--spec", str(spec_path),
                             "--word", word, "--witness", "--out", str(prefix),
                             "--output", str(Path(tmp, "log"))])
            files = [Path(f"{prefix}.formula"), Path(f"{prefix}.model.json")]
            yield f"generate/{label}", [code] + [
                p.read_text() if p.exists() else None for p in files]


def _machine_outputs(label, m, word):
    """The run formula of m on word, and the witness of its accepting run."""
    yield f"{label}/formula", _outcome(
        lambda: print_formula(gadgets.gen_tm_formula(m, word)))

    def witness():
        run = gadgets.run_of(m, word, max_steps=200)
        if run is None:
            return "no accepting run"
        return model_to_json(gadgets.gen_tm_witness(m, word, run))

    yield f"{label}/witness", _outcome(witness)


def _rand_machine(rng):
    """A small machine over states q0.., qY and qH; about one in twenty
    breaks a rule that `TuringMachine` checks."""
    alphabet = ("_", "a", "b")[:rng.choice((2, 2, 2, 3))]
    work = [f"q{i}" for i in range(rng.randint(1, 2))]
    delta = []
    for q in work:
        for a in alphabet:
            if rng.random() < 0.9:
                written = "_" if rng.random() < 0.6 else rng.choice(alphabet)
                target = "qY" if rng.random() < 0.3 else rng.choice(work)
                move = rng.choice((-1, 0, 0, 1))
                delta.append(((q, a), (target, written, move)))
    if rng.random() < 0.8:
        delta.append((("qY", "_"), ("qH", "_", 0)))
    if rng.random() < 0.05:
        delta.append((("qY", "a"), (rng.choice(work), "_", 0)))
    space = rng.choice((1, 1, 2, 2, 3))
    return TuringMachine(tuple(work) + ("qY", "qH"), "q0", "qY", "qH",
                         alphabet, "_", space, tuple(delta))


def _seeded_machine_outputs():
    rng = random.Random(20261020)
    for i in range(300):
        m = _outcome(lambda: _rand_machine(rng))
        if isinstance(m, list):
            yield f"machine/{i}/spec", m
            continue
        letters = list(m.alphabet) + ["z"] * (rng.random() < 0.05)
        size = m.space + 1 if rng.random() < 0.05 else rng.randint(0, m.space)
        word = tuple(rng.choice(letters) for _ in range(size))
        yield from _machine_outputs(f"machine/{i}", m, word)


def _seeded_formulas():
    from conftest import rand_bc_formula, rand_c_conjunction
    from test_solver import _rand_rc_formula, _rand_set_formula
    rng = random.Random(20261021)
    makers = (lambda: rand_c_conjunction(rng, ["a", "b", "c"]),
              lambda: _rand_rc_formula(rng, ["a", "b", "c"]),
              lambda: _rand_set_formula(rng, ["x", "y"]),
              lambda: rand_bc_formula(rng, ["a", "b"]))
    return [(f"random-{i}", makers[i % 4]()) for i in range(300)]


def _translate_outputs():
    sources = [(e.name, e.formula) for e in gadgets.corpus()]
    for name, f in sources + _seeded_formulas():
        for target, translate in cli._TRANSLATIONS.items():
            yield f"translate/{name}/{target}", _outcome(
                functools.partial(translate, f))


def _count_elimination_outputs():
    from test_solver import _rand_set_formula
    rng = random.Random(20261022)
    for i in range(100):
        f = _rand_set_formula(rng, ["x", "y"])
        try:
            out = print_formula(T.eliminate_count_pos(f))
        except T.TransformError:
            out = "TransformError"
        yield f"count-pos/{i}", out


@functools.lru_cache(maxsize=None)
def _outputs():
    accepter = gadgets.tm_accepter()
    accepter_words = [
        item for word in _ACCEPTER_WORDS
        for item in _machine_outputs(f"accepter/{word or 'empty'}",
                                     accepter, tuple(word))]
    got = {}
    for outputs in (_corpus_outputs(), _generate_outputs(), accepter_words,
                    _seeded_machine_outputs(), _translate_outputs(),
                    _count_elimination_outputs()):
        for label, value in outputs:
            assert label not in got, label
            got[label] = _digest(value)
    return got


def test_outputs_are_unchanged():
    want = json.loads(OUTPUTS.read_text())
    got = _outputs()
    assert sorted(got) == sorted(want)
    assert [label for label in want if got[label] != want[label]] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    OUTPUTS.write_text(json.dumps(_outputs(), indent=0, sort_keys=True) + "\n")
