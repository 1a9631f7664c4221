"""Command-line front end: solve, validate, check, translate, generate."""

import argparse
import json
import sys
from typing import List, Optional

from . import formula as F
from . import gadgets, transform
from .formula import FormulaError, ParseError, parse
from .frames import FRAME_CLASSES, FrameError, LoadError, load_model, model_to_json
from .semantics import SemanticsError, holds
from .solver import (SAT, UNSAT, UNSAT_WITHIN_BOUND, SolverError, forks_decide,
                     sat_bounded, sat_forks, solve)

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNSAT_WITHIN_BOUND = 30
EXIT_USAGE = 1
EXIT_PARSE = 2

_STATUS_EXIT = {SAT: EXIT_SAT, UNSAT: EXIT_UNSAT,
                UNSAT_WITHIN_BOUND: EXIT_UNSAT_WITHIN_BOUND}


class UsageError(Exception):
    """Bad invocation caught before any work starts."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: Optional[str], text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _run_solver(f: F.Formula, args):
    if args.method == "forks":
        return sat_forks(f, args.frame)
    if args.method == "bounded":
        return sat_bounded(f, args.frame, args.bound)
    return solve(f, args.frame, args.bound)


def _report(args, result, verdict: str) -> int:
    """The verdict line, the certificate of a SAT result, and the stats
    line unless --deterministic; the exit code of the result."""
    lines = [f"{verdict} bound={result.bound_used} method={result.method}"]
    if result.status == SAT:
        lines.append(json.dumps(model_to_json(result.certificate),
                                sort_keys=True, indent=2))
    if not args.deterministic:
        stats = (f"completeness={result.completeness} "
                 f"frames={result.stats.get('frames', 0)} "
                 f"nodes={result.stats.get('nodes', 0)}")
        if "saturated_at" in result.stats:
            stats += f" saturated_at={result.stats['saturated_at']}"
        lines.append(stats)
    _write_text(args.output, "\n".join(lines) + "\n")
    return _STATUS_EXIT[result.status]


def cmd_sat(args) -> int:
    result = _run_solver(parse(_read_text(args.input)), args)
    return _report(args, result, result.status)


def cmd_valid(args) -> int:
    result = _run_solver(F.Not(parse(_read_text(args.input))), args)
    dual = {SAT: "NOT_VALID", UNSAT: "VALID",
            UNSAT_WITHIN_BOUND: "VALID_WITHIN_BOUND"}[result.status]
    return _report(args, result, dual)


def cmd_check(args) -> int:
    f = parse(_read_text(args.input))
    model = load_model(_read_text(args.model))
    truth = holds(model, f).truth
    _write_text(args.output, ("TRUE" if truth else "FALSE") + "\n")
    return 0 if truth else 1


_TRANSLATIONS = {
    "fp": lambda f: transform.fp_print(transform.fp_translate(f)),
    "nnf": lambda f: F.print_formula(transform.nnf(f)),
    "rcc8": lambda f: F.print_formula(transform.rcc8_to_c(f)),
    "dagger": lambda f: F.print_formula(transform.dagger(f)),
    "no-contact": lambda f: F.print_formula(transform.eliminate_contacts(f)),
    "no-contact-connected": lambda f: F.print_formula(
        transform.eliminate_contacts(f, connected=True)),
}


def cmd_translate(args) -> int:
    out = _TRANSLATIONS[args.to](parse(_read_text(args.input)))
    _write_text(args.output, out + "\n")
    return 0


def _modal_from_json(node):
    if isinstance(node, list) and node:
        head = node[0]
        if head == "var" and len(node) == 2:
            return gadgets.MVar(node[1])
        if head == "not" and len(node) == 2:
            return gadgets.MNot(_modal_from_json(node[1]))
        if head == "and" and len(node) == 3:
            return gadgets.MAnd(_modal_from_json(node[1]),
                                _modal_from_json(node[2]))
        if head == "box" and len(node) == 3:
            return gadgets.MBox(int(node[1]), _modal_from_json(node[2]))
    raise UsageError(f"bad modal formula node {node!r}")


def cmd_generate(args) -> int:
    spec = json.loads(_read_text(args.spec))
    letters = tuple(args.word)
    model = None
    if args.kind == "tm":
        machine = gadgets.load_tm(spec)
        f = gadgets.gen_tm_formula(machine, letters)
        if args.witness:
            run = gadgets.run_of(machine, letters)
            if run is None:
                raise UsageError("machine does not accept, no witness")
            model = gadgets.gen_tm_witness(machine, letters, run)
    elif args.kind == "atm":
        machine = gadgets.load_atm(spec)
        f = gadgets.gen_atm_formula(machine, letters)
        if args.witness:
            tree = gadgets.computation_tree(machine, letters)
            if tree.labels[tree.root][tree.subformulas.index(gadgets.M_ACCEPT)]:
                raise UsageError("machine accepts, no rejecting-tree witness")
            boxes = [g for g in tree.subformulas if isinstance(g, gadgets.MBox)]
            model = gadgets.gen_tree_witness(tree, boxes)
    elif args.kind == "tiling":
        tiles, anchor, d = gadgets.load_tileset(spec)
        f = gadgets.gen_tiling_formula(tiles, anchor, d)
        if args.witness:
            tiling = gadgets.brute_force_tiling(tiles, anchor, d)
            if tiling is None:
                raise UsageError("tile set does not tile the grid, no witness")
            model = gadgets.gen_tiling_witness(tiles, tiling, d)
    else:
        chi = _modal_from_json(spec["chi"])
        psi = _modal_from_json(spec["psi"])
        f = gadgets.gen_tree_formula(chi, psi)
        if args.witness:
            raise UsageError("tree instances carry no witness constructor")
    _write_text(args.out + ".formula", F.print_formula(f) + "\n")
    written = [args.out + ".formula"]
    if model is not None:
        _write_text(args.out + ".model.json",
                    json.dumps(model_to_json(model), sort_keys=True, indent=2)
                    + "\n")
        written.append(args.out + ".model.json")
    _write_text(args.output, "".join(f"wrote {p}\n" for p in written))
    return 0


def _corpus_entry_ok(entry) -> bool:
    if entry.witness is not None:
        if not holds(entry.witness, entry.formula).truth:
            return False
    if entry.expected == "VALID":
        result = solve(F.Not(entry.formula), entry.frame_class,
                       entry.bound or 8)
        return result.status in (UNSAT, UNSAT_WITHIN_BOUND)
    if entry.bound is None and not forks_decide(F.classify(entry.formula),
                                                entry.frame_class):
        # no affordable complete search; witness check above decides
        return entry.expected == "SAT" and entry.witness is not None
    result = solve(entry.formula, entry.frame_class, entry.bound or 8)
    return result.status == entry.expected


def cmd_corpus(args) -> int:
    failures = 0
    lines = []
    for entry in gadgets.corpus():
        ok = _corpus_entry_ok(entry)
        failures += 0 if ok else 1
        lines.append(f"{'PASS' if ok else 'FAIL'} {entry.name} "
                     f"[{entry.frame_class}] expected={entry.expected}")
    lines.append(f"{'FAIL' if failures else 'PASS'}: "
                 f"{len(lines) - failures}/{len(lines)} entries")
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_USAGE if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toposat",
        description="Satisfiability of topological contact formulas "
                    "over finite quasi-saw models.")
    # `main` runs the `cmd_<command>` of this module
    sub = parser.add_subparsers(dest="command", required=True)

    def formula_command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("input", nargs="?", default="-",
                       help="formula file, or - for stdin")
        return p

    for name, summary in (("sat", "decide satisfiability"),
                          ("valid", "decide validity via the negation")):
        p = formula_command(name, summary)
        p.add_argument("--frame", default="regc", choices=FRAME_CLASSES)
        p.add_argument("--bound", type=int, default=8)
        p.add_argument("--method", default="auto",
                       choices=["auto", "forks", "bounded"])
        p.add_argument("--output", default=None)
        p.add_argument("--deterministic", action="store_true")
    p_check = formula_command("check", "evaluate a formula on a model")
    p_check.add_argument("--output", default=None)
    p_check.add_argument("--model", required=True)
    p_tr = formula_command("translate", "rewrite a formula")
    p_tr.add_argument("--output", default=None)
    p_tr.add_argument("--to", required=True, choices=list(_TRANSLATIONS))
    p_gen = sub.add_parser("generate", help="emit a reduction formula")
    p_gen.add_argument("kind", choices=["tm", "atm", "tiling", "tree"])
    p_gen.add_argument("--spec", required=True,
                       help="machine or tile set as JSON")
    p_gen.add_argument("--word", default="")
    p_gen.add_argument("--witness", action="store_true")
    p_gen.add_argument("--out", required=True, help="output file prefix")
    p_gen.add_argument("--output", default=None)
    sub.add_parser("corpus", help="run the example corpus").add_argument(
        "--output", default=None)
    return parser


_PARSER = _build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else 0
    try:
        if getattr(args, "bound", 1) < 1:
            raise UsageError("bound must be at least 1")
        # looked up at call time, so a rebound module function (bench/
        # tracer.py wraps cmd_translate) is the one that runs
        return globals()["cmd_" + args.command](args)
    except (ParseError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UsageError, FormulaError, FrameError, LoadError, SemanticsError,
            SolverError, transform.TransformError, gadgets.GadgetError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
