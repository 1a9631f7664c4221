"""Command-line front end: solve, validate, check, translate, generate."""

import argparse
import json
import sys
from dataclasses import dataclass
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


@dataclass
class RunConfig:
    command: str
    frame_class: str = "regc"
    bound: int = 8
    method: str = "auto"
    deterministic: bool = False
    input_path: Optional[str] = None
    output_path: Optional[str] = None


class UsageError(Exception):
    """Bad invocation caught before any work starts."""


def _read_text(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: Optional[str], text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _parse_formula(text: str) -> F.Formula:
    return parse(text)


def _verdict_line(status: str, bound: int, method: str) -> str:
    return f"{status} bound={bound} method={method}"


def _run_solver(f: F.Formula, config: RunConfig):
    if config.method == "forks":
        return sat_forks(f, config.frame_class)
    if config.method == "bounded":
        return sat_bounded(f, config.frame_class, config.bound)
    return solve(f, config.frame_class, config.bound)


def _report(config: RunConfig, result, verdict: str) -> int:
    """The verdict line, the certificate of a SAT result, and the stats
    line unless --deterministic; the exit code of the result."""
    lines = [_verdict_line(verdict, result.bound_used, result.method)]
    if result.status == SAT:
        lines.append(json.dumps(model_to_json(result.certificate),
                                sort_keys=True, indent=2))
    if not config.deterministic:
        stats = (f"completeness={result.completeness} "
                 f"frames={result.stats.get('frames', 0)} "
                 f"nodes={result.stats.get('nodes', 0)}")
        if "saturated_at" in result.stats:
            stats += f" saturated_at={result.stats['saturated_at']}"
        lines.append(stats)
    _write_text(config.output_path, "\n".join(lines) + "\n")
    return _STATUS_EXIT[result.status]


def cmd_sat(config: RunConfig) -> int:
    f = _parse_formula(_read_text(config.input_path))
    result = _run_solver(f, config)
    return _report(config, result, result.status)


def cmd_valid(config: RunConfig) -> int:
    f = _parse_formula(_read_text(config.input_path))
    result = _run_solver(F.Not(f), config)
    dual = {SAT: "NOT_VALID", UNSAT: "VALID",
            UNSAT_WITHIN_BOUND: "VALID_WITHIN_BOUND"}[result.status]
    return _report(config, result, dual)


def cmd_check(config: RunConfig, model_path: str) -> int:
    f = _parse_formula(_read_text(config.input_path))
    model = load_model(_read_text(model_path))
    truth = holds(model, f).truth
    _write_text(config.output_path, ("TRUE" if truth else "FALSE") + "\n")
    return 0 if truth else 1


_TRANSLATIONS = ("fp", "nnf", "rcc8", "dagger", "no-contact",
                 "no-contact-connected")


def cmd_translate(config: RunConfig, target: str) -> int:
    f = _parse_formula(_read_text(config.input_path))
    if target == "fp":
        out = transform.fp_print(transform.fp_translate(f))
    elif target == "nnf":
        out = F.print_formula(transform.nnf(f))
    elif target == "rcc8":
        out = F.print_formula(transform.rcc8_to_c(f))
    elif target == "dagger":
        out = F.print_formula(transform.dagger(f))
    elif target == "no-contact":
        out = F.print_formula(transform.eliminate_contacts(f))
    elif target == "no-contact-connected":
        out = F.print_formula(transform.eliminate_contacts(f, connected=True))
    else:
        raise UsageError(f"unknown translation target {target!r}")
    _write_text(config.output_path, out + "\n")
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


def cmd_generate(config: RunConfig, kind: str, word: str,
                 witness: bool, out_prefix: str) -> int:
    spec = json.loads(_read_text(config.input_path))
    letters = tuple(word)
    model = None
    if kind == "tm":
        machine = gadgets.load_tm(spec)
        f = gadgets.gen_tm_formula(machine, letters)
        if witness:
            run = gadgets.run_of(machine, letters)
            if run is None:
                raise UsageError("machine does not accept, no witness")
            model = gadgets.gen_tm_witness(machine, letters, run)
    elif kind == "atm":
        machine = gadgets.load_atm(spec)
        f = gadgets.gen_atm_formula(machine, letters)
        if witness:
            tree = gadgets.computation_tree(machine, letters)
            if tree.labels[tree.root][tree.subformulas.index(gadgets.M_ACCEPT)]:
                raise UsageError("machine accepts, no rejecting-tree witness")
            boxes = [g for g in tree.subformulas if isinstance(g, gadgets.MBox)]
            model = gadgets.gen_tree_witness(tree, boxes)
    elif kind == "tiling":
        tiles, anchor, d = gadgets.load_tileset(spec)
        f = gadgets.gen_tiling_formula(tiles, anchor, d)
        if witness:
            tiling = gadgets.brute_force_tiling(tiles, anchor, d)
            if tiling is None:
                raise UsageError("tile set does not tile the grid, no witness")
            model = gadgets.gen_tiling_witness(tiles, tiling, d)
    elif kind == "tree":
        chi = _modal_from_json(spec["chi"])
        psi = _modal_from_json(spec["psi"])
        f = gadgets.gen_tree_formula(chi, psi)
        if witness:
            raise UsageError("tree instances carry no witness constructor")
    else:
        raise UsageError(f"unknown generator {kind!r}")
    _write_text(out_prefix + ".formula", F.print_formula(f) + "\n")
    written = [out_prefix + ".formula"]
    if model is not None:
        _write_text(out_prefix + ".model.json",
                    json.dumps(model_to_json(model), sort_keys=True, indent=2)
                    + "\n")
        written.append(out_prefix + ".model.json")
    _write_text(config.output_path,
                "".join(f"wrote {p}\n" for p in written))
    return 0


def _corpus_entry_ok(entry) -> bool:
    if entry.witness is not None:
        if not holds(entry.witness, entry.formula).truth:
            return False
    if entry.expected == "VALID":
        result = solve(F.Not(entry.formula), entry.frame_class,
                       entry.bound or 8)
        return result.status in (UNSAT, UNSAT_WITHIN_BOUND)
    if entry.bound is None:
        if not forks_decide(F.classify(entry.formula), entry.frame_class):
            # no affordable complete search; witness check above decides
            return entry.expected == "SAT" and entry.witness is not None
        result = solve(entry.formula, entry.frame_class)
    else:
        result = solve(entry.formula, entry.frame_class, entry.bound)
    if entry.expected == "UNSAT":
        return result.status == UNSAT
    return result.status == entry.expected


def cmd_corpus(config: RunConfig) -> int:
    failures = 0
    lines = []
    for entry in gadgets.corpus():
        ok = _corpus_entry_ok(entry)
        failures += 0 if ok else 1
        lines.append(f"{'PASS' if ok else 'FAIL'} {entry.name} "
                     f"[{entry.frame_class}] expected={entry.expected}")
    lines.append(f"{'FAIL' if failures else 'PASS'}: "
                 f"{len(lines) - failures}/{len(lines)} entries")
    _write_text(config.output_path, "\n".join(lines) + "\n")
    return EXIT_USAGE if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toposat",
        description="Satisfiability of topological contact formulas "
                    "over finite quasi-saw models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_frame=True):
        p.add_argument("input", nargs="?", default="-",
                       help="formula file, or - for stdin")
        if with_frame:
            p.add_argument("--frame", default="regc",
                           choices=FRAME_CLASSES)
            p.add_argument("--bound", type=int, default=8)
            p.add_argument("--method", default="auto",
                           choices=["auto", "forks", "bounded"])
        p.add_argument("--output", default=None)
        p.add_argument("--deterministic", action="store_true")

    common(sub.add_parser("sat", help="decide satisfiability"))
    common(sub.add_parser("valid", help="decide validity via the negation"))
    p_check = sub.add_parser("check", help="evaluate a formula on a model")
    common(p_check, with_frame=False)
    p_check.add_argument("--model", required=True)
    p_tr = sub.add_parser("translate", help="rewrite a formula")
    common(p_tr, with_frame=False)
    p_tr.add_argument("--to", required=True, choices=list(_TRANSLATIONS))
    p_gen = sub.add_parser("generate", help="emit a reduction formula")
    p_gen.add_argument("kind", choices=["tm", "atm", "tiling", "tree"])
    p_gen.add_argument("--spec", required=True,
                       help="machine or tile set as JSON")
    p_gen.add_argument("--word", default="")
    p_gen.add_argument("--witness", action="store_true")
    p_gen.add_argument("--out", required=True, help="output file prefix")
    p_gen.add_argument("--output", default=None)
    p_gen.add_argument("--deterministic", action="store_true")
    p_corpus = sub.add_parser("corpus", help="run the example corpus")
    p_corpus.add_argument("--output", default=None)
    p_corpus.add_argument("--deterministic", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else 0
    config = RunConfig(
        command=args.command,
        frame_class=getattr(args, "frame", "regc"),
        bound=getattr(args, "bound", 8),
        method=getattr(args, "method", "auto"),
        deterministic=args.deterministic,
        input_path=getattr(args, "input", None) or getattr(args, "spec", None),
        output_path=args.output)
    try:
        if config.bound < 1:
            raise UsageError("bound must be at least 1")
        if config.command == "sat":
            return cmd_sat(config)
        if config.command == "valid":
            return cmd_valid(config)
        if config.command == "check":
            return cmd_check(config, args.model)
        if config.command == "translate":
            return cmd_translate(config, args.to)
        if config.command == "generate":
            return cmd_generate(config, args.kind, args.word,
                                args.witness, args.out)
        if config.command == "corpus":
            return cmd_corpus(config)
        raise UsageError(f"unknown command {config.command!r}")
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
