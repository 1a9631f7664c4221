"""Per-layer spans for a traced run.

The tracer wraps, from outside the program, the module-level functions
each layer of `toposat` is entered through, and replaces every module
global of the package that refers to one of them. Each wrapper records
a span; a span's self time is its length minus the spans opened inside
it, and a function already open on the stack is not counted again, so a
recursive function counts only its outermost call. Spans are recorded
only while `active` is set, that is, inside an operation (or inside the
set-up being traced).

Two readings depend on the caller: `semantics.holds` under
`solver.check_certificate` is the certificate re-check, and the
transform functions under `cli.cmd_translate` are translation rather
than normalization.
"""

import sys
import time
from collections import defaultdict

# (module, attribute, span key, counter): "Class.method" wraps a method.
ENTRIES = [
    ("formula", "parse", "formula.parse", None),
    ("formula", "print_formula", "formula.print", None),
    ("formula", "print_term", "formula.print", None),
    ("formula", "classify", "formula.classify", "formula.classify_calls"),
    ("formula", "formula_family", "formula.classify", "formula.classify_calls"),
    ("formula", "literal_sets", "formula.skeleton", "formula.literal_sets"),
    ("transform", "rcc8_to_c", "transform.normalize", None),
    ("transform", "eq_normalize", "transform.normalize", None),
    ("transform", "nnf", "transform.normalize", None),
    ("transform", "dagger", "transform.translate", None),
    ("transform", "eliminate_contacts", "transform.translate", None),
    ("transform", "fp_translate", "transform.translate", None),
    ("transform", "fp_print", "transform.translate", None),
    ("solver", "solve", "solver.self", None),
    ("solver", "sat_forks", "solver.self", None),
    ("solver", "sat_bounded", "solver.self", None),
    ("solver", "_admissible_types", "solver.type_enum", "solver.types_enumerated"),
    ("solver", "_find_fork", "solver.fork_build", None),
    ("solver", "_frames_at", "solver.frame_enum", "solver.frames"),
    ("solver", "_search_rc", "solver.search", "solver.search_nodes"),
    ("solver", "_search_set", "solver.search", "solver.search_nodes"),
    ("solver", "_cheap_rc", "solver.leaf", "solver.leaf_evals"),
    ("solver", "_cheap_set", "solver.leaf", "solver.leaf_evals"),
    ("solver", "check_certificate", "solver.recheck", None),
    ("semantics", "holds", "semantics.holds", "semantics.holds_calls"),
    ("frames", "QuasiOrderFrame.__init__", "frames.frame_build", None),
    ("frames", "make_fence", "frames.frame_build", None),
    ("frames", "make_fork_frame", "frames.frame_build", None),
    ("frames", "as_quasi_saw", "frames.frame_build", None),
    ("frames", "Model.__post_init__", "frames.model_build", None),
    ("frames", "load_model", "frames.model_build", None),
    ("frames", "model_to_json", "frames.model_build", None),
    ("frames", "connectify", "frames.model_build", None),
    ("gadgets", "corpus", "gadgets.generate", None),
    ("gadgets", "gen_tm_formula", "gadgets.generate", None),
    ("gadgets", "gen_tm_witness", "gadgets.generate", None),
    ("gadgets", "run_of", "gadgets.generate", None),
    ("gadgets", "gen_atm_formula", "gadgets.generate", None),
    ("gadgets", "computation_tree", "gadgets.generate", None),
    ("gadgets", "gen_tree_formula", "gadgets.generate", None),
    ("gadgets", "gen_tree_witness", "gadgets.generate", None),
    ("gadgets", "gen_tiling_formula", "gadgets.generate", None),
    ("gadgets", "gen_tiling_witness", "gadgets.generate", None),
    ("gadgets", "brute_force_tiling", "gadgets.generate", None),
    ("cli", "main", "cli.self", None),
    ("cli", "cmd_translate", "cli.translate", None),
    ("cli", "_write_text", "cli.self", "cli.output_bytes"),
]

GENERATORS = {"literal_sets", "_frames_at"}

# per-layer metric -> (unit, span keys or counters): "ms" sums self
# times, the other units sum counters; both are reported per operation.
METRICS = {
    "formula.parse_ms": ("ms", ["formula.parse"]),
    "formula.print_ms": ("ms", ["formula.print"]),
    "formula.classify_calls": ("count", ["formula.classify_calls"]),
    "formula.classify_ms": ("ms", ["formula.classify"]),
    "formula.literal_sets": ("count", ["formula.literal_sets"]),
    "formula.skeleton_ms": ("ms", ["formula.skeleton"]),
    "transform.normalize_ms": ("ms", ["transform.normalize"]),
    "transform.translate_ms": ("ms", ["transform.translate"]),
    "solver.types_enumerated": ("count", ["solver.types_enumerated"]),
    "solver.type_enum_ms": ("ms", ["solver.type_enum"]),
    "solver.fork_build_ms": ("ms", ["solver.fork_build"]),
    "solver.frames": ("count", ["solver.frames"]),
    "solver.frame_enum_ms": ("ms", ["solver.frame_enum"]),
    "solver.search_nodes": ("count", ["solver.search_nodes"]),
    "solver.search_ms": ("ms", ["solver.search"]),
    "solver.leaf_evals": ("count", ["solver.leaf_evals"]),
    "solver.leaf_ms": ("ms", ["solver.leaf"]),
    "solver.recheck_ms": ("ms", ["solver.recheck"]),
    "solver.self_ms": ("ms", ["solver.self"]),
    "semantics.holds_calls": ("count", ["semantics.holds_calls"]),
    "semantics.holds_ms": ("ms", ["semantics.holds"]),
    "frames.frame_build_ms": ("ms", ["frames.frame_build"]),
    "frames.model_build_ms": ("ms", ["frames.model_build"]),
    "gadgets.generate_ms": ("ms", ["gadgets.generate"]),
    "cli.self_ms": ("ms", ["cli.self", "cli.translate"]),
    "cli.output_bytes": ("bytes", ["cli.output_bytes"]),
}


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []                 # [key, start, time in children]
        self.open_keys = defaultdict(int)
        self.open_fns = defaultdict(int)
        self.ms = defaultdict(float)
        self.counts = defaultdict(int)
        self.leaf_hits = 0
        self.present = set()            # span keys and counters installed
        self.missing = []               # entries the program no longer has

    def reset(self):
        self.ms.clear()
        self.counts.clear()
        self.leaf_hits = 0

    # -- spans --

    def _push(self, key):
        if key == "semantics.holds" and self.open_keys["solver.recheck"]:
            key = "solver.recheck"
        elif key == "transform.normalize" and self.open_keys["cli.translate"]:
            key = "transform.translate"
        self.open_keys[key] += 1
        self.stack.append([key, time.perf_counter(), 0.0])
        return key

    def _pop(self):
        key, start, children = self.stack.pop()
        span = time.perf_counter() - start
        self.ms[key] += span - children
        self.open_keys[key] -= 1
        if self.stack:
            self.stack[-1][2] += span

    def _count(self, counter, key, args, result, before):
        if counter == "semantics.holds_calls" and key != "semantics.holds":
            return
        if counter == "solver.types_enumerated":
            self.counts[counter] += len(result)
        elif counter == "solver.search_nodes":
            self.counts[counter] += args[2]["nodes"] - before
        elif counter == "solver.leaf_evals":
            self.counts[counter] += 1
            self.leaf_hits += bool(result)
        elif counter == "cli.output_bytes":
            self.counts[counter] += len(args[1].encode("utf-8"))
        else:
            self.counts[counter] += 1

    def wrap(self, fn, key, counter):
        tracer = self
        fid = id(fn)

        def wrapper(*args, **kwargs):
            if not tracer.active or tracer.open_fns[fid]:
                return fn(*args, **kwargs)
            before = args[2]["nodes"] if counter == "solver.search_nodes" else None
            tracer.open_fns[fid] += 1
            resolved = tracer._push(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop()
                tracer.open_fns[fid] -= 1
            if counter:
                tracer._count(counter, resolved, args, result, before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, fn, key, counter):
        """Each step of the generator is a span; yields are counted."""
        tracer = self

        def wrapper(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                traced = tracer.active
                if traced:
                    tracer._push(key)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    if traced:
                        tracer._pop()
                if traced:
                    tracer.counts[counter] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --

    def install(self, package="toposat"):
        """Wrap every entry and rebind every module global that refers to
        a wrapped function, so calls between modules are seen too."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for module_name, attr, key, counter in ENTRIES:
            module = sys.modules.get(f"{package}.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, method, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if attr in GENERATORS:
                wrapped = self.wrap_generator(fn, key, counter)
            else:
                wrapped = self.wrap(fn, key, counter)
            setattr(owner, method, wrapped)
            self.present.update((key, counter))
            if owner_name:
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapped)

    # -- report --

    def metrics(self, operations):
        """Per-operation averages of every metric whose entries exist."""
        out = {}
        for name, (unit, sources) in METRICS.items():
            if not any(s in self.present for s in sources):
                continue
            if unit == "ms":
                value = sum(self.ms[s] for s in sources) * 1000 / operations
            else:
                value = sum(self.counts[s] for s in sources) / operations
            out[name] = {"value": value, "unit": unit}
        if "solver.leaf_evals" in self.present:
            leaves = self.counts["solver.leaf_evals"]
            out["solver.leaf_hit_ratio"] = {
                "value": self.leaf_hits / leaves if leaves else 0.0,
                "unit": "ratio"}
        return out
