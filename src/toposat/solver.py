"""Decision procedures.

Two routes; `forks_decide` says which one a language takes. `sat_forks`
is the complete NP procedure for contact languages without
connectedness predicates: a pruned search over the propositional
skeleton yields satisfying literal sets, and each existential literal
is realized on its own fork, whose tooth types a bit-level search finds
on demand among those the universal literals admit. `sat_bounded` is
an iterative-deepening search over canonical quasi-saws (linear fences
in fence mode) with depth-0 supports driving the valuations; it reports
a complete verdict only when the requested bound reaches the
theoretical finite-model bound of the input.

Every satisfying result is re-verified against the plain model checker
before it is returned.
"""

import itertools
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import formula as F
from .formula import And, Conn, ConnLe, Contact, Eq, Formula, Not, Rcc8, Var, Zero
from .frames import (FrameError, Model, QuasiSawFrame, make_fence,
                     make_fork_frame, connectify)
from .semantics import SemanticsError, empty_space_eval, holds
from .transform import TransformError, eq_normalize, nnf, rcc8_to_c


class SolverError(Exception):
    """Unusable input for the requested procedure."""


SAT = "SAT"
UNSAT = "UNSAT"
UNSAT_WITHIN_BOUND = "UNSAT_WITHIN_BOUND"

COMPLETE = "COMPLETE"
BOUNDED = "BOUNDED"


@dataclass
class SolveResult:
    status: str
    certificate: Optional[Model] = None
    bound_used: int = 0
    completeness: str = BOUNDED
    method: str = ""
    theoretical_bound: Optional[int] = None
    stats: Dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status == SAT and self.certificate is None:
            raise SolverError("satisfying verdict without certificate")
        if self.status == UNSAT and self.completeness != COMPLETE:
            raise SolverError("complete refutation claimed by a bounded run")


def check_certificate(model: Model, f: Formula) -> bool:
    return holds(model, f).truth


def _verified(result: SolveResult, f: Formula) -> SolveResult:
    if result.status == SAT and not check_certificate(result.certificate, f):
        raise SolverError("certificate failed re-verification")
    return result


# ---------------------------------------------------------------------------
# Boolean evaluation of terms over depth-0 point types

def compile_bool(t: F.Term, var_index: Dict[str, int]):
    """Membership of a depth-0 point type (bitmask of variables) in a
    regular-closed term, as a mask predicate."""
    if isinstance(t, F.Var):
        bit = 1 << var_index[t.name]
        return lambda m: bool(m & bit)
    if isinstance(t, F.Zero):
        return lambda m: False
    if isinstance(t, F.One):
        return lambda m: True
    if isinstance(t, F.Sum):
        a, b = compile_bool(t.left, var_index), compile_bool(t.right, var_index)
        return lambda m: a(m) or b(m)
    if isinstance(t, F.Prod):
        a, b = compile_bool(t.left, var_index), compile_bool(t.right, var_index)
        return lambda m: a(m) and b(m)
    if isinstance(t, F.Compl):
        a = compile_bool(t.arg, var_index)
        return lambda m: not a(m)
    raise SolverError(f"not a regular-closed term: {t!r}")


def _tv_memb(t: F.Term, assign: List[Optional[bool]],
             var_index: Dict[str, int]) -> Optional[bool]:
    """Three-valued membership of a depth-0 point type in a term under a
    partial variable assignment; None means not yet determined."""
    if isinstance(t, F.Var):
        return assign[var_index[t.name]]
    if isinstance(t, F.Zero):
        return False
    if isinstance(t, F.One):
        return True
    if isinstance(t, (F.Sum, F.Union)):
        a = _tv_memb(t.left, assign, var_index)
        if a is True:
            return True
        b = _tv_memb(t.right, assign, var_index)
        if b is True:
            return True
        return False if (a is False and b is False) else None
    if isinstance(t, (F.Prod, F.Inter)):
        a = _tv_memb(t.left, assign, var_index)
        if a is False:
            return False
        b = _tv_memb(t.right, assign, var_index)
        if b is False:
            return False
        return True if (a is True and b is True) else None
    if isinstance(t, (F.Compl, F.SetCompl)):
        a = _tv_memb(t.arg, assign, var_index)
        return None if a is None else not a
    if isinstance(t, (F.Interior, F.Closure)):
        return _tv_memb(t.arg, assign, var_index)
    raise SolverError(f"not a term: {t!r}")


def _var_indices(terms: Iterable[F.Term], var_index: Dict[str, int]) -> set:
    return {var_index[x.name] for t in terms
            for x in F.subterms(t) if isinstance(x, F.Var)}


class _ToothTypes:
    """Depth-0 point types avoiding every zero term and every forbidden
    contact realized at a single point, found on demand. The search
    assigns variable bits in index order, False before True, and cuts a
    branch once a violation is forced or the wanted term is surely
    missed. Whether a prefix of bits forces a violation is kept across
    searches, and each wanted term's types are kept as a lazily extended
    list, because `_find_fork` backtracks over them."""

    def __init__(self, var_index: Dict[str, int], zero_terms: Sequence[F.Term],
                 ncontact_terms: Sequence[Sequence[F.Term]]):
        self.var_index = var_index
        self.nodes = 0
        self._found: Dict[F.Term, _LazyList] = {}
        self._dead: Dict[Tuple[int, int], bool] = {}
        # a constraint can only flip to violated when one of its own
        # variables gets assigned, so watch each constraint there
        self.watch: List[List] = [[] for _ in var_index]
        checks = [[t] for t in zero_terms] + [list(s) for s in ncontact_terms]
        constant = []
        for check in checks:
            at = _var_indices(check, var_index)
            if not at:
                constant.append(check)
            for i in at:
                self.watch[i].append(check)
        self.blocked = any(self._violated(c, [None] * len(var_index))
                           for c in constant)

    def _violated(self, check, assign) -> bool:
        for t in check:
            if _tv_memb(t, assign, self.var_index) is not True:
                return False
        return True

    def _cut(self, i: int, assign) -> bool:
        for check in self.watch[i]:
            if self._violated(check, assign):
                return True
        return False

    def of(self, want: F.Term) -> "_LazyList":
        """The types in `want`, in search order."""
        found = self._found.get(want)
        if found is None:
            found = self._found[want] = _LazyList(self.search(want))
        return found

    def search(self, want: Optional[F.Term]) -> Iterator[int]:
        """The types in `want` (every type for None), in search order."""
        var_index = self.var_index
        v = len(var_index)
        assign: List[Optional[bool]] = [None] * v   # owned by this search
        wanted = _var_indices([want] if want is not None else [], var_index)
        if self.blocked or (want is not None
                            and _tv_memb(want, assign, var_index) is False):
            return
        tried = [0] * v      # values tried at each bit: none, False, both
        prefix = 0           # the assigned bits as a mask
        i = 0
        while i >= 0:
            if i == v:
                yield prefix
                i -= 1
                continue
            if tried[i] == 2:
                tried[i] = 0
                assign[i] = None
                prefix &= ~(1 << i)
                i -= 1
                continue
            assign[i] = tried[i] == 1
            tried[i] += 1
            prefix |= assign[i] << i
            self.nodes += 1
            dead = self._dead.get((i, prefix))
            if dead is None:
                dead = self._dead[i, prefix] = self._cut(i, assign)
            if dead:
                continue
            if i in wanted and _tv_memb(want, assign, var_index) is False:
                continue
            i += 1


class _LazyList:
    """The items of one generator, drawn on first need and kept, so that
    several iterations, nested ones included, share one run of it."""

    def __init__(self, source: Iterator[int]):
        self._items: List[int] = []
        self._source: Optional[Iterator[int]] = source

    def __iter__(self) -> Iterator[int]:
        i = 0
        while True:
            if i == len(self._items):
                item = next(self._source, None) if self._source else None
                if item is None:
                    self._source = None
                    return
                self._items.append(item)
            yield self._items[i]
            i += 1


def _admissible_types(var_index: Dict[str, int],
                      zero_terms: Sequence[F.Term],
                      ncontact_terms: Sequence[Sequence[F.Term]]) -> List[int]:
    """Every admissible depth-0 point type, in search order."""
    return list(_ToothTypes(var_index, zero_terms, ncontact_terms).search(None))


def fork_bound(f: Formula) -> int:
    """Points needed by a disjoint-fork model per the fork procedure:
    one (arity+1)-fork per potentially existential atom."""
    total = 0
    for a in set(F.atoms(rcc8_to_c(f))):
        if isinstance(a, Contact):
            total += len(a.terms) + 1
        else:
            total += 2
    return total


def forks_decide(tag: str, frame_class: str) -> bool:
    """Whether the complete fork procedure decides the language `tag`
    over `frame_class`: the contact languages without connectedness
    atoms over regc, and their Boolean and RCC8 fragments over conregc,
    where one extra point connects a disjoint union of forks."""
    if tag not in ("B", "RCC8", "C", "Cm"):
        return False
    return frame_class == "regc" or (frame_class == "conregc"
                                     and tag in ("B", "RCC8"))


def theoretical_bound(f: Formula, frame_class: str) -> Optional[int]:
    """Finite-model size bound justifying a complete refutation, when known."""
    return _theoretical_bound(f, frame_class, F.classify(f))


def _theoretical_bound(f: Formula, frame_class: str, tag: str) -> Optional[int]:
    if frame_class == "fence":
        return None
    if forks_decide(tag, frame_class):
        return fork_bound(f) + (frame_class == "conregc")
    return 2 ** len(F.subterm_closure(f))


# ---------------------------------------------------------------------------
# Fork procedure

def sat_forks(f: Formula, frame_class: str = "regc") -> SolveResult:
    """Complete satisfiability for contact formulas without
    connectedness atoms, over the regular-closed frame classes."""
    tag = F.classify(f)
    if not forks_decide(tag, frame_class):
        raise SolverError(f"the fork procedure decides B, RCC8, C and Cm over "
                          f"regc and B and RCC8 over conregc, got {tag} over "
                          f"{frame_class}")
    return _sat_forks(f, frame_class, tag)


def _sat_forks(f: Formula, frame_class: str, tag: str) -> SolveResult:
    start = time.monotonic()
    g = eq_normalize(rcc8_to_c(f))
    skeleton, table = F.propositional_skeleton(g)
    variables = sorted(F.variables(g))
    var_index = {v: i for i, v in enumerate(variables)}
    nodes = 0

    for literals in F.literal_sets(skeleton, table):
        zeros, nonzeros, contacts = [], [], []
        ncontacts, ncontact_terms = [], []
        for lit in sorted(literals, key=abs):
            atom = table[abs(lit)]
            if isinstance(atom, Eq):
                (zeros if lit > 0 else nonzeros).append(atom.left)
            elif isinstance(atom, Contact):
                if lit > 0:
                    contacts.append(atom.terms)
                else:
                    ncontacts.append(
                        [compile_bool(t, var_index) for t in atom.terms])
                    ncontact_terms.append(atom.terms)
            else:
                raise SolverError(f"unexpected atom {atom!r}")

        # without existential literals the empty space is a model
        types = _ToothTypes(var_index, zeros, ncontact_terms)
        fork_teeth = []
        for t in nonzeros:
            tooth = next(iter(types.of(t)), None)
            if tooth is None:
                break
            fork_teeth.append([tooth])
        else:
            for terms in contacts:
                teeth = _find_fork(terms, types, ncontacts)
                if teeth is None:
                    break
                fork_teeth.append(teeth)
        nodes += types.nodes + 1
        if len(fork_teeth) < len(nonzeros) + len(contacts):
            continue

        frame = make_fork_frame([len(ts) for ts in fork_teeth])
        supports = {v: set() for v in variables}
        for i, teeth in enumerate(fork_teeth):
            for j, m in enumerate(teeth):
                for v, k in var_index.items():
                    if m >> k & 1:
                        supports[v].add(f"t{i}_{j}")
        valuation = {v: frame.rc_from_support(frozenset(s))
                     for v, s in supports.items()}
        model = Model(frame, valuation, "regc")
        return _finish(f, model, frame_class, tag, start, nodes)

    return SolveResult(UNSAT, None, 0, COMPLETE, "forks",
                       fork_bound(f), {"nodes": nodes,
                                       "time": time.monotonic() - start})


def _find_fork(terms, types, ncontacts):
    """Teeth t_i in terms[i] such that no forbidden contact sees the hub:
    never does every sigma_j contain some tooth. Violation is monotone
    in the tooth set, so a bad prefix is pruned outright."""
    k = len(terms)
    candidates = [types.of(t) for t in terms]
    teeth = []

    def hub_violated():
        return any(all(any(s(m) for m in teeth) for s in sigma)
                   for sigma in ncontacts)

    def go(i):
        if i == k:
            return True
        for m in candidates[i]:
            teeth.append(m)
            if not hub_violated() and go(i + 1):
                return True
            teeth.pop()
        return False

    return list(teeth) if go(0) else None


def _finish(f, model, frame_class, tag, start, nodes):
    if frame_class == "conregc" and not model.frame.is_connected():
        if model.frame.points:
            model = connectify(model, "b" if tag == "B" else "rcc8")
        else:
            model = Model(model.frame, model.valuation, "conregc")
    elif frame_class == "conregc":
        model = Model(model.frame, model.valuation, "conregc")
    result = SolveResult(SAT, model, len(model.frame.points), COMPLETE, "forks",
                         fork_bound(f), {"nodes": nodes,
                                         "time": time.monotonic() - start})
    return _verified(result, f)


# ---------------------------------------------------------------------------
# Bounded search: canonical frames

def _partial_canonical(masks: Sequence[int], p: int) -> bool:
    """Cheap symmetry breaking: teeth sorted by their hub-incidence
    columns, nonincreasing."""
    cols = []
    for i in range(p):
        col = 0
        for j, m in enumerate(masks):
            if m >> i & 1:
                col |= 1 << j
        cols.append(col)
    return all(cols[i] >= cols[i + 1] for i in range(p - 1))


def _is_canonical(masks: Sequence[int], p: int) -> bool:
    """Exact canonicity under tooth permutations for small frames."""
    if p > 6:
        return _partial_canonical(masks, p)
    base = tuple(sorted(masks))
    for perm in itertools.permutations(range(p)):
        permuted = tuple(sorted(
            sum(1 << perm[i] for i in range(p) if m >> i & 1) for m in masks))
        if permuted < base:
            return False
    return True


def canonical_saws(n: int, connected: bool = False, antichain: bool = False,
                   max_teeth: Optional[int] = None) -> Iterator[QuasiSawFrame]:
    """Quasi-saws with exactly n points, one per isomorphism class
    (exact for <= 6 teeth, symmetry-reduced above), hubs with pairwise
    distinct successor sets."""
    top = n if max_teeth is None else min(n, max_teeth)
    for p in range(1, top + 1):
        q = n - p
        if q > (1 << p) - 1:
            continue
        if antichain and q > math.comb(p, p // 2):
            continue
        universe = range(1, 1 << p)
        for combo in itertools.combinations(universe, q):
            if antichain and any(a != b and a & b == a
                                 for a in combo for b in combo):
                continue
            if not _is_canonical(combo, p):
                continue
            if connected and not _masks_connected(combo, p):
                continue
            teeth = [f"a{i}" for i in range(p)]
            succ1 = {f"z{j}": {teeth[i] for i in range(p) if m >> i & 1}
                     for j, m in enumerate(combo)}
            yield QuasiSawFrame(teeth, [f"z{j}" for j in range(q)], succ1)


def _masks_connected(masks: Sequence[int], p: int) -> bool:
    if p == 1 or (p == 0 and len(masks) <= 1):
        return True
    if not masks:
        return False
    comps = list(masks) + [1 << i for i in range(p)
                           if not any(m >> i & 1 for m in masks)]
    merged = True
    while merged and len(comps) > 1:
        merged = False
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                if comps[i] & comps[j]:
                    comps[i] |= comps.pop(j)
                    merged = True
                    break
            if merged:
                break
    return len(comps) == 1


def canonical_saws_set(n: int, connected: bool = False,
                       max_teeth: Optional[int] = None) -> Iterator[QuasiSawFrame]:
    """Quasi-saw enumeration for the power-set frame classes: duplicate
    hub successor sets are allowed there, since depth-1 points carry
    independent memberships."""
    top = n if max_teeth is None else min(n, max_teeth)
    for p in range(1, top + 1):
        q = n - p
        universe = range(1, 1 << p)
        for combo in itertools.combinations_with_replacement(universe, q):
            if not _is_canonical(combo, p):
                continue
            if connected and not _masks_connected(combo, p):
                continue
            teeth = [f"a{i}" for i in range(p)]
            succ1 = {f"z{j}": {teeth[i] for i in range(p) if m >> i & 1}
                     for j, m in enumerate(combo)}
            yield QuasiSawFrame(teeth, [f"z{j}" for j in range(q)], succ1)


def _fork_partitions(n: int) -> Iterator[List[int]]:
    """Partitions of n into parts >= 2, as fork arities (part size - 1)."""

    def go(remaining, max_part):
        if remaining == 0:
            yield []
            return
        for part in range(min(remaining, max_part), 1, -1):
            if remaining - part == 1:
                continue
            for rest in go(remaining - part, part):
                yield [part] + rest

    for parts in go(n, n):
        yield [part - 1 for part in parts]


class _SawCtx:
    """Precomputed per-frame search state."""

    def __init__(self, saw: QuasiSawFrame):
        self.saw = saw
        self.teeth = sorted(saw.depth0)
        self.hubs = sorted(saw.depth1)
        self.p = len(self.teeth)
        self.q = len(self.hubs)
        index = {t: i for i, t in enumerate(self.teeth)}
        self.hub_masks = [sum(1 << index[t] for t in saw.succ1[z])
                          for z in self.hubs]
        self.full = (1 << self.p) - 1
        hub_last = [max((index[t] for t in saw.succ1[z]), default=-1)
                    for z in self.hubs]
        self.hub_last = hub_last
        self.hubs_done_at = [[] for _ in range(self.p)]
        for j, last in enumerate(hub_last):
            if last >= 0:
                self.hubs_done_at[last].append(j)
        self.seal_index = []
        for i in range(self.p):
            last = i
            for j, m in enumerate(self.hub_masks):
                if m >> i & 1:
                    last = max(last, hub_last[j])
            self.seal_index.append(last)
        # teeth with identical hub incidence are interchangeable
        cols = []
        for i in range(self.p):
            cols.append(sum(1 << j for j, m in enumerate(self.hub_masks)
                            if m >> i & 1))
        self.same_col_as_prev = [i > 0 and cols[i] == cols[i - 1]
                                 for i in range(self.p)]
        self.isolated = [col == 0 for col in cols]


# --- regular-closed evaluation over depth-0 supports ---

def _rc_support(t: F.Term, supp: Dict[str, int], ctx: _SawCtx) -> int:
    if isinstance(t, F.Var):
        return supp[t.name]
    if isinstance(t, F.Zero):
        return 0
    if isinstance(t, F.One):
        return ctx.full
    if isinstance(t, F.Sum):
        return _rc_support(t.left, supp, ctx) | _rc_support(t.right, supp, ctx)
    if isinstance(t, F.Prod):
        return _rc_support(t.left, supp, ctx) & _rc_support(t.right, supp, ctx)
    if isinstance(t, F.Compl):
        return ctx.full & ~_rc_support(t.arg, supp, ctx)
    raise SolverError(f"not a regular-closed term: {t!r}")


def _rc_components(support: int, ctx: _SawCtx) -> int:
    if not support:
        return 0
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    bits = [i for i in range(ctx.p) if support >> i & 1]
    for i in bits:
        parent[i] = i
    for m in ctx.hub_masks:
        mm = m & support
        if mm:
            members = [i for i in bits if mm >> i & 1]
            for other in members[1:]:
                parent[find(other)] = find(members[0])
    return len({find(i) for i in bits})


def _rc_contact(supports: List[int], ctx: _SawCtx) -> bool:
    common = ctx.full
    for s in supports:
        common &= s
    if common:
        return True
    return any(all(m & s for s in supports) for m in ctx.hub_masks)


def _rc_subset_interior(s1: int, s2: int, ctx: _SawCtx) -> bool:
    if s1 & ~s2:
        return False
    return all(not (m & s1) or not (m & ~s2 & ctx.full)
               for m in ctx.hub_masks)


def _cheap_rc(g: Formula, supp: Dict[str, int], ctx: _SawCtx) -> bool:
    if isinstance(g, Eq):
        return _rc_support(g.left, supp, ctx) == _rc_support(g.right, supp, ctx)
    if isinstance(g, Contact):
        return _rc_contact([_rc_support(t, supp, ctx) for t in g.terms], ctx)
    if isinstance(g, Rcc8):
        s1 = _rc_support(g.left, supp, ctx)
        s2 = _rc_support(g.right, supp, ctx)
        return _cheap_rcc8(g.rel, s1, s2, ctx)
    if isinstance(g, Conn):
        return _rc_components(_rc_support(g.term, supp, ctx), ctx) <= 1
    if isinstance(g, ConnLe):
        return _rc_components(_rc_support(g.term, supp, ctx), ctx) <= g.k
    if isinstance(g, Not):
        return not _cheap_rc(g.arg, supp, ctx)
    if isinstance(g, And):
        return _cheap_rc(g.left, supp, ctx) and _cheap_rc(g.right, supp, ctx)
    if isinstance(g, F.Or):
        return _cheap_rc(g.left, supp, ctx) or _cheap_rc(g.right, supp, ctx)
    if isinstance(g, F.Implies):
        return (not _cheap_rc(g.left, supp, ctx)) or _cheap_rc(g.right, supp, ctx)
    raise SolverError(f"not a formula: {g!r}")


def _cheap_rcc8(rel, s1, s2, ctx):
    if rel == "TPPi":
        return _cheap_rcc8("TPP", s2, s1, ctx)
    if rel == "NTPPi":
        return _cheap_rcc8("NTPP", s2, s1, ctx)
    contact = _rc_contact([s1, s2], ctx)
    if rel == "DC":
        return not contact
    if rel == "EQ":
        return s1 == s2
    if rel == "EC":
        return contact and not s1 & s2
    if rel == "PO":
        return bool(s1 & s2) and bool(s1 & ~s2) and bool(s2 & ~s1)
    if rel == "TPP":
        return (not s1 & ~s2 and not _rc_subset_interior(s1, s2, ctx)
                and bool(s2 & ~s1))
    if rel == "NTPP":
        return _rc_subset_interior(s1, s2, ctx) and bool(s2 & ~s1)
    raise SolverError(f"unknown relation {rel!r}")


# --- power-set evaluation over full point masks ---

def _set_term(t: F.Term, val: Dict[str, int], ctx: _SawCtx) -> int:
    p, q = ctx.p, ctx.q
    everything = (1 << (p + q)) - 1
    if isinstance(t, F.Var):
        return val[t.name]
    if isinstance(t, F.Zero):
        return 0
    if isinstance(t, F.One):
        return everything
    if isinstance(t, (F.Union, F.Sum)):
        return _set_term(t.left, val, ctx) | _set_term(t.right, val, ctx)
    if isinstance(t, (F.Inter,)):
        return _set_term(t.left, val, ctx) & _set_term(t.right, val, ctx)
    if isinstance(t, F.SetCompl):
        return everything & ~_set_term(t.arg, val, ctx)
    if isinstance(t, F.Interior):
        x = _set_term(t.arg, val, ctx)
        out = x & ctx.full
        for j, m in enumerate(ctx.hub_masks):
            if x >> (p + j) & 1 and m & ~x == 0:
                out |= 1 << (p + j)
        return out
    if isinstance(t, F.Closure):
        x = _set_term(t.arg, val, ctx)
        out = x
        for j, m in enumerate(ctx.hub_masks):
            if m & x:
                out |= 1 << (p + j)
        return out
    raise SolverError(f"not a set term: {t!r}")


def _set_components(x: int, ctx: _SawCtx) -> int:
    p = ctx.p
    points = [i for i in range(p + ctx.q) if x >> i & 1]
    if not points:
        return 0
    parent = {i: i for i in points}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for j, m in enumerate(ctx.hub_masks):
        if not x >> (p + j) & 1:
            continue
        mm = m & x
        for i in range(p):
            if mm >> i & 1:
                parent[find(i)] = find(p + j)
    return len({find(i) for i in points})


def _cheap_set(g: Formula, val: Dict[str, int], ctx: _SawCtx) -> bool:
    if isinstance(g, Eq):
        return _set_term(g.left, val, ctx) == _set_term(g.right, val, ctx)
    if isinstance(g, Contact):
        common = (1 << (ctx.p + ctx.q)) - 1
        for t in g.terms:
            common &= _set_term(t, val, ctx)
        return bool(common)
    if isinstance(g, Conn):
        return _set_components(_set_term(g.term, val, ctx), ctx) <= 1
    if isinstance(g, ConnLe):
        return _set_components(_set_term(g.term, val, ctx), ctx) <= g.k
    if isinstance(g, Not):
        return not _cheap_set(g.arg, val, ctx)
    if isinstance(g, And):
        return _cheap_set(g.left, val, ctx) and _cheap_set(g.right, val, ctx)
    if isinstance(g, F.Or):
        return _cheap_set(g.left, val, ctx) or _cheap_set(g.right, val, ctx)
    if isinstance(g, F.Implies):
        return (not _cheap_set(g.left, val, ctx)) or _cheap_set(g.right, val, ctx)
    raise SolverError(f"not a formula: {g!r}")


# --- conjunct-driven pruning ---

def _conjuncts(g: Formula) -> Iterator[Formula]:
    if isinstance(g, And):
        yield from _conjuncts(g.left)
        yield from _conjuncts(g.right)
    else:
        yield g


def _memb_tooth(t: F.Term, m: int, var_index: Dict[str, int]) -> bool:
    """Membership of a depth-0 point in a set term depends on its own
    type only: interior and closure are transparent at open points."""
    if isinstance(t, F.Var):
        return bool(m >> var_index[t.name] & 1)
    if isinstance(t, F.Zero):
        return False
    if isinstance(t, F.One):
        return True
    if isinstance(t, (F.Union, F.Sum)):
        return (_memb_tooth(t.left, m, var_index)
                or _memb_tooth(t.right, m, var_index))
    if isinstance(t, F.Inter):
        return (_memb_tooth(t.left, m, var_index)
                and _memb_tooth(t.right, m, var_index))
    if isinstance(t, F.SetCompl):
        return not _memb_tooth(t.arg, m, var_index)
    if isinstance(t, (F.Interior, F.Closure)):
        return _memb_tooth(t.arg, m, var_index)
    raise SolverError(f"not a set term: {t!r}")


def _memb_hub(t: F.Term, hm: int, tooth_types: Sequence[int],
              var_index: Dict[str, int]) -> bool:
    """Membership of a depth-1 point given its type and the types of
    its successors."""
    if isinstance(t, F.Var):
        return bool(hm >> var_index[t.name] & 1)
    if isinstance(t, F.Zero):
        return False
    if isinstance(t, F.One):
        return True
    if isinstance(t, (F.Union, F.Sum)):
        return (_memb_hub(t.left, hm, tooth_types, var_index)
                or _memb_hub(t.right, hm, tooth_types, var_index))
    if isinstance(t, F.Inter):
        return (_memb_hub(t.left, hm, tooth_types, var_index)
                and _memb_hub(t.right, hm, tooth_types, var_index))
    if isinstance(t, F.SetCompl):
        return not _memb_hub(t.arg, hm, tooth_types, var_index)
    if isinstance(t, F.Interior):
        return (_memb_hub(t.arg, hm, tooth_types, var_index)
                and all(_memb_tooth(t.arg, m, var_index) for m in tooth_types))
    if isinstance(t, F.Closure):
        return (_memb_hub(t.arg, hm, tooth_types, var_index)
                or any(_memb_tooth(t.arg, m, var_index) for m in tooth_types))
    raise SolverError(f"not a set term: {t!r}")


class _Prep:
    """Formula preprocessed for the bounded search: normalized goal plus
    filters read off the top-level conjuncts."""

    def __init__(self, f: Formula, family: Optional[str]):
        self.family = family
        if self.family == "set":
            self.goal = nnf(eq_normalize(f))
        else:
            self.goal = nnf(eq_normalize(rcc8_to_c(f)))
        self.variables = sorted(F.variables(f))
        self.var_index = {v: i for i, v in enumerate(self.variables)}
        self.conn_free = not any(isinstance(a, (Conn, ConnLe))
                                 for a in F.atoms(f))
        self.zero_terms = []
        self.ncontact_fns = []
        self.ncontact_terms = []
        self.conn_bounds = []
        for g in _conjuncts(self.goal):
            if isinstance(g, Eq) and isinstance(g.right, F.Zero):
                self.zero_terms.append(g.left)
            elif isinstance(g, Not) and isinstance(g.arg, Contact):
                self.ncontact_fns.append(
                    [compile_bool(t, self.var_index) for t in g.arg.terms])
                self.ncontact_terms.append(g.arg.terms)
            elif isinstance(g, Conn) and self.family != "set":
                self.conn_bounds.append(
                    (compile_bool(g.term, self.var_index), 1))
            elif isinstance(g, ConnLe) and self.family != "set":
                self.conn_bounds.append(
                    (compile_bool(g.term, self.var_index), g.k))
        self._admissible = None
        self._hub_tables = None

    def admissible_types(self) -> List[int]:
        if self._admissible is None:
            ncontacts = () if self.family == "set" else self.ncontact_terms
            self._admissible = _admissible_types(
                self.var_index, self.zero_terms, ncontacts)
        return self._admissible

    def hub_tables(self):
        """Per-type bitmasks over the binary forbidden contacts: bit s of
        left_mask[m] says the first term of contact s holds at type m."""
        if self._hub_tables is None:
            binary = [sig for sig in self.ncontact_fns if len(sig) == 2]
            longer = [sig for sig in self.ncontact_fns if len(sig) != 2]
            left_mask, right_mask = {}, {}
            for m in self.admissible_types():
                a = b = 0
                for s, sig in enumerate(binary):
                    if sig[0](m):
                        a |= 1 << s
                    if sig[1](m):
                        b |= 1 << s
                left_mask[m] = a
                right_mask[m] = b
            self._hub_tables = (left_mask, right_mask, longer)
        return self._hub_tables


def _search_rc(ctx: _SawCtx, prep: _Prep, counters: Dict) -> Optional[Dict[str, int]]:
    """Depth-0 type assignment for the regular-closed classes. Returns
    variable supports on success."""
    p = ctx.p
    admissible = prep.admissible_types()
    if p and not admissible:
        return None
    if prep.conn_free and p > len(admissible):
        return None
    rank = {m: i for i, m in enumerate(admissible)}
    types = [0] * p
    used = set()
    hub_bits = [[i for i in range(p) if m >> i & 1] for m in ctx.hub_masks]

    left_mask, right_mask, longer = prep.hub_tables()

    def hub_ok(j):
        a = b = 0
        for i in hub_bits[j]:
            a |= left_mask[types[i]]
            b |= right_mask[types[i]]
        if a & b:
            return False
        if longer:
            teeth_types = [types[i] for i in hub_bits[j]]
            return not any(all(any(s(m) for m in teeth_types) for s in sigma)
                           for sigma in longer)
        return True

    def sealed_ok(i):
        for fn, k in prep.conn_bounds:
            support = [t for t in range(i + 1) if fn(types[t])]
            if len(support) <= k:
                continue
            parent = {t: t for t in support}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            in_support = set(support)
            for j, last in enumerate(ctx.hub_last):
                if last > i:
                    continue
                members = [t for t in hub_bits[j] if t in in_support]
                for other in members[1:]:
                    parent[find(other)] = find(members[0])
            groups = {}
            for t in support:
                groups.setdefault(find(t), []).append(t)
            sealed = sum(1 for g in groups.values()
                         if all(ctx.seal_index[t] <= i for t in g))
            if sealed > k:
                return False
        return True

    def place(i):
        counters["nodes"] += 1
        if i == p:
            supp = {v: sum(1 << t for t in range(p)
                           if types[t] >> k & 1)
                    for v, k in prep.var_index.items()}
            return supp if _cheap_rc(prep.goal, supp, ctx) else None
        lo = 0
        if ctx.same_col_as_prev[i]:
            lo = rank[types[i - 1]]
            if not ctx.isolated[i]:
                lo += 1
        for m in admissible[lo:]:
            if prep.conn_free and m in used:
                continue
            types[i] = m
            if not all(hub_ok(j) for j in ctx.hubs_done_at[i]):
                continue
            if prep.conn_bounds and not sealed_ok(i):
                continue
            used.add(m)
            got = place(i + 1)
            if got is not None:
                return got
            used.discard(m)
        return None

    return place(0)


def _search_set(ctx: _SawCtx, prep: _Prep, counters: Dict) -> Optional[Dict[str, int]]:
    """Type assignment for the power-set classes: depth-0 types first,
    then independent depth-1 types. Returns variable point masks."""
    p, q = ctx.p, ctx.q
    admissible = prep.admissible_types()
    if p and not admissible:
        return None
    if prep.conn_free and p > len(admissible):
        return None
    rank = {m: i for i, m in enumerate(admissible)}
    types = [0] * p
    hub_types = [0] * q
    used = set()
    same_hub_as_prev = [j > 0 and ctx.hub_masks[j] == ctx.hub_masks[j - 1]
                        for j in range(q)]
    hub_teeth_types = [None] * q

    def val_masks():
        val = {}
        for v, k in prep.var_index.items():
            mask = sum(1 << t for t in range(p) if types[t] >> k & 1)
            mask |= sum(1 << (p + j) for j in range(q)
                        if hub_types[j] >> k & 1)
            val[v] = mask
        return val

    def place_hub(j):
        counters["nodes"] += 1
        if j == q:
            val = val_masks()
            return val if _cheap_set(prep.goal, val, ctx) else None
        lo = hub_types[j - 1] if same_hub_as_prev[j] else 0
        for hm in range(lo, 1 << len(prep.variables)):
            if any(_memb_hub(t, hm, hub_teeth_types[j], prep.var_index)
                   for t in prep.zero_terms):
                continue
            hub_types[j] = hm
            got = place_hub(j + 1)
            if got is not None:
                return got
        return None

    def place(i):
        counters["nodes"] += 1
        if i == p:
            for j, m in enumerate(ctx.hub_masks):
                hub_teeth_types[j] = [types[t] for t in range(p) if m >> t & 1]
            return place_hub(0)
        lo = 0
        if ctx.same_col_as_prev[i]:
            lo = rank[types[i - 1]]
            if not ctx.isolated[i]:
                lo += 1
        for m in admissible[lo:]:
            if prep.conn_free and m in used:
                continue
            types[i] = m
            used.add(m)
            got = place(i + 1)
            if got is not None:
                return got
            used.discard(m)
        return None

    return place(0)


# ---------------------------------------------------------------------------
# Bounded satisfiability

def _frames_at(n: int, frame_class: str, prep: _Prep) -> Iterator[QuasiSawFrame]:
    cap = (1 << len(prep.variables)) if prep.conn_free else None
    if frame_class == "fence":
        if n % 2 == 1:
            yield make_fence((n + 1) // 2)
    elif frame_class == "regc":
        if prep.conn_free:
            for arities in _fork_partitions(n):
                yield make_fork_frame(arities)
        else:
            yield from canonical_saws(n, connected=False, antichain=True)
    elif frame_class == "conregc":
        yield from canonical_saws(n, connected=True, antichain=True,
                                  max_teeth=cap)
    elif frame_class == "all":
        yield from canonical_saws_set(n, connected=False, max_teeth=cap)
    elif frame_class == "con":
        yield from canonical_saws_set(n, connected=True, max_teeth=cap)
    else:
        raise SolverError(f"unknown frame class {frame_class!r}")


def _check_class(family: Optional[str], frame_class: str):
    if family == "rc" and frame_class in ("all", "con"):
        raise SolverError("regular-closed formula on a raw set frame class")
    if family == "set" and frame_class in ("regc", "conregc", "fence"):
        raise SolverError("set-operator formula on a regular-closed frame class")


def _empty_sat(f: Formula, frame_class: str, tb, start) -> Optional[SolveResult]:
    if frame_class == "fence" or not empty_space_eval(f):
        return None
    frame = QuasiSawFrame([], [], {})
    model = Model(frame, {v: frozenset() for v in F.variables(f)}, frame_class)
    result = SolveResult(SAT, model, 0, COMPLETE, "bounded", tb,
                         {"nodes": 0, "frames": 0,
                          "time": time.monotonic() - start})
    return _verified(result, f)


def sat_bounded(f: Formula, frame_class: str = "regc", max_points: int = 8,
                time_budget: Optional[float] = None) -> SolveResult:
    """Iterative-deepening satisfiability over canonical frames of the
    requested class, up to max_points points. A negative verdict is
    complete only when max_points reaches the theoretical bound."""
    return _sat_bounded(f, frame_class, max_points, time_budget,
                        F.classify(f), F.formula_family(f))


def _sat_bounded(f: Formula, frame_class: str, max_points: int,
                 time_budget: Optional[float], tag: str,
                 family: Optional[str]) -> SolveResult:
    if max_points < 0:
        raise SolverError("bound must be nonnegative")
    _check_class(family, frame_class)
    start = time.monotonic()
    tb = _theoretical_bound(f, frame_class, tag)
    got = _empty_sat(f, frame_class, tb, start)
    if got is not None:
        return got
    prep = _Prep(f, family)
    nvals = 1 << len(prep.variables)
    counters = {"nodes": 0, "frames": 0}
    search = _search_set if prep.family == "set" else _search_rc
    for n in range(1, max_points + 1):
        for frame in _frames_at(n, frame_class, prep):
            if time_budget is not None and time.monotonic() - start > time_budget:
                return SolveResult(
                    UNSAT_WITHIN_BOUND, None, n - 1, BOUNDED, "bounded", tb,
                    {**counters, "aborted": True,
                     "time": time.monotonic() - start})
            counters["frames"] += 1
            ctx = _SawCtx(frame)
            if prep.conn_free and ctx.p > nvals:
                continue
            found = search(ctx, prep, counters)
            if found is None:
                continue
            if prep.family == "set":
                valuation = {v: frozenset(
                    ([ctx.teeth[i] for i in range(ctx.p) if mask >> i & 1]
                     + [ctx.hubs[j] for j in range(ctx.q)
                        if mask >> (ctx.p + j) & 1]))
                    for v, mask in found.items()}
            else:
                valuation = {v: frame.rc_from_support(frozenset(
                    ctx.teeth[i] for i in range(ctx.p) if mask >> i & 1))
                    for v, mask in found.items()}
            model = Model(frame, valuation, frame_class)
            result = SolveResult(SAT, model, n, COMPLETE, "bounded", tb,
                                 {**counters,
                                  "time": time.monotonic() - start})
            return _verified(result, f)
    if tb is not None and max_points >= tb:
        return SolveResult(UNSAT, None, max_points, COMPLETE, "bounded", tb,
                           {**counters, "time": time.monotonic() - start})
    return SolveResult(UNSAT_WITHIN_BOUND, None, max_points, BOUNDED,
                       "bounded", tb,
                       {**counters, "time": time.monotonic() - start})


def solve(f: Formula, frame_class: str = "regc", max_points: int = 8,
          time_budget: Optional[float] = None) -> SolveResult:
    """Route to the complete fork procedure when it applies, else to the
    bounded search."""
    tag = F.classify(f)
    if forks_decide(tag, frame_class):
        return _sat_forks(f, frame_class, tag)
    return _sat_bounded(f, frame_class, max_points, time_budget, tag,
                        F.formula_family(f))
