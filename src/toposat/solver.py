"""Decision procedures.

Two routes; `forks_decide` says which one a language takes. `sat_forks`
is the complete NP procedure for contact languages without
connectedness predicates: a pruned search over the formula's Boolean
skeleton (`formula.literal_sets`) yields satisfying literal sets, as
atoms with their truth values, and each existential literal is
realized on its own fork, whose tooth types a bit-level search finds
on demand among those the universal literals admit. `sat_bounded`
searches canonical quasi-saws one size at a time, with depth-0 supports
driving the valuations, and fences by one left-to-right sweep over
deduplicated states, one interval per step (`_sweep_fence`); it reports
a complete refutation only when the requested bound reaches a proven
finite-model bound, which is known for the fork languages alone. The
frame class says whether variables range over regular closed sets or
over arbitrary sets (`frames.RC_CLASSES`).

`solve` adds two steps to the bounded search. On every frame class it
first looks for a unit conflict: a top-level conjunct g whose negation
!g is a top-level conjunct too (`_unit_conflict`). Such a formula is
false in every model, so the run ends at once in a complete UNSAT,
method "units", before the formula is normalized or any frame is
built. Over regc and conregc, once the empty space and the one-point
frames have failed, the fork search (`_fork_teeth`, which `sat_forks`
builds its models from) asks whether the conn-free relaxation has a
model over regc (`_relaxation_refuted`). If it has none, neither has
the formula, and the run ends in a complete UNSAT, method
"relaxed-forks"; otherwise the bounded search goes on as `sat_bounded`
runs it. The fork route takes neither step, since its literal-set
search already meets a unit conflict before it searches any type, and
`sat_bounded` takes neither, so that it stays the plain search.

Both routes share one term compiler, `_Terms`, which turns a term once
into a function of per-variable masks: at one point of a complete type
(the hub check, the conn bounds) it gives the point's 0/1 membership,
and over the masks of a quasi-saw's teeth (regular closed regions) or
of all its points (the power-set classes) the mask of the term's
points. The normalized goal is compiled once per bounded run, its
Boolean structure by one routine whatever reads its atoms, and one
routine counts components. A quasi-saw leaf compiles only the
top-level conjuncts the search does not already keep true (`_Prep`).

One three-valued search, `formula.KleeneGates`, finds both the literal
sets (watching the negated skeleton) and the tooth types (`_ToothTypes`,
watching the checks and the negated wanted term).

The quasi-saw search repeats no work it can keep. The tooth search
carries each variable's and each conn bound's support from one tooth
to the next (`_place_teeth`), and the frames of each size, with their
contexts, are listed once per process (`_frames_at`).

Every route leaves through one exit, `_result`, which re-checks a SAT
certificate against the plain model checker; a result's completeness
follows from its status. `_model` builds every certificate, and
`_check_clock` reads every budget, also while a formula is prepared.
"""

import copy
import itertools
import math
import time
from functools import cached_property, partial, reduce
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import formula as F
from .formula import And, Conn, ConnLe, Contact, Eq, Formula, Not
from .frames import (CONNECTED_CLASSES, FRAME_CLASSES, RC_CLASSES, Model,
                     QuasiSawFrame, connectify, family_mismatch, make_fence,
                     make_fork_frame)
from .semantics import holds
from .transform import eq_normalize, nnf, rcc8_to_c


class SolverError(Exception):
    """Unusable input for the requested procedure."""


SAT = "SAT"
UNSAT = "UNSAT"
UNSAT_WITHIN_BOUND = "UNSAT_WITHIN_BOUND"

COMPLETE = "COMPLETE"
BOUNDED = "BOUNDED"


@dataclass
class SolveResult:
    """A verdict, built by `_result`, the one exit of every route, whose
    budget is read once the formula's language is known. Its completeness
    follows from its status: only UNSAT_WITHIN_BOUND is bounded."""
    status: str
    certificate: Optional[Model] = None
    bound_used: int = 0
    method: str = ""
    theoretical_bound: Optional[int] = None
    stats: Dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status == SAT and self.certificate is None:
            raise SolverError("satisfying verdict without certificate")

    @property
    def completeness(self) -> str:
        return BOUNDED if self.status == UNSAT_WITHIN_BOUND else COMPLETE


def check_certificate(model: Model, f: Formula) -> bool:
    return holds(model, f).truth


def _result(f: Formula, start: float, status: str, method: str,
            tb: Optional[int], stats: Dict, bound: int = 0,
            model: Optional[Model] = None) -> SolveResult:
    """The one exit of every route. A certificate must pass the re-check
    against f, or `SolverError` is raised, and its point count is the
    bound used; `stats["time"]` runs from `start` to the end of it all."""
    if model is not None:
        if not check_certificate(model, f):
            raise SolverError("certificate failed re-verification")
        bound = len(model.frame.points)
    stats["time"] = time.monotonic() - start
    return SolveResult(status, model, bound, method, tb, stats)


def _model(frame, points: Sequence[str], masks: Iterable[int],
           variables: Sequence[str], frame_class: str) -> Model:
    """The model over `frame` whose k-th variable holds the points that
    bit i of masks[k] picks out of `points`: as they are over the
    power-set classes, as the regular closed set they support
    otherwise."""
    whole = frame_class not in RC_CLASSES
    valuation = {}
    for v, mask in zip(variables, masks):
        chosen = frozenset(x for i, x in enumerate(points) if mask >> i & 1)
        valuation[v] = chosen if whole else frame.rc_from_support(chosen)
    return Model(frame, valuation, frame_class)


class _Timeout(Exception):
    """The time budget ran out."""


def _check_clock(deadline: Optional[float]):
    """Raise `_Timeout` once `deadline`, a `time.monotonic()` reading,
    has passed; None sets no deadline."""
    if deadline is not None and time.monotonic() > deadline:
        raise _Timeout


# ---------------------------------------------------------------------------
# Term evaluation: one compiled form for every term and formula

def _zero(V, C):
    return 0


def _one(V, C):
    return 1


def _either(a, b):
    return lambda V, C: a(V, C) or b(V, C)


def _both(a, b):
    return lambda V, C: a(V, C) and b(V, C)


def _or(a, b):
    return lambda V, C: a(V, C) | b(V, C)


def _and(a, b):
    return lambda V, C: a(V, C) & b(V, C)


class _Terms:
    """Terms over one variable order, each compiled once into a function
    of an input (V, C). `_compile` walks the term; how the input is read
    gives the steps it combines (var, zero, one, join, meet, flip,
    interior, closure).

    This class reads one point of a complete type: V is the mask of the
    variables the type holds, C is unused, a term compiles to the point's
    0/1 membership in it, and interior and closure are transparent at a
    lone point, as at a tooth."""

    zero, one = staticmethod(_zero), staticmethod(_one)
    join, meet = staticmethod(_either), staticmethod(_both)
    var = staticmethod(lambda k: lambda V, C: V >> k & 1)
    flip = staticmethod(lambda a: lambda V, C: 1 ^ a(V, C))
    interior = closure = staticmethod(lambda a: a)

    def __init__(self, var_index: Dict[str, int]):
        self.var_index = var_index
        self._vars = {v: self.var(k) for v, k in var_index.items()}
        self._compiled: Dict[F.Term, object] = {}

    def __call__(self, t: F.Term):
        """Term t compiled, once for all terms equal to it. Compiling and
        evaluating recurse once per level of t, as the tree-walkers they
        replace did."""
        got = self._compiled.get(t)
        if got is None:
            got = self._compiled[t] = self._compile(t)
        return got

    def _compile(self, s):
        if isinstance(s, F.Var):
            return self._vars[s.name]
        if isinstance(s, (F.Sum, F.Union)):
            return self.join(self._compile(s.left), self._compile(s.right))
        if isinstance(s, (F.Prod, F.Inter)):
            return self.meet(self._compile(s.left), self._compile(s.right))
        if isinstance(s, (F.Compl, F.SetCompl)):
            return self.flip(self._compile(s.arg))
        if isinstance(s, F.Zero):
            return self.zero
        if isinstance(s, F.One):
            return self.one
        if isinstance(s, F.Interior):
            return self.interior(self._compile(s.arg))
        if isinstance(s, F.Closure):
            return self.closure(self._compile(s.arg))
        raise SolverError(f"not a term: {s!r}")


class _MaskTerms(_Terms):
    """Terms read over the points of a quasi-saw: C is a _SawCtx and V
    holds each variable's points as a mask over C.unit, which is the
    teeth for the regular closed classes, whose regions are their tooth
    supports, and every point for the power-set classes, the only ones
    whose terms apply interior and closure. A term compiles to the mask
    of its points."""

    join, meet = staticmethod(_or), staticmethod(_and)
    var = staticmethod(lambda k: lambda V, C: V[k])
    one = staticmethod(lambda V, C: C.unit)
    flip = staticmethod(lambda a: lambda V, C: C.unit & ~a(V, C))
    interior = staticmethod(lambda a: lambda V, C: C.interior(a(V, C)))
    closure = staticmethod(lambda a: lambda V, C: C.closure(a(V, C)))


def _goal(g: Formula, atom: Callable) -> Callable:
    """A normalized goal (negation on atoms only, no implications, no
    relation atoms) as one function of (V, C); `atom` compiles each atom
    into one."""

    def leaf(a, _):
        if isinstance(a, F.Rcc8):
            raise SolverError(f"not a normalized formula: {a!r}")
        return atom(a)

    def node(h, _, a, b=None):
        kind = type(h)
        if kind is Not:
            return lambda V, C: not a(V, C)
        if kind is F.Implies:
            raise SolverError(f"not a normalized formula: {h!r}")
        return (_both if kind is And else _either)(a, b)

    return F.fold(g, leaf, node)


def _mask_atom(terms: _MaskTerms) -> Callable:
    """Atoms as functions of (V, C) for `_MaskTerms`."""

    def atom(g):
        if isinstance(g, Eq):
            left, right = terms(g.left), terms(g.right)
            return lambda V, C: left(V, C) == right(V, C)
        if isinstance(g, Contact):
            ys = [terms(t) for t in g.terms]
            return lambda V, C: C.contact([y(V, C) for y in ys])
        y = terms(g.term)
        k = g.k if isinstance(g, ConnLe) else 1
        return lambda V, C: len(C.components(y(V, C))) <= k

    return atom


def _components(x: int, links: Iterable[int]) -> List[int]:
    """The connected components of the points in mask x, as masks, where
    each link joins its points in x."""
    comps = []
    for link in links:
        joined = link & x
        if joined:
            rest = []
            for c in comps:
                if c & joined:
                    joined |= c
                else:
                    rest.append(c)
            rest.append(joined)
            comps = rest
    for c in comps:
        x &= ~c
    while x:
        comps.append(x & -x)
        x &= x - 1
    return comps


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bits(flags: Iterable[int]) -> int:
    """The int whose binary digits, highest first, are the given 0/1
    flags, built in time linear in their number."""
    return int(bytes(flags).translate(_DIGITS), 2)


class _HubCheck:
    """Contacts seen from a hub, over per-type masks: bit s of
    masks(m)[r] says a point of type m lies in term r of contact s, and a
    contact of fewer than r + 1 terms has bit s set at position r anyway.
    A hub sees contact s when for every position one of its teeth has
    bit s there; a forbidden contact seen is violated. Each position
    keeps one term per contact, the last contact first, and a type's
    masks are read off those terms' 0/1 memberships at a point of the
    type (`_Terms`) at once, so time and memory are linear in the number
    of contacts."""

    def __init__(self, contacts: Sequence[Sequence[F.Term]], point: _Terms):
        width = max(map(len, contacts), default=0)
        last_first = contacts[::-1]
        self.pad = [_bits(len(sigma) <= r for sigma in last_first)
                    for r in range(width)]
        self.terms = [[point(sigma[r]) if r < len(sigma) else _zero
                       for sigma in last_first] for r in range(width)]
        self._masks: Dict[int, List[int]] = {}

    def masks(self, m: int) -> List[int]:
        got = self._masks.get(m)
        if got is None:
            got = self._masks[m] = [_bits(y(m, None) for y in terms)
                                    for terms in self.terms]
        return got

    def seen(self, types: Iterable[int]) -> int:
        """The contacts a hub over teeth of these types sees, as a mask."""
        if not self.pad:
            return 0
        seen = list(self.pad)
        for m in types:
            for r, mask in enumerate(self.masks(m)):
                seen[r] |= mask
        return reduce(int.__and__, seen)

    def sees(self, types: Iterable[int]) -> bool:
        """Whether a hub over teeth of these types sees a forbidden contact."""
        return self.seen(types) != 0


class _ToothTypes(_Terms):
    """Depth-0 point types avoiding every zero term and every forbidden
    contact realized at a single point, found on demand. Terms compile
    as in `_Terms` into gates of one `formula.KleeneGates` (`dag`), each
    variable a leaf, equal terms one gate, interior and closure
    transparent at a point. Each check (a zero term, or the conjunction
    of a forbidden contact's terms) is a gate. The search for a term's
    types assigns variable 0 first, and cuts once a check or the term's
    negation is forced True. Each wanted term's types are drawn once and
    kept, because `_find_fork` backtracks over them. Past `deadline` (a
    `time.monotonic()` reading, or None) the checks' compilation and the
    search raise `_Timeout`."""

    def __init__(self, point: _Terms, zero_terms: Sequence[F.Term],
                 ncontact_terms: Sequence[Sequence[F.Term]],
                 deadline: Optional[float]):
        dag = self.dag = F.KleeneGates()
        self.var = lambda k: dag.leaf()
        self.zero, self.one = dag.join(), dag.meet()
        self.join, self.meet, self.flip = dag.join, dag.meet, dag.neg
        super().__init__(point.var_index)
        self.leaves = list(self._vars.values())
        self.weights = [1 << k for k in range(len(self.leaves))]
        self.tick = None if deadline is None else partial(_check_clock, deadline)
        self._found: Dict[F.Term, Iterator[int]] = {}
        self.checks = []
        for check in [[t] for t in zero_terms] + [list(s) for s in ncontact_terms]:
            _check_clock(deadline)
            self.checks.append(dag.meet(*map(self, check)))

    @property
    def nodes(self) -> int:
        return self.dag.nodes

    def of(self, want: F.Term) -> Iterator[int]:
        """The types in `want`, in search order, from the first on. All
        iterations over one term, nested ones included, share one run of
        its search: they are copies of one `itertools.tee` iterator."""
        found = self._found.get(want)
        if found is None:
            found = self._found[want] = itertools.tee(self.search(want), 1)[0]
        return copy.copy(found)

    def search(self, want: Optional[F.Term]) -> Iterator[int]:
        """The types in `want` (every type for None), in search order."""
        watched = list(self.checks)
        if want is not None:
            watched.append(self.flip(self(want)))
        weights = self.weights
        return map(lambda truth: sum(itertools.compress(weights, truth)),
                   self.dag.search(self.leaves, watched, self.tick))


def _admissible_types(point: _Terms, zero_terms: Sequence[F.Term],
                      ncontact_terms: Sequence[Sequence[F.Term]],
                      deadline: Optional[float]) -> List[int]:
    """Every admissible depth-0 point type, in search order."""
    return list(_ToothTypes(point, zero_terms, ncontact_terms,
                            deadline).search(None))


def fork_bound(f: Formula) -> int:
    """Points needed by a disjoint-fork model per the fork procedure:
    one (arity+1)-fork per potentially existential atom."""
    return _fork_bound(rcc8_to_c(f))


def _fork_bound(c: Formula) -> int:
    """`fork_bound` of c, a formula without relation atoms."""
    total = 0
    for a in set(F.atoms(c)):
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
    return _theoretical_bound(rcc8_to_c(f), frame_class, F.classify(f))


def _theoretical_bound(c: Formula, frame_class: str, tag: str) -> Optional[int]:
    """`theoretical_bound` of c, a formula without relation atoms whose
    language is `tag`: the fork bound where the fork procedure decides;
    no bound is proven for connectedness atoms, set operators or fences."""
    if forks_decide(tag, frame_class):
        return _fork_bound(c) + (frame_class == "conregc")
    return None


# ---------------------------------------------------------------------------
# Fork procedure

def sat_forks(f: Formula, frame_class: str = "regc") -> SolveResult:
    """Complete satisfiability for contact formulas without
    connectedness atoms, over the regular-closed frame classes."""
    start = time.monotonic()
    tag, family = F.language(f)
    if not forks_decide(tag, frame_class):
        raise SolverError(f"the fork procedure decides B, RCC8, C and Cm over "
                          f"regc and B and RCC8 over conregc, got {tag} over "
                          f"{frame_class}")
    return _sat_forks(f, frame_class, tag, family, start, None)


def _sat_forks(f: Formula, frame_class: str, tag: str, family: Optional[str],
               start: float, deadline: Optional[float]) -> SolveResult:
    """The fork procedure, for a language `forks_decide` gives it; past
    `deadline` (a `time.monotonic()` reading, or None) it stops with an
    aborted UNSAT_WITHIN_BOUND at bound 0, with no theoretical bound if
    it stopped before the relation atoms were written as contacts. They
    are written so once, for the search and for the theoretical bound."""
    tb = None
    try:
        _check_clock(deadline)
        c = rcc8_to_c(f)
        tb = _theoretical_bound(c, frame_class, tag)
        _check_clock(deadline)
        g = eq_normalize(c, family)
        _check_clock(deadline)
        variables = sorted(F.variables(g))
        var_index = {v: i for i, v in enumerate(variables)}
        fork_teeth, nodes = _fork_teeth(g, _Terms(var_index), deadline)
    except _Timeout:
        return _result(f, start, UNSAT_WITHIN_BOUND, "forks", tb,
                       {"aborted": True})
    if fork_teeth is None:
        return _result(f, start, UNSAT, "forks", tb, {"nodes": nodes})
    frame = make_fork_frame([len(ts) for ts in fork_teeth])
    points = [f"t{i}_{j}" for i, teeth in enumerate(fork_teeth)
              for j in range(len(teeth))]
    types = [m for teeth in fork_teeth for m in teeth]
    masks = [sum(1 << i for i, m in enumerate(types) if m >> k & 1)
             for k in range(len(variables))]
    if frame_class == "conregc" and not frame.is_connected():
        model = connectify(_model(frame, points, masks, variables, "regc"),
                           "b" if tag == "B" else "rcc8")
    else:
        model = _model(frame, points, masks, variables, frame_class)
    return _result(f, start, SAT, "forks", tb, {"nodes": nodes}, model=model)


def _fork_teeth(g: Formula, point: _Terms, deadline: Optional[float]
                ) -> Tuple[Optional[List[List[int]]], int]:
    """The fork search over g, a Boolean combination of equations `t = 0`
    and contacts, whose variables `point` indexes. It walks the literal
    sets of g (`formula.literal_sets`), atoms by first occurrence, and
    realizes each existential literal of one on its own fork, with tooth
    types the universal literals admit. Returns the teeth of each fork
    of the first literal set realized, nonzeros first, or None when none
    is, which refutes g over regc; and the nodes searched. Past
    `deadline` it raises `_Timeout`: the clock is read once per literal
    set and in the type search."""
    nodes = 0
    for literals in F.literal_sets(g):
        _check_clock(deadline)
        zeros, nonzeros, contacts, ncontacts = [], [], [], []
        for atom, truth in literals:
            if isinstance(atom, Eq):
                (zeros if truth else nonzeros).append(atom.left)
            elif isinstance(atom, Contact):
                (contacts if truth else ncontacts).append(atom.terms)
            else:
                raise SolverError(f"unexpected atom {atom!r}")

        # without existential literals the empty space is a model
        types = _ToothTypes(point, zeros, ncontacts, deadline)
        fork_teeth = []
        for t in nonzeros:
            tooth = next(types.of(t), None)
            if tooth is None:
                break
            fork_teeth.append([tooth])
        else:
            hub = _HubCheck(ncontacts, point)
            for terms in contacts:
                teeth = _find_fork(terms, types, hub)
                if teeth is None:
                    break
                fork_teeth.append(teeth)
        nodes += types.nodes + 1
        if len(fork_teeth) == len(nonzeros) + len(contacts):
            return fork_teeth, nodes
    return None, nodes


def _find_fork(terms, types: _ToothTypes, hub: _HubCheck):
    """Teeth t_i in terms[i] such that the hub sees no forbidden contact.
    Violation is monotone in the tooth set, so a bad prefix is pruned
    outright."""
    k = len(terms)
    teeth = []

    def go(i):
        if i == k:
            return True
        for m in types.of(terms[i]):
            teeth.append(m)
            if not hub.sees(teeth) and go(i + 1):
                return True
            teeth.pop()
        return False

    return list(teeth) if go(0) else None


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


def canonical_saws(n: int, connected: bool = False, hubs: str = "distinct",
                   max_teeth: Optional[int] = None) -> Iterator[QuasiSawFrame]:
    """Quasi-saws with exactly n points, one per isomorphism class (exact
    for <= 6 teeth, symmetry-reduced above). The hubs' successor sets are
    pairwise distinct ("distinct"), pairwise incomparable ("antichain"),
    or may repeat ("repeated"): the power-set classes need repeats, since
    depth-1 points carry independent memberships there."""
    top = n if max_teeth is None else min(n, max_teeth)
    antichain = hubs == "antichain"
    choose = (itertools.combinations_with_replacement if hubs == "repeated"
              else itertools.combinations)
    for p in range(1, top + 1):
        q = n - p
        if antichain and q > math.comb(p, p // 2):
            continue
        for combo in choose(range(1, 1 << p), q):
            if antichain and any(a != b and a & b == a
                                 for a in combo for b in combo):
                continue
            if not _is_canonical(combo, p):
                continue
            if connected and len(_components((1 << p) - 1, combo)) > 1:
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
    """Precomputed per-frame search state. Valuations range over `unit`:
    the teeth, or every point when `whole` (the power-set classes).
    `forks` marks a disjoint union of forks (`_fork_partitions`)."""

    def __init__(self, saw: QuasiSawFrame, whole: bool, forks: bool = False):
        self.forks = forks
        self.teeth = sorted(saw.depth0)
        self.hubs = sorted(saw.depth1)
        self.p = len(self.teeth)
        self.q = len(self.hubs)
        self.whole = whole
        index = {t: i for i, t in enumerate(self.teeth)}
        self.hub_masks = [sum(1 << index[t] for t in saw.succ1[z])
                          for z in self.hubs]
        self.full = (1 << self.p) - 1
        self.unit = (1 << (self.p + self.q)) - 1 if whole else self.full
        hub_last = [max((index[t] for t in saw.succ1[z]), default=-1)
                    for z in self.hubs]
        # hubs_done_at[i]: the teeth, as index lists, of each hub whose
        # teeth are all typed once tooth i is
        self.hubs_done_at = [[] for _ in range(self.p)]
        for m, last in zip(self.hub_masks, hub_last):
            if last >= 0:
                self.hubs_done_at[last].append(
                    [t for t in range(self.p) if m >> t & 1])
        # hubs_done_by[i]: the hubs, as masks, all of whose teeth are typed
        # with tooth i
        self.hubs_done_by = [[m for m, last in zip(self.hub_masks, hub_last)
                              if last <= i] for i in range(self.p)]
        # sealed_by[i]: the teeth whose hubs are all complete with tooth i
        seal = [max([i] + [hub_last[j] for j, m in enumerate(self.hub_masks)
                           if m >> i & 1]) for i in range(self.p)]
        self.sealed_by = [sum(1 << t for t in range(self.p) if seal[t] <= i)
                          for i in range(self.p)]
        # teeth with identical hub incidence are interchangeable
        cols = [sum(1 << j for j, m in enumerate(self.hub_masks) if m >> i & 1)
                for i in range(self.p)]
        self.same_col_as_prev = [i > 0 and cols[i] == cols[i - 1]
                                 for i in range(self.p)]
        self.isolated = [col == 0 for col in cols]

    def interior(self, x: int) -> int:
        out = x & self.full
        for j, m in enumerate(self.hub_masks):
            if x >> (self.p + j) & 1 and m & ~x == 0:
                out |= 1 << (self.p + j)
        return out

    def closure(self, x: int) -> int:
        for j, m in enumerate(self.hub_masks):
            if m & x:
                x |= 1 << (self.p + j)
        return x

    def contact(self, supports: List[int]) -> bool:
        """Regular closed sets given by their supports share a point."""
        return bool(reduce(int.__and__, supports)) or any(
            all(m & s for s in supports) for m in self.hub_masks)

    def components(self, x: int) -> List[int]:
        """The components of the set with mask x, as masks. A regular
        closed set holds every hub seeing its support, so every hub links
        its teeth there; a raw set links only through its own hubs."""
        if not self.whole:
            return _components(x, self.hub_masks)
        p = self.p
        return _components(x, [m | 1 << (p + j)
                               for j, m in enumerate(self.hub_masks)
                               if x >> (p + j) & 1])


def _cheap_rc(goal: Callable, supports: List[int], ctx: _SawCtx) -> bool:
    """The compiled goal at a leaf of `_search_rc`, given the tooth
    support of every variable."""
    return goal(supports, ctx)


def _cheap_set(goal: Callable, masks: List[int], ctx: _SawCtx) -> bool:
    """The compiled goal at a leaf of `_search_set`, given the points of
    every variable."""
    return goal(masks, ctx)


class _Prep:
    """Formula c, without relation atoms (`rcc8_to_c`), preprocessed for
    the bounded search: the normalized goal (`normal`), filters read off
    its top-level conjuncts, and the goal the quasi-saw leaves read
    (`goal`), compiled on first use. Its variables range over arbitrary
    sets when `whole`, over regular closed sets otherwise; only the
    latter take contact atoms. `tag` and `family` are what
    `formula.language` gives the formula c was translated from.

    The searches keep three kinds of top-level conjunct true at every
    leaf, so `goal` reads only the others (`rest`), as a flat tuple of
    compiled conjuncts:
    - `t = 0` (`zero_terms`): a tooth's membership in any term depends
      on its own type alone, and every tooth takes an admissible type,
      which lies in no zero term. In the power-set classes a hub's
      membership depends on its own type and its teeth', and
      `_search_set` gives a hub no type that `zero_points` puts in a
      zero term.
    - `!C(t1, ..., tk)` (`ncontact_terms`): a contact holds at a tooth
      of every ti or at a hub seeing each ti among its teeth. No
      admissible type lies in all the ti, and `_search_rc`'s `fits`
      hands each hub to `hub.sees` once, at the tooth that completes
      it (`_SawCtx.hubs_done_at`). Contacts reach the regular-closed
      classes only.
    - `conn`/`conn_le` in the regular-closed classes (`conn_bounds`,
      each its term's membership at a point of a type, as `point`
      reads it, and its bound): `fits` runs `sealed_ok` at every tooth, and at the last one every
      hub links its teeth and every tooth is sealed, so it counts every
      component of the term's support.
    Each of them is also true in the empty space, so `goal` over an
    empty `_SawCtx` decides the empty space. Past `deadline` the
    rewrites, the conjunct loop and the type listing raise `_Timeout`."""

    def __init__(self, c: Formula, tag: str, family: Optional[str],
                 whole: bool, deadline: Optional[float]):
        self.deadline = deadline
        _check_clock(deadline)
        g = eq_normalize(c, family)
        _check_clock(deadline)
        self.normal = nnf(g)
        self.variables = sorted(F.variables(c))
        self.var_index = {v: i for i, v in enumerate(self.variables)}
        self.point = _Terms(self.var_index)
        self.masks = masks = _MaskTerms(self.var_index)
        self.conn_free = not tag.endswith("c")
        self.zero_terms = []
        self.ncontact_terms = []
        self.conn_bounds = []
        self.rest = []
        for g in F.operands(self.normal, And):
            _check_clock(deadline)
            if isinstance(g, Eq) and isinstance(g.right, F.Zero):
                self.zero_terms.append(g.left)
            elif isinstance(g, Not) and isinstance(g.arg, Contact):
                self.ncontact_terms.append(g.arg.terms)
            elif isinstance(g, (Conn, ConnLe)) and not whole:
                self.conn_bounds.append(
                    (self.point(g.term),
                     g.k if isinstance(g, ConnLe) else 1))
            else:
                self.rest.append(g)
        self.hub = _HubCheck(self.ncontact_terms, self.point)
        # the points in some zero term, as a mask, for the hub types of
        # the power-set classes
        self.zero_points = (reduce(_or, [masks(t) for t in self.zero_terms])
                            if whole and self.zero_terms else None)
        self._admissible = None

    @cached_property
    def goal(self) -> Callable:
        """The conjuncts in `rest` over the masks of a quasi-saw's points."""
        atom = _mask_atom(self.masks)
        rest = tuple(_goal(g, atom) for g in self.rest)

        def goal(V, C):
            for g in rest:
                if not g(V, C):
                    return False
            return True

        return goal

    def admissible_types(self) -> List[int]:
        """The admissible depth-0 types; `inside[m]` then has bit c set
        when type m lies in the term of conn bound c, and `marks[m]`
        lists the running supports of `_place_teeth` a tooth of type m
        joins: its variables, then n + c for each such bound c, n being
        the number of variables."""
        if self._admissible is None:
            types = _admissible_types(self.point, self.zero_terms,
                                      self.ncontact_terms, self.deadline)
            self.inside = {m: sum(1 << c for c, (y, _) in
                                  enumerate(self.conn_bounds)
                                  if y(m, None)) for m in types}
            n = len(self.variables)
            self.marks = {m: [k for k in range(n) if m >> k & 1]
                          + [n + c for c in range(len(self.conn_bounds))
                             if self.inside[m] >> c & 1] for m in types}
            self._admissible = types
        return self._admissible


def _place_teeth(ctx: _SawCtx, prep: _Prep, counters: Dict,
                 fits: Callable, done: Callable):
    """Admissible depth-0 types for the teeth in order; a tooth with the
    same hubs as the one before takes a later type, or the same one when
    both are isolated or the sets are arbitrary (a set holding both teeth
    but not their hub has two components). When no conn atom occurs,
    each type is taken once on a canonical quasi-saw, where two teeth of
    one type merge into one under the union of their hubs; on a union of
    forks (`ctx.forks`) no such merge exists across forks, so a type may
    recur in different forks.
    The search keeps one list of running supports per tooth: `rows[i]`
    holds, over the teeth before tooth i, the support of each variable
    and then of each conn bound's term (`prep.marks`), and each row is
    the one before with the new tooth's bit added.
    `fits(types, i, rows[i])` prunes once tooth i is typed;
    `done(types, rows[p])` gives the answer for a complete typing, or
    None to go on."""
    p = ctx.p
    admissible = prep.admissible_types()
    once = prep.conn_free and not ctx.forks
    if p and not admissible or once and p > len(admissible):
        return None
    rank = {m: i for i, m in enumerate(admissible)}
    marks = prep.marks
    types = [0] * p
    rows = [[0] * (len(prep.variables) + len(prep.conn_bounds))] * (p + 1)
    used = set()

    def place(i):
        counters["nodes"] += 1
        _check_clock(prep.deadline)
        if i == p:
            return done(types, rows[p])
        lo = 0
        if ctx.same_col_as_prev[i]:
            lo = rank[types[i - 1]]
            if not (ctx.isolated[i] or ctx.whole):
                lo += 1
        row, bit = rows[i], 1 << i
        for m in admissible[lo:]:
            if once and m in used:
                continue
            types[i] = m
            if not fits(types, i, row):
                continue
            grown = rows[i + 1] = row[:]
            for j in marks[m]:
                grown[j] |= bit
            used.add(m)
            got = place(i + 1)
            if got is not None:
                return got
            used.discard(m)
        return None

    return place(0)


def _search_rc(ctx: _SawCtx, prep: _Prep, counters: Dict) -> Optional[List[int]]:
    """Depth-0 type assignment for the regular-closed classes. Returns
    the tooth support of every variable on success. A leaf reads only
    `prep.goal`: the teeth take admissible types, so every `t = 0` and
    every forbidden contact at a tooth holds; `fits` checks each hub
    for a forbidden contact when its last tooth is typed; and
    `sealed_ok`, run at every tooth, at the last one counts every
    component of each conn bound's support."""
    nv = len(prep.variables)

    def sealed_ok(types, i, row):
        """No conn bound is exceeded by components that no later tooth
        can join."""
        links = ctx.hubs_done_by[i]
        inside = prep.inside[types[i]]
        for c, (_, k) in enumerate(prep.conn_bounds):
            support = row[nv + c] | (inside >> c & 1) << i
            if support.bit_count() <= k:
                continue
            sealed = sum(1 for comp in _components(support, links)
                         if not comp & ~ctx.sealed_by[i])
            if sealed > k:
                return False
        return True

    def fits(types, i, row):
        for teeth in ctx.hubs_done_at[i]:
            if prep.hub.sees([types[t] for t in teeth]):
                return False
        return not prep.conn_bounds or sealed_ok(types, i, row)

    def done(types, row):
        supports = row[:nv]
        return supports if _cheap_rc(prep.goal, supports, ctx) else None

    return _place_teeth(ctx, prep, counters, fits, done)


def _search_set(ctx: _SawCtx, prep: _Prep, counters: Dict) -> Optional[List[int]]:
    """Type assignment for the power-set classes: depth-0 types first,
    then independent depth-1 types. Returns the points of every variable
    as masks. A leaf reads only `prep.goal`: admissible tooth types and
    the hub types `zero_points` lets through keep every point out of
    every zero term."""
    p, q = ctx.p, ctx.q
    hub_types = [0] * q
    same_hub_as_prev = [j > 0 and ctx.hub_masks[j] == ctx.hub_masks[j - 1]
                        for j in range(q)]
    variables = range(len(prep.variables))
    teeth_of = []       # per variable, its teeth, once all are typed

    def place_hub(j):
        counters["nodes"] += 1
        _check_clock(prep.deadline)
        if j == q:
            masks = [teeth_of[k] | sum(1 << (p + h) for h in range(q)
                                       if hub_types[h] >> k & 1)
                     for k in variables]
            return masks if _cheap_set(prep.goal, masks, ctx) else None
        lo = hub_types[j - 1] if same_hub_as_prev[j] else 0
        bit = 1 << (p + j)
        for hm in range(lo, 1 << len(variables)):
            # hub j's membership depends only on its own type and its teeth
            if prep.zero_points is not None and prep.zero_points(
                    [teeth_of[k] | (bit if hm >> k & 1 else 0)
                     for k in variables], ctx) & bit:
                continue
            hub_types[j] = hm
            got = place_hub(j + 1)
            if got is not None:
                return got
        return None

    def done(types, row):
        teeth_of[:] = row
        return place_hub(0)

    return _place_teeth(ctx, prep, counters, lambda types, i, row: True, done)


# ---------------------------------------------------------------------------
# Fences: one forward sweep

class _FenceSteps:
    """The goal read along a fence, one interval at a time. A boundary
    point sees exactly the two intervals beside it, so all that a fence
    tells the goal is a state of three parts:
    - the last interval's type;
    - the atoms witnessed so far, as a mask: a difference l != r by one
      interval, a contact by one interval or by the two beside one
      boundary point (the positions of `_HubCheck`, over the goal's
      contacts);
    - for each conn or conn_le atom, the number of runs of its term's
      support (its components on a fence), clipped one past its bound.
    `goal(witnessed, counts)` is the goal's truth on such a fence.
    Adding an interval begins at most one run per term, so the counts
    only grow, and a top-level bound (`limit`) once exceeded stays so."""

    def __init__(self, prep: _Prep):
        self.prep = prep
        atoms = list({id(a): a for a in F.atoms(prep.normal)}.values())
        contacts = [a for a in atoms if isinstance(a, Contact)]
        diffs = [a for a in atoms if isinstance(a, Eq)]
        runs = [a for a in atoms if isinstance(a, (Conn, ConnLe))]
        # each atom's bit, or its count's index, by identity: equal atoms
        # elsewhere in the goal get bits or counts that always agree
        bits = {id(a): i for i, a in enumerate(contacts + diffs)}
        index = {id(a): c for c, a in enumerate(runs)}
        bounds = lambda a: a.k if isinstance(a, ConnLe) else 1
        self.clip = [bounds(a) + 1 for a in runs]
        self.limit = list(self.clip)
        for g in F.operands(prep.normal, And):
            if isinstance(g, (Conn, ConnLe)):
                self.limit[index[id(g)]] = bounds(g)

        def atom(a):
            if isinstance(a, Contact):
                bit = 1 << bits[id(a)]
                return lambda W, R: W & bit != 0
            if isinstance(a, Eq):
                bit = 1 << bits[id(a)]
                return lambda W, R: W & bit == 0
            c, k = index[id(a)], bounds(a)
            return lambda W, R: R[c] <= k

        self.goal = _goal(prep.normal, atom)
        point = prep.point
        self.touch = _HubCheck([a.terms for a in contacts], point)
        self.sides = [(point(a.left), point(a.right), bits[id(a)])
                      for a in diffs]
        self.in_run = [point(a.term) for a in runs]
        self.start = (None, 0, (0,) * len(runs))    # the empty fence
        self._after: Dict[Optional[int], List[Tuple[int, int, int]]] = {}

    def after(self, last: Optional[int]) -> List[Tuple[int, int, int]]:
        """(type, atoms witnessed, terms whose run it begins) for each
        interval that may follow one of type `last`, or begin a fence
        when `last` is None."""
        got = self._after.get(last)
        if got is None:
            got = self._after[last] = self._steps(last)
        return got

    def _steps(self, last):
        types = self.prep.admissible_types()
        if last is None:    # the first step of every sweep tabulates types
            self.alone = {m: self.touch.seen([m]) | sum(
                1 << bit for yl, yr, bit in self.sides
                if yl(m, None) != yr(m, None)) for m in types}
            self.inside = {m: sum(1 << c for c, y in enumerate(self.in_run)
                                  if y(m, None)) for m in types}
            return [(m, self.alone[m], self.inside[m]) for m in types]
        return [(m, self.alone[m] | self.touch.seen([last, m]),
                 self.inside[m] & ~self.inside[last])
                for m in types if not self.prep.hub.sees([last, m])]


def _sweep_fence(f: Formula, prep: _Prep, max_points: int, tb,
                 start: float) -> SolveResult:
    """Satisfiability over fences of up to (max_points + 1) // 2
    intervals, by one breadth-first sweep over the states of
    `_FenceSteps` that adds one interval per length. A state is expanded
    only when no shorter fence reached it, so the first state satisfying
    the goal gives a shortest model; the goal is read once per distinct
    (witnessed, counts). When a length brings no new state, no longer
    fence satisfies the goal either: `stats["saturated_at"]` records
    that length in points, and the verdict stays UNSAT_WITHIN_BOUND at
    max_points. The budget is checked once per expanded state; an
    aborted sweep reports the last length it finished. `stats["frames"]`
    counts the lengths reached, `stats["nodes"]` the states expanded."""
    stats = {"nodes": 0, "frames": 0}
    fence = _FenceSteps(prep)
    clip, limit, goal = fence.clip, fence.limit, fence.goal
    verdicts: Dict[Tuple, bool] = {}
    parents: Dict[Tuple, Optional[Tuple]] = {fence.start: None}
    frontier, model, length, bound = [fence.start], None, 0, 0
    try:
        while model is None and frontier and 2 * length + 1 <= max_points:
            length += 1
            stats["frames"] += 1
            fresh = []
            for state in frontier:
                stats["nodes"] += 1
                _check_clock(prep.deadline)
                last, seen, counts = state
                for m, witnessed, begun in fence.after(last):
                    grown = counts
                    if begun:
                        grown = tuple(min(r + (begun >> c & 1), top)
                                      for c, (r, top) in
                                      enumerate(zip(counts, clip)))
                        if any(r > lim for r, lim in zip(grown, limit)):
                            continue
                    grown = (m, seen | witnessed, grown)
                    if grown in parents:
                        continue
                    parents[grown] = state
                    key = grown[1:]
                    ok = verdicts.get(key)
                    if ok is None:
                        ok = verdicts[key] = goal(*key)
                    if ok:
                        model = _fence_model(grown, parents, prep.variables)
                        break
                    fresh.append(grown)
                if model is not None:
                    break
            else:
                bound = 2 * length - 1
                if not fresh:
                    stats["saturated_at"] = bound
            frontier = fresh
    except _Timeout:
        stats["aborted"] = True
        return _result(f, start, UNSAT_WITHIN_BOUND, "bounded", tb, stats, bound)
    if model is None:
        return _result(f, start, UNSAT_WITHIN_BOUND, "bounded", tb, stats,
                       max_points)
    return _result(f, start, SAT, "bounded", tb, stats, model=model)


def _fence_model(state, parents, variables: Sequence[str]) -> Model:
    """The fence whose intervals carry the types along the parent
    pointers that end at `state`."""
    types = []
    while state[0] is not None:
        types.append(state[0])
        state = parents[state]
    points = [f"i{j}" for j in range(len(types))]
    masks = [sum(1 << j for j, m in enumerate(types) if m >> k & 1)
             for k in range(len(variables))]
    return _model(make_fence(len(types)), points, masks, variables, "fence")


# ---------------------------------------------------------------------------
# Bounded satisfiability

def _unit_conflict(f: Formula) -> bool:
    """Whether f's top-level conjuncts hold some g and its negation !g,
    as equal objects or as separate, structurally equal ones. Then f is
    false in every model of every frame class."""
    conjuncts = F.operands(f, And)
    denied = [g.arg for g in conjuncts if type(g) is Not]
    # only a conjunct of g's class can equal g: no other is hashed
    kinds = {type(g) for g in denied}.intersection(map(type, conjuncts))
    held = {g for g in conjuncts if type(g) in kinds}
    return any(g in held for g in denied if type(g) in kinds)


def _relaxed(g: Formula) -> Optional[Formula]:
    """g, in negation normal form, with every conn and conn_le literal of
    either polarity read as true; None when all of g is. Negation sits on
    atoms only, so g is monotone in its literals and implies the result:
    every model of g is one of its relaxation."""

    def leaf(a, _):
        return None if isinstance(a, (Conn, ConnLe)) else a

    def node(h, _, a, b=None):
        if type(h) is Not:
            return None if a is None else h
        if a is h.left and b is h.right:
            return h
        if type(h) is F.Or:
            return None if a is None or b is None else F.Or(a, b)
        return b if a is None else a if b is None else And(a, b)

    return F.fold(g, leaf, node)


def _relaxation_refuted(prep: _Prep) -> Tuple[bool, int]:
    """Whether the fork search refutes the relaxation of `prep.normal`
    over regc, and the nodes it searched. The relaxation is a contact
    formula without connectedness, which the fork search decides over
    regc, and it holds in every model of the formula. Connected
    quasi-saws are quasi-saws, so a refuted relaxation refutes the
    formula over regc and conregc at every size."""
    g = _relaxed(prep.normal)
    if g is None:
        return False, 0
    teeth, nodes = _fork_teeth(g, prep.point, prep.deadline)
    return teeth is None, nodes


class _Listing:
    """The items of a deterministic generator, listed once and shared by
    every reader. A reader walks `items` and extends it from `source`
    when it passes the end, so a reader that stops early, at a model, a
    `_Timeout` or an exception of its own, leaves a prefix that the next
    reader extends. `source` is None once exhausted, and only then is
    the list complete. An exception inside the source replaces it by a
    fresh one past the items already listed, so a broken source never
    ends the list early."""

    def __init__(self, make: Callable[[], Iterator]):
        self.make = make
        self.items: List = []
        self.source: Optional[Iterator] = make()

    def __iter__(self):
        items, i = self.items, 0
        while True:
            if i == len(items):
                if self.source is None:
                    return
                try:
                    item = next(self.source, self)
                except BaseException:
                    self.source = itertools.islice(self.make(), len(items), None)
                    raise
                if item is self:
                    self.source = None
                    return
                items.append(item)
            yield items[i]
            i += 1


# (size, frame class, tooth cap) -> its frames with their contexts
_FRAMES: Dict[Tuple, _Listing] = {}


def _frames_at(n: int, frame_class: str, prep: _Prep
               ) -> Iterator[Tuple[QuasiSawFrame, _SawCtx]]:
    """The frames with n points the bounded search tries, in order, each
    with its `_SawCtx`. Each (size, frame class, tooth cap) is listed
    once per process, through a `_Listing`, which keeps only what it has
    listed and never takes a prefix for the whole list. Frames and
    contexts are never mutated, so runs and their certificates share
    them."""
    whole = frame_class not in RC_CLASSES
    forks = frame_class == "regc" and prep.conn_free
    if forks:
        key = (n, frame_class, "forks")
        frames = lambda: map(make_fork_frame, _fork_partitions(n))
    else:
        top = min(n, 1 << len(prep.variables)) if prep.conn_free else n
        key = (n, frame_class, top)
        # hubs over the same teeth differ only where sets are arbitrary
        frames = lambda: canonical_saws(
            n, frame_class in CONNECTED_CLASSES,
            "repeated" if whole else "antichain", top)
    listing = _FRAMES.get(key)
    if listing is None:
        listing = _FRAMES[key] = _Listing(
            lambda: ((frame, _SawCtx(frame, whole, forks))
                     for frame in frames()))
    yield from listing


def sat_bounded(f: Formula, frame_class: str = "regc", max_points: int = 8,
                time_budget: Optional[float] = None) -> SolveResult:
    """Satisfiability over frames of the requested class with up to
    max_points points: canonical quasi-saws by increasing size, or
    fences by one sweep over their lengths. A negative verdict is
    complete only when max_points reaches the theoretical bound, which
    is known for the fork languages only. On quasi-saws the search
    enforces the top-level `t = 0` and `!C(...)` conjuncts, and the
    top-level conn bounds over regular closed sets, while it types the
    points (`_Prep`), so a complete typing, and the empty space before
    it, are checked against the other conjuncts alone; a model found is
    still re-checked against f, in the one exit `_result`. `time_budget`
    is read while f is prepared and searched, not in that re-check,
    which `stats["time"]` includes. Completeness follows from status."""
    start = time.monotonic()
    if max_points < 0:
        raise SolverError("bound must be nonnegative")
    return _sat_bounded(f, frame_class, max_points, time_budget, start,
                        *F.language(f), refute=False)


def _sat_bounded(f: Formula, frame_class: str, max_points: int,
                 time_budget: Optional[float], start: float, tag: str,
                 family: Optional[str], refute: bool) -> SolveResult:
    """The bounded search; its clock and budget run from `start`.
    `refute` adds `solve`'s refutation steps. On every frame class, a
    unit conflict among f's top-level conjuncts (`_unit_conflict`) ends
    the run with a complete UNSAT at bound 0, once the input checks have
    passed and before f is normalized. Over regc and conregc, once the
    empty space and the one-point frames have failed, a refutation of
    the conn-free relaxation (`_relaxation_refuted`) ends the run with a
    complete UNSAT; if the relaxation is satisfiable the search goes on
    as without it."""
    if frame_class not in FRAME_CLASSES:
        raise SolverError(f"unknown frame class {frame_class!r}")
    # the goal's contact is the regular-closed one, so over the power-set
    # classes only the Boolean and S4u languages are read
    whole = frame_class not in RC_CLASSES
    problem = family_mismatch(family, frame_class)
    if problem is None and whole and not tag.startswith(("B", "S4u")):
        problem = (f"contact and relation atoms ({tag}) take a "
                   f"regular-closed frame class")
    if problem is not None:
        raise SolverError(problem)
    counters = {"nodes": 0, "frames": 0}
    deadline = None if time_budget is None else start + time_budget
    search = _search_set if whole else _search_rc
    tb = None   # until the relation atoms are written as contacts
    n = 1       # the size searched: every smaller one is done
    try:
        _check_clock(deadline)
        if refute and _unit_conflict(f):
            # solve sends the fork languages, the only ones with a bound,
            # to the fork route, so the bound is None here
            return _result(f, start, UNSAT, "units", None, counters)
        _check_clock(deadline)
        # the relation atoms are written as contacts once, for the bound
        # and the search; _Prep reads the clock first
        c = f if whole else rcc8_to_c(f)
        tb = _theoretical_bound(c, frame_class, tag)
        prep = _Prep(c, tag, family, whole, deadline)
        del c   # the search reads prep alone: free the translated copy
        if frame_class == "fence":     # a fence has at least one interval
            return _sweep_fence(f, prep, max_points, tb, start)
        # the empty space, where every conjunct the search enforces holds
        empty = QuasiSawFrame([], [], {})
        if prep.goal([0] * len(prep.variables), _SawCtx(empty, whole)):
            model = _model(empty, [], [0] * len(prep.variables),
                           prep.variables, frame_class)
            return _result(f, start, SAT, "bounded", tb, counters, model=model)
        for n in range(1, max_points + 1):
            if n == 2 and refute and frame_class in ("regc", "conregc"):
                refuted, relaxed_nodes = _relaxation_refuted(prep)
                if refuted:
                    counters["relaxed_nodes"] = relaxed_nodes
                    return _result(f, start, UNSAT, "relaxed-forks", tb,
                                   counters, 1)
            for frame, ctx in _frames_at(n, frame_class, prep):
                _check_clock(deadline)
                counters["frames"] += 1
                found = search(ctx, prep, counters)
                if found is not None:
                    points = ctx.teeth + ctx.hubs if whole else ctx.teeth
                    model = _model(frame, points, found, prep.variables,
                                   frame_class)
                    return _result(f, start, SAT, "bounded", tb, counters,
                                   model=model)
    except _Timeout:
        counters["aborted"] = True
        return _result(f, start, UNSAT_WITHIN_BOUND, "bounded", tb, counters,
                       n - 1)
    status = UNSAT if tb is not None and max_points >= tb else UNSAT_WITHIN_BOUND
    return _result(f, start, status, "bounded", tb, counters, max_points)


def solve(f: Formula, frame_class: str = "regc", max_points: int = 8,
          time_budget: Optional[float] = None) -> SolveResult:
    """Route to the complete fork procedure when it applies, else to the
    bounded search. On the bounded route, over every frame class, a
    top-level conjunct g next to a top-level conjunct !g ends the run
    before normalization with a complete UNSAT at bound 0, method
    "units": g & !g is false in every model. Over regc and conregc the
    bounded search, once the empty space and the one-point frames have
    failed, asks the fork search about the formula's conn-free
    relaxation; a refuted relaxation gives a complete UNSAT, method
    "relaxed-forks". The fork route takes neither step: its literal-set
    search meets a unit conflict before it searches any type. Every SAT
    certificate still comes from the fork route or the bounded search,
    which `sat_bounded` runs without these steps. Both routes leave
    through `_result`, and completeness follows from status.
    `time_budget` holds on both from entry, and is first read once the
    formula's language is known; a run it stops is an aborted
    UNSAT_WITHIN_BOUND. It stops no re-check of a SAT certificate, which
    `stats["time"]` includes. A negative bound is refused on both."""
    start = time.monotonic()
    if max_points < 0:
        raise SolverError("bound must be nonnegative")
    tag, family = F.language(f)
    if forks_decide(tag, frame_class):
        return _sat_forks(f, frame_class, tag, family, start,
                          None if time_budget is None else start + time_budget)
    return _sat_bounded(f, frame_class, max_points, time_budget, start, tag,
                        family, refute=True)
