"""Hardness-reduction formula families, their explicit witness models,
and the named example corpus.

Three generators: machine runs encoded as tile columns over a fence of
intervals, binary-tree modal satisfaction encoded with hooked 7-saws,
and exponential-grid tilings encoded with coordinate counters.
"""

import itertools
from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import formula as F
from .formula import (ONE, ZERO, And, Compl, Conn, ConnLe, Contact, Eq,
                      Formula, Inter, Not, One, Prod, SetCompl, Sum, Term,
                      Var, Zero, conj, leq, neq)
from .frames import Model, QuasiSawFrame, make_fence, make_fork_frame
from .semantics import holds


class GadgetError(Exception):
    """Malformed machine, tiling, or tree input."""


def _rc_model(frame, supports: Dict[str, set], frame_class: str) -> Model:
    """The model giving each variable the regular closed set that its
    support generates in the frame."""
    return Model(frame, {v: frame.rc_from_support(frozenset(s))
                         for v, s in supports.items()}, frame_class)


def _saw_model(depth0, depth1, succ1, supports, frame_class="regc") -> Model:
    return _rc_model(QuasiSawFrame(depth0, depth1, succ1), supports,
                     frame_class)


# ---------------------------------------------------------------------------
# Turing machines and their tile types

@dataclass(frozen=True)
class TuringMachine:
    states: Tuple[str, ...]
    initial: str
    accepting: str
    halting: str
    alphabet: Tuple[str, ...]
    blank: str
    space: int
    delta: Tuple[Tuple[Tuple[str, str], Tuple[str, str, int]], ...]

    def __post_init__(self):
        names = set(self.states)
        if len(self.states) != len(names):
            raise GadgetError("duplicate state names")
        for marker in (self.initial, self.accepting, self.halting):
            if marker not in names:
                raise GadgetError(f"marker state {marker!r} not declared")
        if self.blank not in self.alphabet:
            raise GadgetError("blank symbol not in alphabet")
        if self.space < 1:
            raise GadgetError("space bound must be positive")
        seen = set()
        for (q, a), (q2, a2, d) in self.delta:
            if (q, a) in seen:
                raise GadgetError(f"nondeterministic on {(q, a)}")
            seen.add((q, a))
            if q not in names or q2 not in names:
                raise GadgetError("transition references unknown state")
            if a not in self.alphabet or a2 not in self.alphabet:
                raise GadgetError("transition references unknown symbol")
            if d not in (-1, 0, 1):
                raise GadgetError("head move must be -1, 0 or +1")
            if q == self.halting:
                raise GadgetError("no transition may leave the halting state")
            if q == self.accepting and q2 != self.halting:
                raise GadgetError("the accepting state may only move to halting")

    def transition(self, q: str, a: str) -> Optional[Tuple[str, str, int]]:
        for (q1, a1), out in self.delta:
            if (q1, a1) == (q, a):
                return out
        return None


# Tape cells and tile colours are tagged tuples so that state names can
# never collide with symbols or with the two auxiliary colours.
def _sym(a):
    return ("sym", a)


def _head(q, a):
    return ("head", q, a)


TOP = ("t",)
BOT = ("b",)


def _head_top(q):
    return ("head-t", q)


def _head_bot(q):
    return ("head-b", q)


@dataclass(frozen=True)
class TileType:
    left: object
    top: object
    right: object
    bot: object


def tm_tile_types(m: TuringMachine) -> List[TileType]:
    """The tile set representing a machine: copy tiles for idle cells,
    arrival tiles for the head, and one action tile per instruction."""
    tiles: List[TileType] = []

    def add(t):
        if t not in tiles:
            tiles.append(t)

    for a in m.alphabet:
        add(TileType(_sym(a), TOP, _sym(a), TOP))
        add(TileType(_sym(a), BOT, _sym(a), BOT))
    for a in m.alphabet:
        for q in m.states:
            add(TileType(_sym(a), _head_bot(q), _head(q, a), BOT))
            add(TileType(_sym(a), TOP, _head(q, a), _head_top(q)))
    for (q, a), (q2, a2, d) in m.delta:
        if d == 0:
            add(TileType(_head(q, a), TOP, _head(q2, a2), BOT))
        elif d == -1:
            add(TileType(_head(q, a), TOP, _sym(a2), _head_bot(q2)))
        else:
            add(TileType(_head(q, a), _head_top(q2), _sym(a2), BOT))
    return tiles


# ---------------------------------------------------------------------------
# Configurations and runs

Config = Tuple[object, ...]


def _tape(m, word: Sequence[str]) -> List[str]:
    """The word padded with blanks to the space bound of m."""
    if len(word) > m.space:
        raise GadgetError("input longer than the space bound")
    return list(word) + [m.blank] * (m.space - len(word))


def initial_config(m: TuringMachine, word: Sequence[str]) -> Config:
    tape = _tape(m, word)
    return (_head(m.initial, tape[0]),) + tuple(_sym(a) for a in tape[1:])


def accepting_config(m: TuringMachine) -> Config:
    cells = [_head(m.accepting, m.blank)]
    cells += [_sym(m.blank)] * (m.space - 1)
    return tuple(cells)


def _head_position(c: Config) -> Tuple[int, str, str]:
    for i, cell in enumerate(c):
        if cell[0] == "head":
            return i, cell[1], cell[2]
    raise GadgetError("configuration without a head cell")


def _move(c: Config, pos: int, q2: str, a2: str, d: int) -> Optional[Config]:
    """c after the head at pos writes a2, moves by d and enters q2, or
    None if the head would leave the tape."""
    if not 0 <= pos + d < len(c):
        return None
    cells = list(c)
    cells[pos] = _sym(a2)
    cells[pos + d] = _head(q2, cells[pos + d][1])
    return tuple(cells)


def step_config(m: TuringMachine, c: Config) -> Optional[Config]:
    """One machine step, or None if no instruction applies or the head
    would leave the tape."""
    pos, q, a = _head_position(c)
    out = m.transition(q, a)
    return None if out is None else _move(c, pos, *out)


def run_of(m: TuringMachine, word: Sequence[str],
           max_steps: int = 10000) -> Optional[List[Config]]:
    """The run from the initial configuration up to the accepting
    configuration, or None if the machine halts or wanders elsewhere."""
    target = accepting_config(m)
    run = [initial_config(m, word)]
    for _ in range(max_steps):
        if run[-1] == target:
            return run
        nxt = step_config(m, run[-1])
        if nxt is None:
            return None
        run.append(nxt)
    return None


def _search_column(tiles: Sequence[TileType], left: Optional[Config] = None,
                   right: Optional[Config] = None) -> Optional[List[TileType]]:
    """A vertically consistent column whose left and right sides spell
    the given configurations, a side given as None being free; None if
    no column fits."""
    s = len(left or right)
    per_row = [[t for t in tiles if (left is None or t.left == left[i])
                and (right is None or t.right == right[i])] for i in range(s)]
    column: List[TileType] = []

    def go(i):
        for t in per_row[i]:
            if i == 0:
                if t.bot != BOT:
                    continue
            elif t.bot != column[-1].top:
                continue
            if i == s - 1 and t.top != TOP:
                continue
            column.append(t)
            if i == s - 1 or go(i + 1):
                return True
            column.pop()
        return False

    return column if go(0) else None


# ---------------------------------------------------------------------------
# The machine-run formula

def _b_vars():
    return [Var(f"B{l}") for l in range(3)]


def _tile_var(k: int, i: int) -> Var:
    return Var(f"T{k}_{i}")


def gen_tm_formula(m: TuringMachine, word: Sequence[str]) -> Formula:
    """Contact formula satisfiable over connected quasi-saws exactly
    when the machine accepts the word within its space bound."""
    tiles = tm_tile_types(m)
    s = m.space
    B = _b_vars()
    T = [[_tile_var(k, i) for i in range(1, s + 1)] for k in range(len(tiles))]
    ks = range(len(tiles))
    # BT[l][k][i] is B[l] * T[k][i], built once for all the contacts
    BT = [[[Prod(b, t) for t in row] for row in T] for b in B]
    out: List[Formula] = []
    # every depth-0 point carries exactly one direction colour
    out.append(Eq(reduce(Sum, B), ONE))
    out.extend(Eq(Prod(B[l], B[(l + 1) % 3]), ZERO) for l in range(3))
    # and exactly one tile per tape row, vertically consistent
    for i in range(s):
        out.append(Eq(reduce(Sum, [T[k][i] for k in ks]), ONE))
    for i in range(s):
        for k1, k2 in itertools.combinations(ks, 2):
            out.append(Eq(Prod(T[k1][i], T[k2][i]), ZERO))
    for i in range(s - 1):
        for k1 in ks:
            for k2 in ks:
                if tiles[k1].top != tiles[k2].bot:
                    out.append(Eq(Prod(T[k1][i], T[k2][i + 1]), ZERO))
    for k in ks:
        if tiles[k].bot != BOT:
            out.append(Eq(T[k][0], ZERO))
        if tiles[k].top != TOP:
            out.append(Eq(T[k][s - 1], ZERO))
    # neighbouring points one direction apart chain their configurations
    for i in range(s):
        for l in range(3):
            for k1 in ks:
                for k2 in ks:
                    if tiles[k1].right != tiles[k2].left:
                        out.append(Not(Contact((BT[l][k1][i],
                                                BT[(l + 1) % 3][k2][i]))))
            for k1, k2 in itertools.combinations(ks, 2):
                out.append(Not(Contact((BT[l][k1][i], BT[l][k2][i]))))
    # anchors: some point reads the initial configuration on the left
    # and some point writes the accepting configuration on the right; a
    # side-only match stands in when no column fits
    for side, target in (("left", initial_config(m, word)),
                         ("right", accepting_config(m))):
        column = _search_column(tiles, **{side: target}) or [
            next((t for t in tiles if getattr(t, side) == cell), None)
            for cell in target]
        if None in column:
            raise GadgetError("no tile matches the target configuration")
        out.append(neq(reduce(Prod, [T[tiles.index(t)][i]
                                    for i, t in enumerate(column)]), ZERO))
    return conj(out)


def gen_tm_witness(m: TuringMachine, word: Sequence[str],
                   run: Sequence[Config]) -> Model:
    """Fence model of the run formula: one interval per step, direction
    colours cycling along the fence, and per step the column of
    `tm_tile_types(m)` that encodes it."""
    if len(run) < 2:
        raise GadgetError("a run needs at least two configurations")
    if run[0] != initial_config(m, word):
        raise GadgetError("run does not start at the initial configuration")
    if run[-1] != accepting_config(m):
        raise GadgetError("run does not end at the accepting configuration")
    for c, c2 in zip(run, run[1:]):
        if step_config(m, c) != c2:
            raise GadgetError("run contains an invalid step")
    tiles = tm_tile_types(m)
    n = len(run) - 1
    supports: Dict[str, set] = {f"B{l}": set() for l in range(3)}
    for k in range(len(tiles)):
        for i in range(1, m.space + 1):
            supports[_tile_var(k, i).name] = set()
    for j in range(n):
        column = _search_column(tiles, run[j], run[j + 1])
        if column is None:
            raise GadgetError("tile column does not encode the step")
        cell = f"i{j}"
        supports[f"B{j % 3}"].add(cell)
        for i, tile in enumerate(column):
            supports[_tile_var(tiles.index(tile), i + 1).name].add(cell)
    return _rc_model(make_fence(n), supports, "fence")


# ---------------------------------------------------------------------------
# Bundled machines

def tm_accepter() -> TuringMachine:
    """Erases two cells left to right, returns, and accepts."""
    return TuringMachine(
        states=("q0", "q1", "q2", "qY", "qH"),
        initial="q0", accepting="qY", halting="qH",
        alphabet=("_", "a"), blank="_", space=2,
        delta=(
            (("q0", "_"), ("q1", "_", 1)),
            (("q0", "a"), ("q1", "_", 1)),
            (("q1", "_"), ("q2", "_", -1)),
            (("q1", "a"), ("q2", "_", -1)),
            (("q2", "_"), ("qY", "_", 0)),
            (("qY", "_"), ("qH", "_", 0)),
        ))


def tm_rejecter() -> TuringMachine:
    """Erases two cells, returns, and halts without accepting."""
    return TuringMachine(
        states=("q0", "q1", "q2", "qY", "qH"),
        initial="q0", accepting="qY", halting="qH",
        alphabet=("_", "a"), blank="_", space=2,
        delta=(
            (("q0", "_"), ("q1", "_", 1)),
            (("q0", "a"), ("q1", "_", 1)),
            (("q1", "_"), ("q2", "_", -1)),
            (("q1", "a"), ("q2", "_", -1)),
            (("q2", "_"), ("qH", "_", 0)),
        ))


def tm_looper() -> TuringMachine:
    """Toggles the first cell forever with period two, never accepting."""
    return TuringMachine(
        states=("q0", "q1", "qY", "qH"),
        initial="q0", accepting="qY", halting="qH",
        alphabet=("_", "x"), blank="_", space=2,
        delta=(
            (("q0", "_"), ("q1", "x", 0)),
            (("q0", "x"), ("q1", "_", 0)),
            (("q1", "_"), ("q0", "_", 0)),
            (("q1", "x"), ("q0", "x", 0)),
        ))


# ---------------------------------------------------------------------------
# Bimodal formulas over binary trees

@dataclass(frozen=True)
class MVar:
    name: str


@dataclass(frozen=True)
class MNot:
    arg: object


@dataclass(frozen=True)
class MAnd:
    left: object
    right: object


@dataclass(frozen=True)
class MBox:
    i: int
    arg: object

    def __post_init__(self):
        if self.i not in (1, 2):
            raise GadgetError("modality index must be 1 or 2")


def m_and(parts):
    parts = list(parts)
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = MAnd(p, out)
    return out


def m_or(a, b):
    return MNot(MAnd(MNot(a), MNot(b)))


def m_implies(a, b):
    return MNot(MAnd(a, MNot(b)))


def m_diamond(i, a):
    return MNot(MBox(i, MNot(a)))


def modal_closure(chi, psi) -> Tuple[object, ...]:
    """Subformulas of both inputs, closed under a single negation."""
    seen: List[object] = []

    def collect(f):
        if f in seen:
            return
        seen.append(f)
        if isinstance(f, MNot):
            collect(f.arg)
        elif isinstance(f, MAnd):
            collect(f.left)
            collect(f.right)
        elif isinstance(f, MBox):
            collect(f.arg)
        elif not isinstance(f, MVar):
            raise GadgetError(f"not a modal formula: {f!r}")

    collect(chi)
    collect(psi)
    for f in list(seen):
        if not isinstance(f, MNot) and MNot(f) not in seen:
            seen.append(MNot(f))
    return tuple(seen)


@dataclass(frozen=True)
class LabeledBinaryTree:
    """Finite binary tree whose nodes carry truth values for a fixed
    subformula set; nodes have either two children or none."""
    subformulas: Tuple[object, ...]
    children: Tuple[Optional[Tuple[int, int]], ...]
    labels: Tuple[Tuple[bool, ...], ...]

    def __post_init__(self):
        index = {f: i for i, f in enumerate(self.subformulas)}
        if len(self.children) != len(self.labels):
            raise GadgetError("children and labels disagree on node count")
        for node, (kids, row) in enumerate(zip(self.children, self.labels)):
            if len(row) != len(self.subformulas):
                raise GadgetError("label row of the wrong width")
            for f, value in zip(self.subformulas, row):
                if isinstance(f, MNot) and f.arg in index:
                    if value != (not row[index[f.arg]]):
                        raise GadgetError(f"negation label inconsistent at node {node}")
                elif isinstance(f, MAnd):
                    want = row[index[f.left]] and row[index[f.right]]
                    if value != want:
                        raise GadgetError(f"conjunction label inconsistent at node {node}")
                elif isinstance(f, MBox):
                    if kids is None:
                        want = True
                    else:
                        want = self.labels[kids[f.i - 1]][index[f.arg]]
                    if value != want:
                        raise GadgetError(f"box label inconsistent at node {node}")

    def label(self, node: int, f) -> bool:
        return self.labels[node][self.subformulas.index(f)]

    @property
    def root(self) -> int:
        return 0


# ---------------------------------------------------------------------------
# Alternating machines and their computation trees

@dataclass(frozen=True)
class AlternatingTM:
    states: Tuple[str, ...]
    initial: str
    accepting: str
    rejecting: str
    alphabet: Tuple[str, ...]
    blank: str
    space: int
    mode: Tuple[Tuple[str, str], ...]
    delta: Tuple[Tuple[Tuple[str, str],
                       Tuple[Tuple[str, str, int], Tuple[str, str, int]]], ...]

    def __post_init__(self):
        names = set(self.states)
        for marker in (self.initial, self.accepting, self.rejecting):
            if marker not in names:
                raise GadgetError(f"marker state {marker!r} not declared")
        if self.blank not in self.alphabet:
            raise GadgetError("blank symbol not in alphabet")
        modes = dict(self.mode)
        finals = {self.accepting, self.rejecting}
        table = dict(self.delta)
        for q in self.states:
            if q in finals:
                if any(q1 == q for (q1, _a) in table):
                    raise GadgetError("no transition may leave a final state")
                continue
            if modes.get(q) not in ("exists", "forall"):
                raise GadgetError(f"state {q!r} needs an exists/forall mode")
            for a in self.alphabet:
                if (q, a) not in table or len(table[(q, a)]) != 2:
                    raise GadgetError("every non-final state needs exactly "
                                      "two transitions per symbol")

    def branches(self, q: str, a: str):
        return dict(self.delta)[(q, a)]

    def is_final(self, q: str) -> bool:
        return q in (self.accepting, self.rejecting)


def _h_var(q, i):
    return MVar(f"H:{q}:{i}")


def _s_var(a, i):
    return MVar(f"S:{a}:{i}")


M_ACCEPT = MVar("A")


def atm_chi(m: AlternatingTM):
    """Bimodal transition theory: head moves follow the two branches,
    idle cells persist, and acceptance propagates by state mode."""
    s = m.space
    modes = dict(m.mode)
    out = []
    for i in range(1, s + 1):
        for (q, a), branches in m.delta:
            for j in (1, 2):
                q2, a2, d = branches[j - 1]
                if 1 <= i + d <= s:
                    out.append(m_implies(
                        MAnd(_h_var(q, i), _s_var(a, i)),
                        MBox(j, MAnd(_h_var(q2, i + d), _s_var(a2, i)))))
        for q in m.states:
            if m.is_final(q):
                continue
            for a in m.alphabet:
                for k in range(1, s + 1):
                    if k == i:
                        continue
                    for j in (1, 2):
                        out.append(m_implies(MAnd(_h_var(q, i), _s_var(a, k)),
                                             MBox(j, _s_var(a, k))))
        out.append(m_implies(_h_var(m.accepting, i), M_ACCEPT))
        for q in m.states:
            if m.is_final(q):
                continue
            dia = MAnd(m_diamond(1, M_ACCEPT), m_diamond(2, M_ACCEPT)) \
                if modes[q] == "forall" \
                else m_or(m_diamond(1, M_ACCEPT), m_diamond(2, M_ACCEPT))
            out.append(m_implies(MAnd(_h_var(q, i), dia), M_ACCEPT))
    return m_and(out)


def atm_psi(m: AlternatingTM, word: Sequence[str]):
    start = [_h_var(m.initial, 1)]
    start += [_s_var(a, i + 1) for i, a in enumerate(_tape(m, word))]
    return m_implies(m_and(start), M_ACCEPT)


def computation_tree(m: AlternatingTM, word: Sequence[str],
                     max_nodes: int = 4096) -> LabeledBinaryTree:
    """The full computation tree of the machine on the word, labelled
    with the subformula closure of its transition theory."""
    chi = atm_chi(m)
    psi = atm_psi(m, word)
    closure = modal_closure(chi, psi)
    configs: List[Config] = [initial_config(m, word)]
    children: List[Optional[Tuple[int, int]]] = [None]
    order: List[int] = []
    stack = [0]
    while stack:
        node = stack.pop()
        order.append(node)
        pos, q, a = _head_position(configs[node])
        if m.is_final(q):
            continue
        kids = []
        for branch in m.branches(q, a):
            nxt = _move(configs[node], pos, *branch)
            if nxt is None:
                raise GadgetError("branch moves the head off the tape")
            configs.append(nxt)
            children.append(None)
            kids.append(len(configs) - 1)
        children[node] = (kids[0], kids[1])
        stack.extend(reversed(kids))
        if len(configs) > max_nodes:
            raise GadgetError("computation tree exceeds the node budget")

    modes = dict(m.mode)
    accept = [False] * len(configs)
    for node in reversed(order):
        _pos, q, _a = _head_position(configs[node])
        if m.is_final(q):
            accept[node] = q == m.accepting
        elif modes[q] == "forall":
            accept[node] = all(accept[c] for c in children[node])
        else:
            accept[node] = any(accept[c] for c in children[node])

    memo: Dict[Tuple[int, object], bool] = {}

    def truth(node, f):
        key = (node, f)
        if key in memo:
            return memo[key]
        if isinstance(f, MVar):
            if f == M_ACCEPT:
                value = accept[node]
            else:
                kind, x, i = f.name.split(":")
                pos, q, a = _head_position(configs[node])
                if kind == "H":
                    value = q == x and pos == int(i) - 1
                else:
                    value = configs[node][int(i) - 1][-1] == x
        elif isinstance(f, MNot):
            value = not truth(node, f.arg)
        elif isinstance(f, MAnd):
            value = truth(node, f.left) and truth(node, f.right)
        else:
            kids = children[node]
            value = kids is None or truth(kids[f.i - 1], f.arg)
        memo[key] = value
        return value

    labels = tuple(tuple(truth(node, f) for f in closure)
                   for node in range(len(configs)))
    return LabeledBinaryTree(closure, tuple(children), labels)


# ---------------------------------------------------------------------------
# The tree formula

def _scaffold():
    s = [[Var(f"s{j}_{k}") for k in range(7)] for j in (0, 1)]
    f = [reduce(Sum, s[j][:6]) for j in (0, 1)]
    return s, f, Var("a")


def _q_var(closure, f) -> Var:
    return Var(f"q{closure.index(f)}")


def _m_var(closure, box, j) -> Var:
    return Var(f"m{closure.index(box)}_{j}")


def _tree_conjuncts(chi, psi, closure, init: List[Formula]) -> Formula:
    s, f, a = _scaffold()
    d = Sum(s[0][0], s[1][0])
    out: List[Formula] = []
    # a connected spine through the numbered slices down to the sink
    out.append(Eq(a, s[0][6]))
    out.append(Eq(a, s[1][6]))
    out.append(neq(a, Zero()))
    out.append(Conn(Sum(f[0], a)))
    out.append(Conn(Sum(f[1], a)))
    for j in (0, 1):
        for k1, k2 in itertools.combinations(range(7), 2):
            out.append(Eq(Prod(s[j][k1], s[j][k2]), Zero()))
        for k1, k2 in itertools.combinations(range(7), 2):
            if k2 - k1 > 1:
                out.append(Not(Contact((s[j][k1], s[j][k2]))))
    out.extend(init)
    refute = psi.arg if isinstance(psi, MNot) else MNot(psi)
    out.append(neq(Prod(_q_var(closure, refute), s[0][0]), Zero()))
    out.append(leq(d, _q_var(closure, chi)))
    for g in closure:
        if isinstance(g, MNot) and g.arg in closure:
            out.append(Eq(Prod(d, _q_var(closure, g)),
                          Prod(d, Compl(_q_var(closure, g.arg)))))
        elif isinstance(g, MAnd):
            out.append(Eq(Prod(d, _q_var(closure, g)),
                          Prod(d, Prod(_q_var(closure, g.left),
                                       _q_var(closure, g.right)))))
    for g in closure:
        if not isinstance(g, MBox):
            continue
        for j in (0, 1):
            marker = _m_var(closure, g, j)
            out.append(Not(Contact((Prod(f[j], marker),
                                    Prod(f[j], Compl(marker))))))
            out.append(Eq(Prod(s[j][0], _q_var(closure, g)),
                          Prod(s[j][0], marker)))
            out.append(Eq(Prod(s[j][2 * g.i], marker),
                          Prod(s[j][2 * g.i], _q_var(closure, g.arg))))
    return conj(out)


def gen_tree_formula(chi, psi) -> Formula:
    """Contact formula with two connectedness atoms, satisfiable over
    quasi-saws exactly when some tree model makes chi global and psi
    false at the root."""
    closure = modal_closure(chi, psi)
    s, _f, _a = _scaffold()
    init = []
    for i in (1, 2):
        init.append(leq(s[0][2 * i], s[1][0]))
        init.append(leq(s[1][2 * i], s[0][0]))
    return _tree_conjuncts(chi, psi, closure, init)


def gen_atm_formula(m: AlternatingTM, word: Sequence[str]) -> Formula:
    """Tree formula for the machine's transition theory, with the
    successor requirement guarded by non-final head variables so that
    finite rejecting trees suffice."""
    chi = atm_chi(m)
    psi = atm_psi(m, word)
    closure = modal_closure(chi, psi)
    s, _f, _a = _scaffold()
    init = []
    for k in range(1, m.space + 1):
        for q in m.states:
            if m.is_final(q):
                continue
            head = _q_var(closure, _h_var(q, k))
            for i in (1, 2):
                init.append(leq(Prod(head, s[0][2 * i]), s[1][0]))
                init.append(leq(Prod(head, s[1][2 * i]), s[0][0]))
    return _tree_conjuncts(chi, psi, closure, init)


def gen_tree_witness(tree: LabeledBinaryTree, box_formulas) -> Model:
    """Connected quasi-saw of hooked 7-saws, one per tree node, all
    sharing the sink; valuations follow the node labels."""
    closure = tree.subformulas
    boxes = list(box_formulas)
    for b in boxes:
        if not isinstance(b, MBox) or b not in closure:
            raise GadgetError("marker list must hold box formulas from the tree")
    n = len(tree.children)
    depth = [0] * n
    for node, kids in enumerate(tree.children):
        if kids is not None:
            for c in kids:
                depth[c] = depth[node] + 1

    def tooth(node, k):
        if k == 0:
            parent = next((p for p, kids in enumerate(tree.children)
                           if kids is not None and node in kids), None)
            if parent is None:
                return "y0_n0"
            return f"y{2 * (tree.children[parent].index(node) + 1)}_n{parent}"
        return f"y{k}_n{node}"

    depth0 = {"w"}
    depth1 = set()
    succ1: Dict[str, set] = {}
    supports: Dict[str, set] = {"a": {"w"}, "s0_6": {"w"}, "s1_6": {"w"}}
    for j in (0, 1):
        for k in range(6):
            supports[f"s{j}_{k}"] = set()
    for g in closure:
        supports[_q_var(closure, g).name] = set()
    for b in boxes:
        for j in (0, 1):
            supports[_m_var(closure, b, j).name] = set()

    for node in range(n):
        j = depth[node] % 2
        teeth = [tooth(node, k) for k in range(6)]
        depth0.update(teeth)
        for k in range(6):
            z = f"z{k}_n{node}"
            depth1.add(z)
            succ1[z] = {teeth[k], teeth[k + 1]} if k < 5 else {teeth[5], "w"}
        for k in range(6):
            supports[f"s{j}_{k}"].add(teeth[k])
        for g in closure:
            if tree.labels[node][closure.index(g)]:
                supports[_q_var(closure, g).name].add(teeth[0])
        for b in boxes:
            if tree.label(node, b):
                supports[_m_var(closure, b, j).name].update(teeth)
        if tree.children[node] is None:
            # dead-end teeth of a leaf saw: their marker slots still
            # carry the box truths the equations ask for
            for b in boxes:
                if tree.label(node, b):
                    supports[_q_var(closure, b.arg).name].add(teeth[2 * b.i])

    return _saw_model(depth0, depth1, succ1, supports, "conregc")


def atm_rejecter() -> AlternatingTM:
    """Single existential state whose both branches reject at once."""
    return AlternatingTM(
        states=("q0", "qY", "qN"),
        initial="q0", accepting="qY", rejecting="qN",
        alphabet=("_",), blank="_", space=1,
        mode=(("q0", "exists"),),
        delta=((("q0", "_"), (("qN", "_", 0), ("qN", "_", 0))),))


# ---------------------------------------------------------------------------
# Exponential-grid tilings

def brute_force_tiling(tiles: Sequence[TileType], t0: int,
                       d: int) -> Optional[Dict[Tuple[int, int], int]]:
    """Exhaustive tiler of the 2^d x 2^d grid with tiles[t0] at the
    origin; colour matching along both axes."""
    size = 2 ** d
    grid: Dict[Tuple[int, int], int] = {}
    cells = [(x, y) for y in range(size) for x in range(size)]

    def go(i):
        if i == len(cells):
            return True
        x, y = cells[i]
        for k in range(len(tiles)):
            if (x, y) == (0, 0) and k != t0:
                continue
            if x > 0 and tiles[grid[(x - 1, y)]].right != tiles[k].left:
                continue
            if y > 0 and tiles[grid[(x, y - 1)]].top != tiles[k].bot:
                continue
            grid[(x, y)] = k
            if go(i + 1):
                return True
            del grid[(x, y)]
        return False

    return dict(grid) if go(0) else None


def _coord_term(bits: Sequence[Var], n: int) -> Term:
    parts = []
    for j in range(len(bits), 0, -1):
        parts.append(bits[j - 1] if n >> (j - 1) & 1 else Compl(bits[j - 1]))
    return reduce(Prod, parts)


def gen_tiling_formula(tiles: Sequence[TileType], t0: int, d: int) -> Formula:
    """Grid formula: coordinate counters driven by two colour triples,
    chessboard component counting, and tile matching constraints."""
    if not 0 <= t0 < len(tiles):
        raise GadgetError("anchor tile index out of range")
    if d < 1:
        raise GadgetError("grid exponent must be positive")
    H = [Var(f"H{l}") for l in range(3)]
    V = [Var(f"V{l}") for l in range(3)]
    X = [Var(f"X{j}") for j in range(1, d + 1)]
    Y = [Var(f"Y{j}") for j in range(1, d + 1)]
    G = Var("G")
    T = [Var(f"T{k}") for k in range(len(tiles))]
    top = 2 ** d - 1
    out: List[Formula] = []
    for triple in (H, V):
        out.append(Eq(reduce(Sum, triple), One()))
        out.extend(Eq(Prod(triple[l], triple[(l + 1) % 3]), Zero())
                   for l in range(3))
    # binary counters: crossing a colour step increments the coordinate
    for bits, triple in ((X, H), (Y, V)):
        for l in range(3):
            l2 = (l + 1) % 3
            for k in range(d):
                out.append(Not(Contact((Prod(bits[k], triple[l]),
                                        Prod(Compl(bits[k]), triple[l])))))
            for j in range(d):
                for k in range(j):
                    out.append(Not(Contact((
                        Prod(Prod(bits[j], Compl(bits[k])), triple[l]),
                        Prod(Compl(bits[j]), triple[l2])))))
                    out.append(Not(Contact((
                        Prod(Prod(Compl(bits[j]), Compl(bits[k])), triple[l]),
                        Prod(bits[j], triple[l2])))))
            for k in range(1, d):
                low = reduce(Prod, [Compl(bits[k])] + [bits[i] for i in range(k)])
                out.append(Not(Contact((Prod(low, triple[l]),
                                        Prod(Compl(bits[k]), triple[l2])))))
                for i in range(k):
                    out.append(Not(Contact((Prod(low, triple[l]),
                                            Prod(bits[i], triple[l2])))))
            out.append(Not(Contact((Prod(reduce(Prod, list(bits)), triple[l]),
                                    triple[l2]))))
    out.append(Not(Contact((Prod(Prod(G, X[0]), Y[0]),
                            Prod(Prod(G, Compl(X[0])), Compl(Y[0]))))))
    out.append(Not(Contact((Prod(Prod(G, Compl(X[0])), Y[0]),
                            Prod(Prod(G, X[0]), Compl(Y[0]))))))
    out.append(neq(Prod(Prod(G, _coord_term(X, 0)), _coord_term(Y, 0)), Zero()))
    out.append(neq(Prod(Prod(G, _coord_term(X, top)), _coord_term(Y, top)),
                   Zero()))
    out.append(Conn(Prod(G, Sum(_coord_term(X, 0), _coord_term(Y, top)))))
    out.append(Conn(Prod(G, Sum(_coord_term(X, top), _coord_term(Y, 0)))))
    out.append(Conn(Prod(G, Sum(Compl(X[0]), _coord_term(Y, 0)))))
    out.append(Conn(Prod(G, Sum(X[0], _coord_term(Y, 0)))))
    out.append(Conn(Prod(G, Sum(_coord_term(X, 0), Compl(Y[0])))))
    out.append(Conn(Prod(G, Sum(_coord_term(X, 0), Y[0]))))
    black = Sum(Prod(X[0], Compl(Y[0])), Prod(Compl(X[0]), Y[0]))
    white = Sum(Prod(Compl(X[0]), Compl(Y[0])), Prod(X[0], Y[0]))
    # one component per occupied chessboard coordinate: half the grid
    out.append(ConnLe(2 ** (2 * d - 1), black))
    out.append(ConnLe(2 ** (2 * d - 1), white))
    out.append(Eq(reduce(Sum, T), G))
    for k1, k2 in itertools.combinations(range(len(tiles)), 2):
        out.append(Eq(Prod(T[k1], T[k2]), Zero()))
    for l in range(3):
        for l2 in range(3):
            for k1, k2 in itertools.combinations(range(len(tiles)), 2):
                out.append(Not(Contact((Prod(Prod(H[l], V[l2]), T[k1]),
                                        Prod(Prod(H[l], V[l2]), T[k2])))))
    for l in range(3):
        for k1 in range(len(tiles)):
            for k2 in range(len(tiles)):
                if tiles[k1].right != tiles[k2].left:
                    out.append(Not(Contact((Prod(H[l], T[k1]),
                                            Prod(H[(l + 1) % 3], T[k2])))))
                if tiles[k1].top != tiles[k2].bot:
                    out.append(Not(Contact((Prod(V[l], T[k1]),
                                            Prod(V[(l + 1) % 3], T[k2])))))
    out.append(leq(Prod(_coord_term(X, 0), _coord_term(Y, 0)), T[t0]))
    return conj(out)


def gen_tiling_witness(tiles: Sequence[TileType],
                       tiling: Dict[Tuple[int, int], int], d: int) -> Model:
    """Grid quasi-saw: one depth-0 point per cell, one depth-1 point per
    horizontally or vertically adjacent pair."""
    size = 2 ** d
    if set(tiling) != {(x, y) for x in range(size) for y in range(size)}:
        raise GadgetError("tiling does not cover the grid")
    for (x, y), k in tiling.items():
        if x + 1 < size and tiles[k].right != tiles[tiling[(x + 1, y)]].left:
            raise GadgetError("horizontally mismatched tiling")
        if y + 1 < size and tiles[k].top != tiles[tiling[(x, y + 1)]].bot:
            raise GadgetError("vertically mismatched tiling")
    cells = {(x, y): f"c{x}_{y}" for x in range(size) for y in range(size)}
    depth1 = {}
    for x in range(size):
        for y in range(size):
            if x + 1 < size:
                depth1[f"h{x}_{y}"] = {cells[(x, y)], cells[(x + 1, y)]}
            if y + 1 < size:
                depth1[f"u{x}_{y}"] = {cells[(x, y)], cells[(x, y + 1)]}
    supports: Dict[str, set] = {}
    for l in range(3):
        supports[f"H{l}"] = {cells[(x, y)] for (x, y) in cells if x % 3 == l}
        supports[f"V{l}"] = {cells[(x, y)] for (x, y) in cells if y % 3 == l}
    for j in range(1, d + 1):
        supports[f"X{j}"] = {cells[(x, y)] for (x, y) in cells
                             if x >> (j - 1) & 1}
        supports[f"Y{j}"] = {cells[(x, y)] for (x, y) in cells
                             if y >> (j - 1) & 1}
    supports["G"] = set(cells.values())
    for k in range(len(tiles)):
        supports[f"T{k}"] = {cells[c] for c, kk in tiling.items() if kk == k}
    return _saw_model(cells.values(), depth1.keys(), depth1, supports)


def tiles_uniform() -> List[TileType]:
    return [TileType("c", "c", "c", "c")]


def tiles_matched_quad() -> List[TileType]:
    """Four tiles forming a 2x2 block that tiles any even grid."""
    return [
        TileType("r", "g", "b", "y"),
        TileType("b", "g", "r", "y"),
        TileType("r", "y", "b", "g"),
        TileType("b", "y", "r", "g"),
    ]


def tiles_mismatched() -> List[TileType]:
    """A single tile that cannot sit next to itself horizontally."""
    return [TileType("r", "g", "b", "g")]


# ---------------------------------------------------------------------------
# Machine and tile specifications as JSON

def load_tm(data: dict) -> TuringMachine:
    try:
        return TuringMachine(
            states=tuple(data["states"]),
            initial=data["initial"],
            accepting=data["accepting"],
            halting=data["halting"],
            alphabet=tuple(data["alphabet"]),
            blank=data["blank"],
            space=int(data["space"]),
            delta=tuple(((q, a), (q2, b, int(d)))
                        for q, a, q2, b, d in data["delta"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise GadgetError(f"bad machine specification: {exc}") from exc


def load_atm(data: dict) -> AlternatingTM:
    try:
        table: Dict[Tuple[str, str], List[Tuple[str, str, int]]] = {}
        for q, a, q2, b, d in data["delta"]:
            table.setdefault((q, a), []).append((q2, b, int(d)))
        return AlternatingTM(
            states=tuple(data["states"]),
            initial=data["initial"],
            accepting=data["accepting"],
            rejecting=data.get("rejecting", data.get("halting")),
            alphabet=tuple(data["alphabet"]),
            blank=data["blank"],
            space=int(data["space"]),
            mode=tuple(sorted(data["mode"].items())),
            delta=tuple((key, (pair[0], pair[1]))
                        for key, pair in sorted(table.items())))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise GadgetError(f"bad machine specification: {exc}") from exc


def load_tileset(data: dict) -> Tuple[List[TileType], int, int]:
    try:
        tiles = [TileType(t["left"], t["top"], t["right"], t["bot"])
                 for t in data["tiles"]]
        ids = [t["id"] for t in data["tiles"]]
        return tiles, ids.index(data["anchor"]), int(data["d"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GadgetError(f"bad tile specification: {exc}") from exc


# ---------------------------------------------------------------------------
# Named example corpus

@dataclass(frozen=True)
class CorpusEntry:
    name: str
    formula: Formula
    frame_class: str
    expected: str
    bound: Optional[int] = None
    witness: Optional[Model] = None
    note: str = ""


def _ec(t1, t2):
    return F.Rcc8("EC", t1, t2)


def _disconnected_witness() -> Model:
    return _saw_model(["t0_0", "t1_0"], ["h0", "h1"],
                      {"h0": {"t0_0"}, "h1": {"t1_0"}}, {"r1": {"t0_0"}})


def _two_fork_witness() -> Model:
    return _saw_model(["x0", "x1", "x2"], ["z0", "z1"],
                      {"z0": {"x0", "x1"}, "z1": {"x1", "x2"}},
                      {"r1": {"x0", "x2"}}, "conregc")


def _clique_witness(k: int) -> Model:
    teeth = [f"x{i}" for i in range(k)]
    succ1 = {f"z{i}_{j}": {teeth[i], teeth[j]}
             for i, j in itertools.combinations(range(k), 2)}
    supports = {f"r{i + 1}": {teeth[i]} for i in range(k)}
    return _saw_model(teeth, succ1.keys(), succ1, supports)


def _k5_witness() -> Model:
    vertices = {i: f"n{i}" for i in range(1, 6)}
    depth0 = set(vertices.values())
    depth1 = {}
    supports = {f"r{i}": {vertices[i]} for i in vertices}
    for i, j in itertools.combinations(range(1, 6), 2):
        mid = f"e{i}_{j}"
        depth0.add(mid)
        depth1[f"za{i}_{j}"] = {vertices[i], mid}
        depth1[f"zb{i}_{j}"] = {mid, vertices[j]}
        supports[f"r{i}_{j}"] = {vertices[i], mid, vertices[j]}
    return _saw_model(depth0, depth1.keys(), depth1, supports)


def _torus_witness() -> Model:
    cycle = {"z1": {"ta", "tb"}, "z2": {"tb", "tc"},
             "z3": {"tc", "td"}, "z4": {"td", "ta"}}
    frame = QuasiSawFrame(["ta", "tb", "tc", "td"], cycle.keys(), cycle)
    valuation = {"r1": frame.closure(frozenset({"ta"})),
                 "r2": frame.closure(frozenset({"tc"}))}
    return Model(frame, valuation, "con")


def _k5_formula() -> Formula:
    out: List[Formula] = []
    pairs = list(itertools.combinations(range(1, 6), 2))
    for (i, j), (k, l) in itertools.combinations(pairs, 2):
        if not {i, j} & {k, l}:
            out.append(F.Rcc8("DC", Var(f"r{i}_{j}"), Var(f"r{k}_{l}")))
    for i in range(1, 6):
        for j, k in pairs:
            if i in (j, k):
                out.append(F.Rcc8("TPP", Var(f"r{i}"), Var(f"r{j}_{k}")))
    out.extend(Conn(Var(f"r{i}_{j}")) for i, j in pairs)
    return conj(out)


def corpus() -> List[CorpusEntry]:
    """Named formulas with their expected verdicts; satisfiable entries
    carry machine-checkable witness models."""
    r1, r2, r3 = Var("r1"), Var("r2"), Var("r3")
    x, y = Var("x"), Var("y")
    entries: List[CorpusEntry] = []

    entries.append(CorpusEntry(
        "ec-both-sides",
        And(_ec(r1, r2), _ec(r1, Compl(r2))),
        "regc", "UNSAT",
        note="nothing borders both a region and its complement"))
    entries.append(CorpusEntry(
        "ec-distribution",
        F.Implies(_ec(Sum(r1, r2), r3), F.Or(_ec(r1, r3), _ec(r2, r3))),
        "regc", "VALID",
        note="external contact distributes over agglomeration"))
    entries.append(CorpusEntry(
        "overlap-joins-components",
        F.Implies(conj([Conn(r1), Conn(r2), neq(Prod(r1, r2), Zero())]),
                  Conn(Sum(r1, r2))),
        "regc", "VALID", bound=6,
        note="overlapping connected regions have a connected sum"))
    entries.append(CorpusEntry(
        "sandwich-connected",
        F.Implies(conj([Conn(x), leq(x, y, "set"),
                        Eq(Inter(y, SetCompl(F.Closure(x))), Zero())]),
                  Conn(y)),
        "all", "VALID", bound=5,
        note="a set squeezed between a connected set and its closure"))
    entries.append(CorpusEntry(
        "component-count-sum",
        F.Implies(conj([ConnLe(2, r1), ConnLe(2, r2),
                        neq(Prod(r1, r2), Zero())]),
                  ConnLe(3, Sum(r1, r2))),
        "regc", "VALID", bound=6,
        note="component counts of overlapping sums add up minus one"))
    disconnect = conj([Not(Contact((r1, Compl(r1)))),
                       neq(r1, Zero()), neq(r1, One())])
    entries.append(CorpusEntry(
        "interior-region-regc", disconnect, "regc", "SAT",
        witness=_disconnected_witness(),
        note="a region away from its complement needs a disconnected space"))
    entries.append(CorpusEntry(
        "interior-region-conregc", disconnect, "conregc",
        "UNSAT_WITHIN_BOUND", bound=12))
    entries.append(CorpusEntry(
        "two-fork",
        And(Not(Conn(r1)), Conn(One())),
        "conregc", "SAT", bound=5, witness=_two_fork_witness(),
        note="smallest connected model with a disconnected region"))
    triangle = conj([Conn(Var(f"r{i}")) for i in (1, 2, 3)] +
                    [_ec(Var(f"r{i}"), Var(f"r{j}"))
                     for i, j in itertools.combinations((1, 2, 3), 2)])
    entries.append(CorpusEntry(
        "triangle-contact-regc", triangle, "regc", "SAT",
        bound=6, witness=_clique_witness(3)))
    entries.append(CorpusEntry(
        "triangle-contact-fence", triangle, "fence",
        "UNSAT_WITHIN_BOUND", bound=20,
        note="three intervals cannot touch pairwise without overlap"))
    star = conj([Conn(r1)] +
                [_ec(Var(f"r{i}"), Var(f"r{j}"))
                 for i, j in itertools.combinations((1, 2, 3, 4), 2)])
    entries.append(CorpusEntry(
        "four-clique-contact-regc", star, "regc", "SAT",
        bound=10, witness=_clique_witness(4)))
    entries.append(CorpusEntry(
        "four-clique-contact-fence", star, "fence",
        "UNSAT_WITHIN_BOUND", bound=20,
        note="needs regions with ever more interval components"))
    entries.append(CorpusEntry(
        "k5-incidence", _k5_formula(), "regc", "SAT",
        witness=_k5_witness(),
        note="vertex and edge regions of the complete graph on five nodes"))
    entries.append(CorpusEntry(
        "torus-rings",
        conj([Eq(Inter(x, y), Zero()),
              leq(F.Closure(x), x, "set"), Conn(SetCompl(x)),
              leq(F.Closure(y), y, "set"), Conn(SetCompl(y)),
              Not(Conn(Inter(SetCompl(x), SetCompl(y))))]),
        "con", "SAT", bound=8,
        witness=Model(_torus_witness().frame,
                      {"x": _torus_witness().valuation["r1"],
                       "y": _torus_witness().valuation["r2"]}, "con"),
        note="two disjoint closed rings whose complements are connected"))
    accepter = tm_accepter()
    entries.append(CorpusEntry(
        "machine-run-accepting",
        gen_tm_formula(accepter, ()),
        "conregc", "SAT", bound=5,
        witness=gen_tm_witness(accepter, (), run_of(accepter, ())),
        note="run encoding of a machine that accepts the empty word"))
    entries.append(CorpusEntry(
        "machine-run-rejecting",
        gen_tm_formula(tm_rejecter(), ()),
        "conregc", "UNSAT", bound=4,
        note="run encoding of a machine that halts without accepting; "
             "its skeleton is propositionally false"))
    uniform = tiles_uniform()
    entries.append(CorpusEntry(
        "grid-tiling-uniform",
        gen_tiling_formula(uniform, 0, 1),
        "regc", "SAT",
        witness=gen_tiling_witness(uniform, brute_force_tiling(uniform, 0, 1), 1),
        note="two-by-two grid tiled by a single self-matching tile"))
    rejecter = atm_rejecter()
    tree = computation_tree(rejecter, ())
    boxes = [g for g in tree.subformulas if isinstance(g, MBox)]
    entries.append(CorpusEntry(
        "tree-run-rejecting",
        gen_atm_formula(rejecter, ()),
        "conregc", "SAT",
        witness=gen_tree_witness(tree, boxes),
        note="7-saw encoding of a finite rejecting computation tree"))
    return entries
