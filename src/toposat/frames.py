"""Finite quasi-orders as Aleksandrov spaces.

A frame is a finite set of points with a reflexive-transitive order;
opens are the up-closed sets, so interior keeps the points whose whole
successor set stays inside. Quasi-saws are the two-level special case
(depth-1 points see only depth-0 points) and carry the regular-closed
sets in bijection with the depth-0 subsets.

Convention: the empty set is connected (it is not a union of two
non-empty disjoint opens), so components(empty) = [] while conn(empty)
holds. This deliberately diverges from the aside that a region always
has at least one component.
"""

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

PointSet = FrozenSet[str]

# How each frame class reads a formula, in one place: the regular-closed
# classes range variables over regular closed sets, the others over
# arbitrary sets, and the connected classes admit connected frames only.
FRAME_CLASSES = ("regc", "conregc", "all", "con", "fence")
RC_CLASSES = ("regc", "conregc", "fence")
CONNECTED_CLASSES = ("conregc", "con")


def family_mismatch(family: Optional[str], frame_class: str) -> Optional[str]:
    """Why a formula whose terms are of `family` ('rc', 'set' or None, as
    `formula.formula_family` says) cannot be read over `frame_class`, or
    None when it can."""
    if family == "rc" and frame_class not in RC_CLASSES:
        return "regular-closed formula on a raw set frame class"
    if family == "set" and frame_class in RC_CLASSES:
        return "set-operator formula on a regular-closed frame class"
    return None


class FrameError(Exception):
    """Invalid frame, model or point set."""


class LoadError(FrameError):
    """Fatal model-file error with a machine-readable code."""

    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code


def _reflexive_transitive_closure(points, edges):
    succ = {p: {p} for p in points}
    for u, v in edges:
        succ[u].add(v)
    changed = True
    while changed:
        changed = False
        for p in points:
            extra = set()
            for q in succ[p]:
                extra |= succ[q]
            if not extra <= succ[p]:
                succ[p] |= extra
                changed = True
    return {p: frozenset(s) for p, s in succ.items()}


class QuasiOrderFrame:
    """Finite reflexive-transitive order; successor sets per point."""

    def __init__(self, points: Iterable[str], edges: Iterable[Tuple[str, str]]):
        self.points: PointSet = frozenset(points)
        for u, v in edges:
            if u not in self.points or v not in self.points:
                raise FrameError(f"edge ({u},{v}) mentions unknown point")
        self.succ: Dict[str, PointSet] = _reflexive_transitive_closure(self.points, edges)
        pred: Dict[str, List[str]] = {p: [] for p in self.points}
        for p, above in self.succ.items():
            for q in above:
                pred[q].append(p)
        self.pred: Dict[str, PointSet] = {p: frozenset(qs) for p, qs in pred.items()}

    def check_subset(self, X: PointSet):
        if not X <= self.points:
            raise FrameError(f"point set {sorted(X - self.points)} not over this frame")

    def interior(self, X: PointSet) -> PointSet:
        self.check_subset(X)
        return frozenset(x for x in X if self.succ[x] <= X)

    def closure(self, X: PointSet) -> PointSet:
        self.check_subset(X)
        return frozenset().union(*[self.pred[x] for x in X])

    def complement(self, X: PointSet) -> PointSet:
        self.check_subset(X)
        return self.points - X

    def is_regular_closed(self, X: PointSet) -> bool:
        return X == self.closure(self.interior(X))

    def components(self, X: PointSet) -> List[PointSet]:
        """Maximal connected pieces of X under the undirected order graph,
        each by its least point. The points of X are visited in order and a
        search starts from each one no earlier search reached, so each
        point is reached once and each piece is found from its least one."""
        self.check_subset(X)
        succ, pred = self.succ, self.pred
        reached = set()
        out = []
        for seed in sorted(X):
            if seed in reached:
                continue
            reached.add(seed)
            comp = [seed]
            frontier = [seed]
            while frontier:
                x = frontier.pop()
                for near in (succ[x], pred[x]):
                    for y in near & X:
                        if y not in reached:
                            reached.add(y)
                            comp.append(y)
                            frontier.append(y)
            out.append(frozenset(comp))
        return out

    def is_connected(self) -> bool:
        return len(self.components(self.points)) <= 1

    def regular_closed_sets(self) -> List[PointSet]:
        """All RC sets (exhaustive; small frames only)."""
        points = sorted(self.points)
        out = []
        for mask in range(1 << len(points)):
            X = frozenset(points[i] for i in range(len(points)) if mask >> i & 1)
            if self.is_regular_closed(X):
                out.append(X)
        return out

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"<{type(self).__name__} {len(self.points)} points>"


class QuasiSawFrame(QuasiOrderFrame):
    """Depth-0/depth-1 bipartite frame: order is the reflexive closure of
    a relation from depth-1 points into depth-0 points."""

    def __init__(self, depth0: Iterable[str], depth1: Iterable[str],
                 succ1: Dict[str, Iterable[str]]):
        self.depth0: PointSet = frozenset(depth0)
        self.depth1: PointSet = frozenset(depth1)
        if self.depth0 & self.depth1:
            raise FrameError("depth-0 and depth-1 point sets overlap")
        edges = []
        for z, targets in succ1.items():
            if z not in self.depth1:
                raise FrameError(f"successor map key {z!r} is not a depth-1 point")
            for a in targets:
                if a not in self.depth0:
                    raise FrameError(f"depth-1 point {z!r} points at non-depth-0 {a!r}")
                edges.append((z, a))
        super().__init__(self.depth0 | self.depth1, edges)
        self.succ1: Dict[str, PointSet] = {
            z: self.succ[z] - {z} for z in self.depth1
        }

    def rc_from_support(self, U: PointSet) -> PointSet:
        """RC set with depth-0 part U: add each depth-1 point seeing U."""
        if not U <= self.depth0:
            raise FrameError("support must be a subset of the depth-0 points")
        return U | frozenset(z for z in self.depth1 if self.succ1[z] & U)

    def support(self, X: PointSet) -> PointSet:
        return X & self.depth0


def as_quasi_saw(frame: QuasiOrderFrame) -> Optional[QuasiSawFrame]:
    """Reinterpret a general frame as a quasi-saw if it has the shape."""
    if isinstance(frame, QuasiSawFrame):
        return frame
    depth0 = {p for p in frame.points if frame.succ[p] == frozenset({p})}
    depth1 = frame.points - depth0
    succ1 = {}
    for z in depth1:
        rest = frame.succ[z] - {z}
        if not rest <= depth0:
            return None
        succ1[z] = rest
    return QuasiSawFrame(depth0, depth1, succ1)


# ---------------------------------------------------------------------------
# Models

@dataclass(frozen=True)
class Model:
    frame: QuasiOrderFrame
    valuation: Dict[str, PointSet]
    frame_class: str = "regc"

    def __post_init__(self):
        if self.frame_class not in FRAME_CLASSES:
            raise FrameError(f"unknown frame class {self.frame_class!r}")
        rc = self.frame_class in RC_CLASSES
        for name, X in self.valuation.items():
            self.frame.check_subset(X)
            if rc and not self.frame.is_regular_closed(X):
                raise FrameError(f"valuation of {name!r} is not regular closed")
        if self.frame_class in CONNECTED_CLASSES and not self.frame.is_connected():
            raise FrameError(f"frame class {self.frame_class!r} requires a connected frame")
        if self.frame_class == "fence":
            fence_cells(self.frame)


def fence_cells(frame: QuasiOrderFrame) -> List[Tuple[str, str]]:
    """Cell sequence of a linear fence as (point id, 'interval'|'point') pairs.

    Depth-0 cells stand for open intervals of the real line, depth-1
    cells for boundary points between adjacent intervals; the incidence
    graph must be a path whose ends are interval cells.
    """
    saw = as_quasi_saw(frame)
    if saw is None:
        raise FrameError("fence frames must be quasi-saws")
    if not saw.points:
        return []
    for z in saw.depth1:
        if not 1 <= len(saw.succ1[z]) <= 2:
            raise FrameError("fence boundary points need one or two neighbouring intervals")
    # walk the incidence path from a canonical end
    adj = {p: set() for p in saw.points}
    for z in saw.depth1:
        for a in saw.succ1[z]:
            adj[z].add(a)
            adj[a].add(z)
    ends = sorted(p for p in saw.points if len(adj[p]) <= 1)
    if len(saw.points) == 1:
        ends = sorted(saw.points)
    if not ends:
        raise FrameError("fence incidence graph must be a path, found a cycle")
    start = ends[0]
    if start in saw.depth1 and len(saw.succ1[start]) == 2:
        raise FrameError("fence incidence graph must be a path")
    order = [start]
    seen = {start}
    cur = start
    while True:
        nxt = [q for q in adj[cur] if q not in seen]
        if not nxt:
            break
        if len(nxt) > 1:
            raise FrameError("fence incidence graph must be a path")
        cur = nxt[0]
        seen.add(cur)
        order.append(cur)
    if len(order) != len(saw.points):
        raise FrameError("fence incidence graph must be a path (disconnected input)")
    if order[0] in saw.depth1 or order[-1] in saw.depth1:
        raise FrameError("fence must start and end with interval cells")
    return [(p, "interval" if p in saw.depth0 else "point") for p in order]


def make_fence(n_intervals: int) -> QuasiSawFrame:
    """Linear fence with n interval cells, i0 to i{n-1} from left to
    right, and the n-1 boundary points between them."""
    if n_intervals < 1:
        raise FrameError("fence needs at least one interval cell")
    depth0 = [f"i{j}" for j in range(n_intervals)]
    depth1 = [f"p{j}" for j in range(1, n_intervals)]
    succ1 = {f"p{j}": {f"i{j-1}", f"i{j}"} for j in range(1, n_intervals)}
    return QuasiSawFrame(depth0, depth1, succ1)


# ---------------------------------------------------------------------------
# Constructions

def make_fork_frame(ks: Iterable[int]) -> QuasiSawFrame:
    """Disjoint union of k-forks: one hub of depth 1 with k depth-0 teeth."""
    depth0, depth1, succ1 = [], [], {}
    for i, k in enumerate(ks):
        if k < 1:
            raise FrameError("fork arity must be at least 1")
        hub = f"h{i}"
        teeth = [f"t{i}_{j}" for j in range(k)]
        depth1.append(hub)
        depth0.extend(teeth)
        succ1[hub] = set(teeth)
    return QuasiSawFrame(depth0, depth1, succ1)


def broom(model: Model) -> Model:
    """Flatten a finite quasi-order model with RC valuation to a quasi-saw,
    keeping every Boolean-term extension and its component count.

    Maximal points become depth 0, except one representative per final
    cluster of size >= 2, which drops to depth 1 with the rest; the new
    order keeps exactly the old edges from depth 1 into depth 0.
    """
    frame = model.frame
    for name, X in model.valuation.items():
        if not frame.is_regular_closed(X):
            raise FrameError(f"valuation of {name!r} is not regular closed")
    # clusters: mutual-reachability classes; final = no exit edges
    cluster_of = {}
    for p in frame.points:
        cluster_of[p] = frozenset(q for q in frame.succ[p] if p in frame.succ[q])
    maximal = set()
    selected = set()
    for cluster in set(cluster_of.values()):
        exits = set().union(*(frame.succ[p] for p in cluster)) - cluster
        if exits:
            continue
        maximal |= cluster
        if len(cluster) >= 2:
            selected.add(min(cluster))
    v0 = maximal - selected
    v1 = frame.points - v0
    succ1 = {z: frame.succ[z] & v0 for z in v1}
    saw = QuasiSawFrame(v0, v1, succ1)
    return Model(saw, dict(model.valuation), model.frame_class)


def connectify(model: Model, language: str) -> Model:
    """Join the components of a quasi-saw model without touching any
    RCC8 literal (language='rcc8': fresh depth-0 sink below every hub)
    or Boolean literal (language='b': fresh depth-1 hub over everything)."""
    saw = as_quasi_saw(model.frame)
    if saw is None:
        raise FrameError("connectify needs a quasi-saw model")
    if language == "rcc8":
        w = _fresh_point(saw.points, "w")
        succ1 = {z: set(saw.succ1[z]) | {w} for z in saw.depth1}
        new = QuasiSawFrame(saw.depth0 | {w}, saw.depth1, succ1)
        valuation = dict(model.valuation)
    elif language == "b":
        z = _fresh_point(saw.points, "z")
        succ1 = {u: set(saw.succ1[u]) for u in saw.depth1}
        succ1[z] = set(saw.depth0)
        new = QuasiSawFrame(saw.depth0, saw.depth1 | {z}, succ1)
        valuation = {
            name: (X | {z} if X & saw.depth0 else X)
            for name, X in model.valuation.items()
        }
    else:
        raise FrameError("connectify language must be 'b' or 'rcc8'")
    frame_class = {"regc": "conregc", "all": "con"}.get(model.frame_class, model.frame_class)
    if not new.is_connected():
        frame_class = model.frame_class
    return Model(new, valuation, frame_class)


def _fresh_point(taken, stem):
    name = stem
    n = 0
    while name in taken:
        n += 1
        name = f"{stem}{n}"
    return name


def subspace_model(model: Model, s: str) -> Model:
    """Restrict to the subspace carried by s: order restricted to s's
    extension, every variable r remapped to the product s*r."""
    if s not in model.valuation:
        raise FrameError(f"variable {s!r} absent from the valuation")
    S = model.valuation[s]
    frame = model.frame
    edges = [(u, v) for u in S for v in frame.succ[u] & S if u != v]
    sub = QuasiOrderFrame(S, edges)
    valuation = {}
    for name, X in model.valuation.items():
        if model.frame_class in RC_CLASSES:
            # ambient product s*r; lands inside S and is RC in the subspace
            valuation[name] = frame.closure(frame.interior(S & X))
        else:
            valuation[name] = S & X
    frame_class = model.frame_class
    if frame_class in CONNECTED_CLASSES and not sub.is_connected():
        frame_class = {"conregc": "regc", "con": "all"}[frame_class]
    if frame_class == "fence":
        frame_class = "regc"
    return Model(sub, valuation, frame_class)


# ---------------------------------------------------------------------------
# Serialization

def load_model(data) -> Model:
    """Model from the JSON shape {"frame": {"points": [...], "edges": [...]},
    "frame_class": ..., "valuation": {...}}."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise LoadError("E_JSON", str(e)) from None
    if not isinstance(data, dict) or "frame" not in data:
        raise LoadError("E_SHAPE", "top-level object must contain 'frame'")
    frame_spec = data["frame"]
    try:
        points = frame_spec["points"]
        edges = [tuple(e) for e in frame_spec.get("edges", [])]
    except (KeyError, TypeError) as e:
        raise LoadError("E_SHAPE", f"bad frame object: {e}") from None
    ids, depths = [], {}
    for p in points:
        if isinstance(p, str):
            ids.append(p)
        elif isinstance(p, dict) and "id" in p:
            ids.append(p["id"])
            if "depth" in p:
                depths[p["id"]] = p["depth"]
        else:
            raise LoadError("E_POINT", f"bad point entry {p!r}")
    if len(set(ids)) != len(ids):
        raise LoadError("E_POINT", "duplicate point identifiers")
    frame_class = data.get("frame_class", "regc")
    if frame_class not in FRAME_CLASSES:
        raise LoadError("E_CLASS", f"unknown frame class {frame_class!r}")
    if depths and len(depths) == len(ids) and set(depths.values()) <= {0, 1}:
        depth0 = [p for p in ids if depths[p] == 0]
        depth1 = [p for p in ids if depths[p] == 1]
        succ1 = {z: set() for z in depth1}
        for u, v in edges:
            if u not in succ1 or v not in set(depth0):
                raise LoadError("E_EDGE", f"edge ({u},{v}) breaks the quasi-saw shape")
            succ1[u].add(v)
        try:
            frame = QuasiSawFrame(depth0, depth1, succ1)
        except FrameError as e:
            raise LoadError("E_FRAME", str(e)) from None
    else:
        try:
            frame = QuasiOrderFrame(ids, edges)
        except FrameError as e:
            raise LoadError("E_FRAME", str(e)) from None
        saw = as_quasi_saw(frame)
        if saw is not None and frame_class in RC_CLASSES:
            frame = saw
    valuation = {}
    for name, members in data.get("valuation", {}).items():
        valuation[name] = frozenset(members)
    try:
        return Model(frame, valuation, frame_class)
    except FrameError as e:
        raise LoadError("E_MODEL", str(e)) from None


def model_to_json(model: Model) -> dict:
    frame = model.frame
    saw = as_quasi_saw(frame)
    if saw is not None:
        points = [{"id": p, "depth": 0} for p in sorted(saw.depth0)]
        points += [{"id": p, "depth": 1} for p in sorted(saw.depth1)]
        edges = sorted((z, a) for z in saw.depth1 for a in saw.succ1[z])
    else:
        points = [{"id": p} for p in sorted(frame.points)]
        edges = sorted((u, v) for u in frame.points for v in frame.succ[u] if u != v)
    return {
        "frame": {"points": points, "edges": [list(e) for e in edges]},
        "frame_class": model.frame_class,
        "valuation": {name: sorted(X) for name, X in sorted(model.valuation.items())},
    }
