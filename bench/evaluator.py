"""The benchmark's own model checker and its planted instances.

A quasi-saw here is `Saw(p, hubs)`: teeth are bits 0..p-1 and each hub
is the bitmask of the teeth it sees. A regular-closed region is given
by its support, a bitmask of teeth; the region itself is the support
plus every hub that sees part of it. Raw sets (frame classes `all` and
`con`) are bitmasks over all points, teeth first, then hubs.

Nothing here calls the solver or `toposat.semantics`: the answers this
module gives are the benchmark's independent reference. It uses only
the formula AST classes of `toposat.formula`, passed in as `F`.
"""

class Saw:
    """A two-level frame: p teeth, hubs as tooth bitmasks."""

    def __init__(self, p, hubs):
        self.p = p
        self.hubs = list(hubs)
        self.q = len(self.hubs)
        self.full = (1 << p) - 1
        self.everything = (1 << (p + self.q)) - 1

    def rc_components(self, support):
        """Components of a regular-closed region: its teeth, joined
        through each hub that sees two of them."""
        return _count_groups(
            [1 << i for i in range(self.p) if support >> i & 1],
            [h & support for h in self.hubs])

    def set_components(self, x):
        """Components of a raw point set under the undirected order."""
        groups = [1 << i for i in range(self.p) if x >> i & 1]
        links = []
        for j, h in enumerate(self.hubs):
            if x >> (self.p + j) & 1:
                groups.append(1 << (self.p + j))
                links.append((h & x) | 1 << (self.p + j))
        return _count_groups(groups, links)

    def connected(self):
        return self.set_components(self.everything) <= 1

    def is_fence(self):
        """Teeth and hubs alternate along one path."""
        degree = [sum(1 for h in self.hubs if h >> i & 1) for i in range(self.p)]
        return (self.p >= 1 and self.q == self.p - 1 and self.connected()
                and all(bin(h).count("1") == 2 for h in self.hubs)
                and all(d <= 2 for d in degree))

    def points(self):
        return self.p + self.q


def _count_groups(groups, links):
    """Number of classes of `groups` (disjoint bitmasks) once every
    link bitmask merges the groups it meets."""
    groups = list(groups)
    for link in links:
        hit = [g for g in groups if g & link]
        if len(hit) > 1:
            merged = 0
            for g in hit:
                merged |= g
            groups = [g for g in groups if not g & link] + [merged]
    return len(groups)


# ---------------------------------------------------------------------------
# Evaluation

class Evaluator:
    """Truth of formulas over a `Saw` with supports (`family="rc"`) or
    point masks (`family="set"`) as the valuation."""

    def __init__(self, F, saw, valuation, family="rc"):
        self.F = F
        self.saw = saw
        self.val = valuation
        self.family = family

    def term(self, t):
        F, saw = self.F, self.saw
        if isinstance(t, F.Var):
            return self.val[t.name]
        if isinstance(t, F.Zero):
            return 0
        if isinstance(t, F.One):
            return saw.full if self.family == "rc" else saw.everything
        if isinstance(t, (F.Sum, F.Union)):
            return self.term(t.left) | self.term(t.right)
        if isinstance(t, (F.Prod, F.Inter)):
            return self.term(t.left) & self.term(t.right)
        if isinstance(t, F.Compl):
            return saw.full & ~self.term(t.arg)
        if isinstance(t, F.SetCompl):
            return saw.everything & ~self.term(t.arg)
        if isinstance(t, F.Interior):
            x = self.term(t.arg)
            out = x & saw.full
            for j, h in enumerate(saw.hubs):
                if x >> (saw.p + j) & 1 and not h & ~x:
                    out |= 1 << (saw.p + j)
            return out
        if isinstance(t, F.Closure):
            x = self.term(t.arg)
            for j, h in enumerate(saw.hubs):
                if h & x:
                    x |= 1 << (saw.p + j)
            return x
        raise ValueError(f"not a term: {t!r}")

    def _rc_contact(self, supports):
        common = self.saw.full
        for s in supports:
            common &= s
        return bool(common) or any(all(h & s for s in supports)
                                   for h in self.saw.hubs)

    def _rc_inside_interior(self, s1, s2):
        """Region of s1 lies in the interior of the region of s2."""
        return not s1 & ~s2 and all(not h & s1 or not h & ~s2
                                    for h in self.saw.hubs)

    def _rcc8(self, rel, s1, s2):
        if rel == "TPPi":
            return self._rcc8("TPP", s2, s1)
        if rel == "NTPPi":
            return self._rcc8("NTPP", s2, s1)
        if rel == "DC":
            return not self._rc_contact([s1, s2])
        if rel == "EC":
            return self._rc_contact([s1, s2]) and not s1 & s2
        if rel == "PO":
            return bool(s1 & s2 and s1 & ~s2 and s2 & ~s1)
        if rel == "EQ":
            return s1 == s2
        if rel == "TPP":
            return (not s1 & ~s2 and bool(s2 & ~s1)
                    and not self._rc_inside_interior(s1, s2))
        if rel == "NTPP":
            return self._rc_inside_interior(s1, s2) and bool(s2 & ~s1)
        raise ValueError(f"unknown relation {rel!r}")

    def components(self, x):
        if self.family == "rc":
            return self.saw.rc_components(x)
        return self.saw.set_components(x)

    def holds(self, f):
        F = self.F
        if isinstance(f, F.Eq):
            return self.term(f.left) == self.term(f.right)
        if isinstance(f, F.Contact):
            xs = [self.term(t) for t in f.terms]
            if self.family == "rc":
                return self._rc_contact(xs)
            common = self.saw.everything
            for x in xs:
                common &= x
            return bool(common)
        if isinstance(f, F.Rcc8):
            return self._rcc8(f.rel, self.term(f.left), self.term(f.right))
        if isinstance(f, F.Conn):
            return self.components(self.term(f.term)) <= 1
        if isinstance(f, F.ConnLe):
            return self.components(self.term(f.term)) <= f.k
        if isinstance(f, F.Not):
            return not self.holds(f.arg)
        if isinstance(f, F.And):
            return self.holds(f.left) and self.holds(f.right)
        if isinstance(f, F.Or):
            return self.holds(f.left) or self.holds(f.right)
        if isinstance(f, F.Implies):
            return not self.holds(f.left) or self.holds(f.right)
        raise ValueError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Reading the program's models

def from_model(F, model):
    """`(saw, valuation, family)` for a `toposat.frames.Model` whose frame
    is two-level, or None when it is not. Regular-closed valuations must
    be the closure of their support, or None is returned."""
    frame = model.frame
    depth0 = sorted(p for p in frame.points if frame.succ[p] == {p})
    depth1 = sorted(frame.points - set(depth0))
    index = {t: i for i, t in enumerate(depth0)}
    hubs = []
    for z in depth1:
        seen = frame.succ[z] - {z}
        if not seen <= set(depth0):
            return None
        hubs.append(sum(1 << index[t] for t in seen))
    saw = Saw(len(depth0), hubs)
    position = dict(index)
    position.update({z: saw.p + j for j, z in enumerate(depth1)})
    rc = model.frame_class in ("regc", "conregc", "fence")
    valuation = {}
    for name, region in model.valuation.items():
        mask = sum(1 << position[x] for x in region)
        if rc:
            support = mask & saw.full
            closure = support | sum(1 << (saw.p + j)
                                    for j, h in enumerate(hubs) if h & support)
            if mask != closure:
                return None
            mask = support
        valuation[name] = mask
    return saw, valuation, "rc" if rc else "set"


def certificate_ok(F, model, f, frame_class):
    """The benchmark's own check of a satisfying model: right frame
    class, right frame shape, and f true in it."""
    if model.frame_class != frame_class:
        return False
    read = from_model(F, model)
    if read is None:
        return False
    saw, valuation, family = read
    if frame_class in ("conregc", "con") and not saw.connected():
        return False
    if frame_class == "fence" and saw.points() and not saw.is_fence():
        return False
    if any(name not in valuation for name in _variables(F, f)):
        return False
    return Evaluator(F, saw, valuation, family).holds(f)


def _variables(F, f):
    return {s.name for t in F.terms_of(f) for s in F.subterms(t)
            if isinstance(s, F.Var)}


def to_model(F, frames, saw, valuation, frame_class):
    """The same model as a `toposat.frames.Model` (teeth a<i>, hubs z<j>)."""
    teeth = [f"a{i}" for i in range(saw.p)]
    succ1 = {f"z{j}": {teeth[i] for i in range(saw.p) if h >> i & 1}
             for j, h in enumerate(saw.hubs)}
    frame = frames.QuasiSawFrame(teeth, succ1.keys(), succ1)
    regions = {}
    for name, mask in valuation.items():
        if frame_class in ("regc", "conregc", "fence"):
            regions[name] = frame.rc_from_support(frozenset(
                teeth[i] for i in range(saw.p) if mask >> i & 1))
        else:
            regions[name] = frozenset(
                [teeth[i] for i in range(saw.p) if mask >> i & 1]
                + [z for j, z in enumerate(succ1) if mask >> (saw.p + j) & 1])
    return frames.Model(frame, regions, frame_class)


# ---------------------------------------------------------------------------
# Random frames, terms and planted conjunctions

def random_saw(rng, teeth, hubs, connected=False):
    """Quasi-saw whose hubs see pairwise incomparable, distinct tooth
    sets; a hub seeing a subset of another hub's teeth changes no
    truth value, so the point count is what the search must reach."""
    for _ in range(1000):
        masks = set()
        for _ in range(hubs * 4):
            if len(masks) == hubs:
                break
            m = rng.randint(1, (1 << teeth) - 1)
            if bin(m).count("1") >= 2 and all(
                    m & o not in (m, o) for o in masks):
                masks.add(m)
        if len(masks) != hubs:
            continue
        saw = Saw(teeth, sorted(masks))
        if not connected or saw.connected():
            return saw
    raise ValueError(f"no quasi-saw with {teeth} teeth and {hubs} hubs")


def fence_saw(intervals):
    return Saw(intervals, [3 << i for i in range(intervals - 1)])


def random_supports(rng, saw, names):
    if saw.p < 2:
        raise ValueError("a proper non-empty region needs two teeth")
    while True:
        val = {v: rng.randint(0, saw.full) for v in names}
        # no region empty or everything, so literals say something
        if all(0 < s < saw.full for s in val.values()):
            return val


def random_term(F, rng, names, depth):
    if depth == 0 or rng.random() < 0.35:
        return F.Var(rng.choice(names))
    op = rng.choice(("sum", "prod", "compl"))
    if op == "compl":
        return F.Compl(random_term(F, rng, names, depth - 1))
    left = random_term(F, rng, names, depth - 1)
    right = random_term(F, rng, names, depth - 1)
    return F.Sum(left, right) if op == "sum" else F.Prod(left, right)


def random_atom(F, rng, names, kinds, relations=None):
    kind = rng.choice(kinds)
    if kind == "eq":
        return F.Eq(random_term(F, rng, names, 2), random_term(F, rng, names, 1))
    if kind == "zero":
        return F.Eq(random_term(F, rng, names, 2), F.ZERO)
    if kind == "c":
        return F.Contact((random_term(F, rng, names, 2),
                          random_term(F, rng, names, 1)))
    if kind == "cm":
        return F.Contact(tuple(random_term(F, rng, names, 1) for _ in range(3)))
    if kind == "rcc8":
        a, b = rng.sample(names, 2)
        return F.Rcc8(rng.choice(relations or F.RCC8_RELATIONS), F.Var(a), F.Var(b))
    if kind == "conn":
        return F.Conn(random_term(F, rng, names, 1))
    if kind == "conn_le":
        return F.ConnLe(rng.randint(1, 2), random_term(F, rng, names, 1))
    raise ValueError(kind)


# Atoms one relation atom becomes once rewritten into contact form.
RCC8_ATOMS = {"DC": 1, "EQ": 1, "EC": 2, "NTPP": 2, "NTPPi": 2,
              "PO": 3, "TPP": 3, "TPPi": 3}


def skeleton_atoms(F, atom):
    return RCC8_ATOMS[atom.rel] if isinstance(atom, F.Rcc8) else 1


def planted(F, rng, saw, names, kinds, atoms, must=(), relations=None):
    """A conjunction true in a random valuation over `saw`, whose literals
    add up to exactly `atoms` atoms in contact form: each literal is a
    random atom, negated when the atom is false. Every atom kind in
    `must` occurs at least once."""
    val = random_supports(rng, saw, names)
    ev = Evaluator(F, saw, val)
    literals = []
    picks = list(must)
    while atoms > 0:
        kind = picks.pop() if picks else None
        atom = random_atom(F, rng, names, [kind] if kind else kinds, relations)
        if skeleton_atoms(F, atom) > atoms:
            if kind:
                picks.append(kind)
            continue
        atoms -= skeleton_atoms(F, atom)
        literals.append(atom if ev.holds(atom) else F.Not(atom))
    rng.shuffle(literals)
    return F.conj(literals), val


def unsat_core(F, rng, names):
    """A conjunction false in every contact algebra, by one of three laws:
    nothing touches the empty region, overlap implies contact, and
    nothing borders both a region and its complement."""
    law = rng.randrange(3)
    s = random_term(F, rng, names, 2)
    u = random_term(F, rng, names, 1)
    if law == 0:
        return F.And(F.Contact((s, u)), F.Eq(s, F.ZERO))
    if law == 1:
        return F.And(F.Not(F.Contact((s, u))), F.Not(F.Eq(F.Prod(s, u), F.ZERO)))
    return F.And(F.Rcc8("EC", s, u), F.Rcc8("EC", s, F.Compl(u)))
