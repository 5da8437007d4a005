"""Concrete group models with decidable word problem.

Four families are built in: integer lattices Z^d, free groups, the free
product Z/2 * Z/3 and the discrete Heisenberg group.  Each one exposes a
canonical form with O(word length) canonicalization, plus the Cayley-graph
machinery the rest of the library is built on.  One breadth-first search,
:func:`bfs`, numbers a ball's members in the order it finds them and
builds the Cayley graph induced on them on those positions.  A ball of
radius R keeps its sphere sizes, so every ball of radius r <= R about
the same center is a prefix of its members and needs no search of its
own.  Each model writes its least conjugates
(:meth:`GroupModel.least_conjugate`) as a formula, with no loop over
conjugates: the least rotation of the cyclic reduction in the free
groups and the free product, g itself in Z^d, and in the Heisenberg
group the first member of a residue class c + k gcd(a, b) from the
least c of least length.

Elements are opaque hashable canonical forms (tuples); all operations on
them go through their :class:`GroupModel`.  Values are immutable and safe
to share between threads.
"""

from __future__ import annotations

import operator
import re
from math import gcd, isqrt
from typing import Callable, Iterator


class InputError(ValueError):
    """Malformed user input (unknown label, bad spec string, ...)."""


class ResourceLimitError(RuntimeError):
    """A ball, scan or odd-path cap was exceeded, or an element is too
    long to build (CLI exit 3, as on OOM)."""


#: A run of one generator in a word: (label, nonzero exponent).  A single
#: letter is a run with exponent +1 or -1.
Letter = tuple[str, int]

DEFAULT_BALL_CAP = 10 ** 6

_TOKEN_RE = re.compile(r"([A-Za-z][0-9]*)(\^-?[0-9]+|'|⁻¹|⁻1)?")


def format_word(letters: list[Letter]) -> str:
    """Render a word as space-separated ``label^k`` tokens ('' = identity)."""
    runs: list[tuple[str, int]] = []
    for label, exp in letters:
        if runs and runs[-1][0] == label:
            runs[-1] = (label, runs[-1][1] + exp)
            if runs[-1][1] == 0:
                runs.pop()
        else:
            runs.append((label, exp))
    parts = []
    for label, exp in runs:
        parts.append(label if exp == 1 else f"{label}^{exp}")
    return " ".join(parts)


def coordinate_word(labels, exponents) -> str:
    """Render x1^e1 x2^e2 ... for labels x_i and exponents e_i."""
    return format_word([(x, e) for x, e in zip(labels, exponents) if e])


def bfs(start, neighbors: Callable, radius: int | None = None,
        cap: int | None = None) -> Iterator[tuple]:
    """Breadth-first search from ``start``, the only one in the package.

    Yields ``(vertex, distance)`` in discovery order, visiting
    ``neighbors(v)`` in the order given.  Vertices at distance ``radius``
    are yielded but not expanded (None: no limit).  Raises
    ResourceLimitError instead of yielding vertex number ``cap + 1``.
    """
    dist = {start: 0}
    queue = [start]
    for count, v in enumerate(queue, 1):  # the queue grows as we walk it
        if cap is not None and count > cap:
            raise ResourceLimitError(f"breadth-first search exceeds cap {cap}")
        d = dist[v]
        yield v, d
        if radius is None or d < radius:
            for h in neighbors(v):
                if h not in dist:
                    dist[h] = d + 1
                    queue.append(h)


class Record:
    """Base of the package's records: fields named by ``_fields``.

    A plain class, not a dataclass: ``dataclasses`` costs a launch its
    import and code generation for every class.  Equality is by type and
    field values, and mutable records are unhashable, as a dataclass
    makes them.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__name__}({', '.join(fields)})"


class FrozenRecord(Record):
    """A hashable record whose fields are set once, by ``_set``;
    assigning one raises AttributeError."""

    __slots__ = ()

    def _set(self, *values) -> None:
        """Set the fields ``__slots__`` names, in order, to ``values``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(self._values())


class Ball(FrozenRecord):
    """A word-metric ball: the window every construction runs on.

    Vertex i is ``members[i]``; members are in deterministic BFS order and
    ``sizes[r]`` is |B(center, r)| for r = 0..radius, so
    ``members[:sizes[r]]`` is the ball of radius r about the same center.
    ``index`` maps each member to its position and ``adjacency[i]`` is the
    tuple of the positions of its neighbors in the ball, in step order:
    the Cayley graph induced on the ball.  A member within radius - 1 of
    the center (a position below ``sizes[radius - 1]``) has every neighbor
    in the ball, so ``adjacency[i][k]`` is the position of members[i]
    times the k-th of :meth:`GroupModel.step_elements`; right translations
    are walked on that (see :func:`groupshift.aperiodic.fitting_pairs`).
    Equality, hash and repr leave out ``index`` and ``adjacency``, which
    the members determine.
    """

    __slots__ = ("center", "radius", "members", "sizes", "index",
                 "adjacency")
    _fields = __slots__[:4]

    def __init__(self, center: tuple, radius: int, members: tuple,
                 sizes: tuple, index: dict, adjacency: tuple):
        self._set(center, radius, members, sizes, index, adjacency)

    def __contains__(self, g) -> bool:
        return g in self.index

    def __len__(self) -> int:
        return len(self.members)


class GroupModel:
    """Base class: canonical forms plus Cayley-graph operations."""

    spec: str
    labels: list[str]
    #: labels accepted in words but not part of the generating set S
    extra_labels: list[str] = []

    # --- kind-specific primitives -------------------------------------
    def identity(self):
        raise NotImplementedError

    def gen(self, label: str, exp: int = 1):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def length(self, g) -> int:
        raise NotImplementedError

    def geodesic(self, g) -> list[Letter]:
        """A shortest generator word evaluating to g."""
        raise NotImplementedError

    def least_conjugate(self, g) -> tuple:
        """(w, u) with g = u w u^-1 and w least under canonical_key."""
        raise NotImplementedError

    # --- word handling -------------------------------------------------
    def parse_word(self, text: str) -> list[Letter]:
        """One (label, exp) run per token; tokens with exponent 0 vanish.

        A label is looked up in the model's own label lists, one short
        scan per token, so no set of them is built per word and the model
        keeps no state."""
        letters: list[Letter] = []
        labels, extra = self.labels, self.extra_labels
        for chunk in text.replace(",", " ").split():
            pos = 0
            while pos < len(chunk):
                m = _TOKEN_RE.match(chunk, pos)
                if m is None:
                    raise InputError(f"cannot parse word at {chunk[pos:]!r}")
                label, mark = m.group(1), m.group(2)
                if label not in labels and label not in extra:
                    raise InputError(f"unknown generator label {label!r}")
                if mark is None:
                    exp = 1
                elif mark.startswith("^"):
                    try:
                        exp = int(mark[1:])
                    except ValueError:  # above int's digit limit
                        raise InputError(f"exponent of {label} has too "
                                         f"many digits to read") from None
                else:
                    exp = -1
                if exp:
                    letters.append((label, exp))
                pos = m.end()
        return letters

    def evaluate(self, letters: list[Letter]):
        g = self.identity()
        for label, exp in letters:
            g = self.mul(g, self.gen(label, exp))
        return g

    def canonicalize(self, word) -> tuple:
        """Canonical form of a word (string or letter list)."""
        if isinstance(word, str):
            word = self.parse_word(word)
        return self.evaluate(word)

    def element_word(self, g) -> str:
        return format_word(self.geodesic(g))

    # --- Cayley graph --------------------------------------------------
    def step_elements(self) -> list:
        """Generator steps g -> g*s in deterministic order, deduplicated."""
        cached = getattr(self, "_step_cache", None)
        if cached is None:
            cached = []
            for label in self.labels:
                for exp in (1, -1):
                    s = self.gen(label, exp)
                    if s not in cached and s != self.identity():
                        cached.append(s)
            self._step_cache = cached
        return cached

    def neighbors(self, g) -> list:
        """g*s over the steps s, all distinct and none equal to g."""
        return [self.mul(g, s) for s in self.step_elements()]

    def ball(self, center=None, radius: int = 0, cap: int = DEFAULT_BALL_CAP) -> Ball:
        """B(center, radius); ResourceLimitError when it has over cap members."""
        if radius < 0:
            raise InputError(f"ball radius {radius} is negative")
        if center is None:
            center = self.identity()
        members, index = [center], {center: 0}
        adjacency: list = []  # adjacency[i]: neighbor positions of member i

        def expand(i: int) -> tuple:
            nbrs = self.neighbors(members[i])
            for h in nbrs:
                if h not in index:  # first seen: h takes the next position
                    index[h] = len(members)
                    members.append(h)
            adjacency.append(tuple(map(index.__getitem__, nbrs)))
            return adjacency[i]

        sizes: list = []  # grown with the search: radius may be huge
        for i, d in bfs(0, expand, radius, cap):
            sizes[d:] = [i + 1]
        for g in members[len(adjacency):]:  # the sphere at distance radius
            adjacency.append(tuple(index[h] for h in self.neighbors(g)
                                   if h in index))
        return Ball(center=center, radius=radius, members=tuple(members),
                    sizes=tuple(sizes), index=index,
                    adjacency=tuple(adjacency))

    def bfs_stream(self, cap: int = DEFAULT_BALL_CAP) -> Iterator:
        """Elements of G in BFS order from the identity (up to cap)."""
        for g, _ in bfs(self.identity(), self.neighbors, cap=cap):
            yield g

    def canonical_key(self, g):
        """Deterministic total order: (word length, canonical form)."""
        return (self.length(g), g)

    def __repr__(self) -> str:
        return f"<GroupModel {self.spec}>"


class IntegerLattice(GroupModel):
    def __init__(self, d: int):
        if d < 1:
            raise InputError("lattice dimension must be positive")
        self.d = d
        self.spec = f"z^{d}" if d > 1 else "z"
        if d <= 3:
            self.labels = ["x", "y", "z"][:d]
        else:
            self.labels = [f"x{i + 1}" for i in range(d)]

    def identity(self):
        return (0,) * self.d

    def _axis(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown generator label {label!r}") from None

    def gen(self, label, exp=1):
        v = [0] * self.d
        v[self._axis(label)] = exp
        return tuple(v)

    def evaluate(self, letters):
        """Sum the exponents of the letters on each axis."""
        v = [0] * self.d
        for label, exp in letters:
            v[self._axis(label)] += exp
        return tuple(v)

    def mul(self, a, b):
        return tuple(map(operator.add, a, b))

    def inv(self, a):
        return tuple(map(operator.neg, a))

    def length(self, g):
        return sum(abs(x) for x in g)

    def geodesic(self, g):
        letters: list[Letter] = []
        for label, coord in zip(self.labels, g):
            sign = 1 if coord >= 0 else -1
            letters.extend([(label, sign)] * abs(coord))
        return letters

    def element_word(self, g):
        return coordinate_word(self.labels, g)

    def least_conjugate(self, g):
        return g, self.identity()  # abelian: g is its only conjugate


class ReducedWordGroup(GroupModel):
    """Elements are reduced tuples of syllables, each one generator step."""

    def identity(self):
        return ()

    def length(self, g):
        return len(g)

    def evaluate(self, letters):
        """Push every syllable of the word through one reduction stack."""
        return self.mul((), tuple(s for label, exp in letters
                                  for s in self.gen(label, exp)))

    def least_conjugate(self, g):
        """Write g = p core p^-1 with core cyclically reduced; the rotations
        of core are the least conjugates of g (Lyndon and Schupp,
        Combinatorial Group Theory, 1977, ch. I and IV).  In Z/2 * Z/3 the
        ends of b X b merge: g = b (X b^2) b^-1.  w is the least rotation
        core[k:] core[:k]; over the k that give it, u is the shortest of
        p core[:k] and p core[k:]^-1, and the least such k on a tie.

        The least rotation is found in linear time by two candidate starts
        i < j, of which a mismatch after m equal syllables rules out the
        larger start and the m after it (Zhou's minimum representation).
        The k that give it are that start plus multiples of the least
        period of core.
        """
        h, i = self.inv(g), 0
        while 2 * i + 1 < len(g) and g[i] == h[i]:  # g[i] inverts g[-1 - i]
            i += 1
        p, core = g[:i], g[i:len(g) - i]
        ends = self.mul(core[-1:], core[:1])
        if len(core) > 1 and len(ends) == 1:
            p, core = p + core[:1], core[1:-1] + ends
        n, twice = len(core), core + core
        i, j, m = 0, 1, 0
        while j < n and m < n:
            a, b = twice[i + m], twice[j + m]
            if a == b:
                m += 1
                continue
            if a > b:
                i += m + 1
            else:
                j += m + 1
            i, j, m = min(i, j), max(i, j) + (i == j), 0
        period = next((d for d in range(1, n + 1)
                       if not n % d and twice[d:d + n] == core), 1)
        k = min(range(i % period, n, period), default=0,
                key=lambda k: min(k, n - k))
        u = core[:k] if k <= n - k else self.inv(core[k:])
        return twice[k:k + n], self.mul(p, u)


class FreeGroup(ReducedWordGroup):
    _ALPHABET = "abcdefghijkl"

    def __init__(self, rank: int):
        if not 1 <= rank <= len(self._ALPHABET):
            raise InputError("free group rank must be between 1 and 12")
        self.rank = rank
        self.spec = f"free:{rank}"
        self.labels = list(self._ALPHABET[:rank])

    def gen(self, label, exp=1):
        try:
            i = self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown generator label {label!r}") from None
        try:
            return ((i + 1) * (1 if exp >= 0 else -1),) * abs(exp)
        except OverflowError:  # past any tuple's length; MemoryError below
            raise ResourceLimitError(f"{label}^{exp} is too long to build"
                                     ) from None

    def mul(self, a, b):
        out = list(a)
        for s in b:
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
        return tuple(out)

    def inv(self, a):
        return tuple(-s for s in reversed(a))

    def geodesic(self, g):
        return [(self.labels[abs(s) - 1], 1 if s > 0 else -1) for s in g]


class FreeProductZ2Z3(ReducedWordGroup):
    """Z/2 * Z/3 with a of order 2 and b of order 3.

    Canonical form: an alternating tuple of syllables 'a', 'b', 'B' where
    'B' stands for b^2 = b^-1.  Each syllable costs one generator step.
    """

    def __init__(self):
        self.spec = "z2*z3"
        self.labels = ["a", "b"]

    def gen(self, label, exp=1):
        if label == "a":
            return ((), ("a",))[exp % 2]
        if label == "b":
            return ((), ("b",), ("B",))[exp % 3]
        raise InputError(f"unknown generator label {label!r}")

    #: syllable -> its generator letter
    _LETTER = {"a": ("a", 1), "b": ("b", 1), "B": ("b", -1)}

    def mul(self, a, b):
        out = list(a)  # alternating, so a merge never cascades
        for s in b:
            if not out or (out[-1] == "a") != (s == "a"):
                out.append(s)
            else:  # two syllables of one factor: add their exponents
                label, exp = self._LETTER[out.pop()]
                out.extend(self.gen(label, exp + self._LETTER[s][1]))
        return tuple(out)

    def inv(self, a):
        table = {"a": "a", "b": "B", "B": "b"}
        return tuple(table[s] for s in reversed(a))

    def geodesic(self, g):
        return [self._LETTER[s] for s in g]


class DiscreteHeisenberg(GroupModel):
    """The integer Heisenberg group, generated by x and y.

    Canonical form is the exponent triple (a, b, c) of the normal form
    x^a y^b z^c where z = x y x^-1 y^-1 is central.  The label z is
    accepted in words as a shorthand but is not a generator of the metric.

    Word length in closed form (S. Blachère, "Word distance on the discrete
    Heisenberg group", Colloq. Math. 95, 2003).  A word traces a lattice
    path from 0 to (a, b); gamma of ``_to_mat`` is its integral of x dy,
    so A = |2 gamma - ab| is twice the area between path and chord.  With
    (p, q) = sorted(|a|, |b|), z = (A + pq) / 2 is that area counted from
    the far corner of the p x q box (an integer: A = pq mod 2).  Shortest
    paths sweep it inside the box (z <= pq: length p + q), round a q x w
    box, w = ceil(z / q) (z <= q^2: q - p + 2w), or round a near-square
    of half-perimeter s = ceil(2 sqrt z), holding floor(s^2 / 4) >= z
    (2s - p - q); Blachère shows that no path is shorter.  ``geodesic``
    is the least shortest word for x < x^-1 < y < y^-1, built forward
    from the identity.
    """

    extra_labels = ["z"]

    def __init__(self):
        self.spec = "heisenberg"
        self.labels = ["x", "y"]

    def identity(self):
        return (0, 0, 0)

    def gen(self, label, exp=1):
        if label == "x":
            return self._from_mat((exp, 0, 0))
        if label == "y":
            return self._from_mat((0, exp, 0))
        if label == "z":
            return self._from_mat((0, 0, exp))
        raise InputError(f"unknown generator label {label!r}")

    @staticmethod
    def _to_mat(t):
        a, b, c = t
        return (a, b, c + a * b)

    @staticmethod
    def _from_mat(m):
        a, b, g = m
        return (a, b, g - a * b)

    def mul(self, p, q):
        a1, b1, g1 = self._to_mat(p)
        a2, b2, g2 = self._to_mat(q)
        return self._from_mat((a1 + a2, b1 + b2, g1 + g2 + a1 * b2))

    def inv(self, p):
        a, b, g = self._to_mat(p)
        return self._from_mat((-a, -b, a * b - g))

    def length(self, g):
        a, b, gamma = self._to_mat(g)
        p, q = sorted((abs(a), abs(b)))
        z = (abs(2 * gamma - a * b) + p * q) // 2
        if z <= p * q:
            return p + q
        if z <= q * q:
            return q - p + 2 * -(-z // q)
        return 2 * (isqrt(4 * z - 1) + 1) - p - q  # s = ceil(2 sqrt z), z >= 1

    def geodesic(self, g):
        letters: list[Letter] = []
        rest, togo = g, self.length(g)
        while togo:
            for label, exp in (("x", 1), ("x", -1), ("y", 1), ("y", -1)):
                shorter = self.mul(self.gen(label, -exp), rest)
                if self.length(shorter) < togo:
                    break
            else:
                raise AssertionError("no generator step shortens the length")
            letters.append((label, exp))
            rest, togo = shorter, togo - 1
        return letters

    def element_word(self, g):
        return coordinate_word("xyz", g)

    def least_conjugate(self, g):
        """Closed form: conjugating by x^m y^n adds m b - n a to c, so the
        conjugates of (a, b, c) are the (a, b, c + k d), d = gcd(a, b),
        and only g itself when d = 0.  The length does not decrease as
        |2c + ab| grows, so w has the least c among the conjugates of
        least length.  If ab != 0, those are the c with |2c + ab| <= |ab|
        (length |a| + |b|), a range of |ab| + 1 > d values from
        min(-ab, 0).  Otherwise the length grows with |c| and is the same
        at c and c - d for 0 < c < d: w has the c in (-d, 0].  u = x^m y^n
        solves n a - m b = k d with |m| + |n| least, which keeps the
        printed u short.
        """
        a, b, c = g
        d = gcd(a, b)
        if d == 0:
            return g, self.identity()
        lo = min(-a * b, 0) if a * b else 1 - d
        k = -((c - lo) // d)  # c + k d is the first conjugate from lo
        p, q = a // d, b // d
        if q:
            n = k * pow(p, -1, abs(q)) % abs(q)
            m = (n * p - k) // q
        else:  # p = +-1
            n, m = k * p, 0
        # solutions (m + t p, n + t q); least |m| + |n| (convex in t), then |n|
        pairs = [(m + t * p, n + t * q) for v, r in ((n, q), (m, p)) if r
                 for t in (-v // r, -v // r + 1)]
        m, n = min(pairs, key=lambda mn: (abs(mn[0]) + abs(mn[1]), abs(mn[1])))
        return (a, b, c + k * d), (m, n, 0)


_SPEC_RE = re.compile(r"^z\^([0-9]+)$")


def parse_group_spec(spec: str) -> GroupModel:
    """Build a group model from a CLI spec string.

    Accepted forms: ``z``, ``z^d``, ``free:k``, ``z2*z3``, ``heisenberg``.
    """
    s = spec.strip().lower()
    if s == "z":
        return IntegerLattice(1)
    m = _SPEC_RE.match(s)
    if m:
        return IntegerLattice(int(m.group(1)))
    if s.startswith("free:"):
        try:
            rank = int(s.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad free-group spec {spec!r}") from None
        return FreeGroup(rank)
    if s in ("z2*z3", "z2xz3"):
        return FreeProductZ2Z3()
    if s == "heisenberg":
        return DiscreteHeisenberg()
    raise InputError(f"unknown group spec {spec!r}")
