"""Asymmetric Lovász local lemma machinery.

Three things live here: an exact verifier for the condition
mu(A) <= x(A) * prod_{B in Gamma(A)} (1 - x(B)), a deterministic
Moser-Tardos resampler, and the mechanical re-derivations of the two
numeric constants used by the coloring constructions (C = 17 and the
2^19 |S|^2 alphabet bound).

The variables of an instance are the positions 0..n-1: ``alphabet[v]``
is the number of values of variable v, a support lists positions, and an
assignment is a list whose entry v is the value of variable v.  The
verifier and the resampler read the dependency graph off one index,
:func:`events_by_variable`.  The resampler evaluates an event only when
it could be the next culprit: a scan front walks the id-sorted events
once, and the culprit's neighbours below the front wait in a min-heap
that is drained before the front moves.  It still resamples the least-id
violated event, so its trace is that of a full rescan.  It calls each
predicate as an oracle and needs nothing of what it compares: the
constructions' equality rules live in :mod:`groupshift.aperiodic`.

All comparisons are exact: probabilities and weights are elements of
Q(sqrt(2)) (see :mod:`groupshift.exact`), never floats.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .exact import Quad, sqrt2_power
from .groups import InputError, Record, ResourceLimitError, paused_collector


#: Largest bound, in bits, on the height (see :meth:`Quad.height`) of a
#: margin that :func:`verify_condition` builds.  Exact products grow with
#: the weights' heights and the neighbourhood, and a verdict writes each
#: margin in decimal, which takes time quadratic in its length.
MARGIN_HEIGHT_LIMIT = 1 << 19
#: Largest sum of those bounds over the distinct margins, which are each
#: built and rendered once: the work of a verification.
MARGINS_HEIGHT_LIMIT = 1 << 24
#: Largest sum of those bounds over the events, each of which a verdict
#: writes with its margin: the size of the verdict.
VERDICT_HEIGHT_LIMIT = 1 << 26


class NonterminatingInstanceError(ResourceLimitError):
    """Resampling exceeded its cap (exit 3); carries the resample log."""

    def __init__(self, message: str, trace: list):
        super().__init__(message)
        self.trace = trace


@dataclass(slots=True)
class BadEvent:
    """A bad event: support, exact probability and weight, and predicate.

    ``violated`` receives the whole assignment, a list indexed by variable,
    and must only read the support variables.  It may be None for
    verify-only instances.  The builders' predicates are bound methods,
    made by :func:`groupshift.aperiodic.equal_on`, whose ``__self__`` is
    ``support`` itself.

    Not frozen, and built positionally by the builders, which make one
    event per fitting (n, g) or odd path: a frozen ``__init__`` stores
    each field through ``object.__setattr__``, and keywords are matched
    by name on every call.  No code hashes or mutates an event;
    ``dataclasses.replace`` makes a changed copy.
    """

    id: tuple
    support: tuple
    probability: Quad
    weight: Quad
    violated: Optional[Callable[[list], bool]] = None


@dataclass
class LLLInstance:
    """Variables 0..n-1 with their alphabet sizes, and the bad events.

    The constructor checks nothing: the instance reader,
    :func:`groupshift.serialize.instance_from_json`, rejects a bad
    alphabet size or a repeated id as it reads them, and the builders in
    :mod:`groupshift.aperiodic` take every position from their window.

    A builder passes its events as an iterator, drained here with the
    cyclic collector paused: the events form no reference cycles, but
    their ~10^5 objects set off collections that scan them and free
    nothing.  A list is kept as it is, so ``dataclasses.replace`` keeps
    the events it is given.
    """

    alphabet: tuple  # alphabet[v] is the number of values of variable v
    events: list[BadEvent] = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.events, list):
            with paused_collector():
                self.events = list(self.events)


class Verdict(Record):
    __slots__ = _fields = ("margins", "ok")

    def __init__(self, margins: dict, ok: dict):
        self.margins = margins  # event id -> Quad (rhs - mu)
        self.ok = ok  # event id -> whether its margin is >= 0

    @property
    def holds(self) -> bool:
        return all(self.ok.values())


def events_by_variable(supports, n: int) -> list[list[int]]:
    """Per variable v < n, the ascending positions i with v in ``supports[i]``.

    Events i and j are neighbours in Gamma exactly when some list holds both.
    """
    index: list[list[int]] = [[] for _ in range(n)]
    for i, support in enumerate(supports):
        for v in support:
            positions = index[v]
            if not positions or positions[-1] != i:
                positions.append(i)
    return index


def neighbour_counts(supports, classes, n: int) -> list[dict]:
    """Per event, the number of other events of each class sharing a variable.

    ``supports[i]`` lists the variables, all below n, of event i and
    ``classes[i]`` its class.  Entry i of the result maps every class, in
    order of first appearance, to the number of events j != i of that class
    whose support meets ``supports[i]``: the class-wise sizes of the
    dependency neighbourhood Gamma(A_i).  Pass small int class ids
    (weight-class indices, path half-lengths), never weights themselves: the
    classes key one dict per event, and hashing exact weights there costs
    more than the count.

    One bitmask of incident events per variable and one of member events
    per class: the neighbours of event i are the OR of its variables' masks
    without bit i, and each class count is one AND and one bit count.
    """
    # Bit i of incident[v] is set when event i has variable v in its support.
    incident = [0] * n
    class_masks: dict = {}  # class -> bitmask of its events
    for i, (support, k) in enumerate(zip(supports, classes)):
        bit = 1 << i
        for v in support:
            incident[v] |= bit
        class_masks[k] = class_masks.get(k, 0) | bit
    counts = []
    for i, support in enumerate(supports):
        union = 0
        for v in support:
            union |= incident[v]
        union &= ~(1 << i)
        counts.append({k: (union & mask).bit_count()
                       for k, mask in class_masks.items()})
    return counts


def verify_condition(inst: LLLInstance) -> Verdict:
    """Exact check of the asymmetric condition for every event.

    Gamma(A) is derived from supports: all events sharing at least one
    variable with A (excluding A itself).  Weights and probabilities repeat
    across events, so each distinct value is a class with a small int id,
    range-checked once: weights must lie in (0, 1) and probabilities in
    [0, 1], and an out-of-range value raises InputError naming an event
    that carries it.  Neighbour counts are taken per weight class, so the
    product collapses to a few exact powers, and the margin depends only on
    the signature (weight-class id, probability-class id, neighbour counts
    per weight class).  The margin and its sign are computed once per
    signature; events with the same signature share one Quad in
    ``Verdict.margins`` and one flag in ``Verdict.ok``.  The key holds int
    ids, never Quads, for the reason given in :func:`neighbour_counts`.

    Before any margin is multiplied out, the height of each signature's
    margin is bounded from those of its factors, w(A) and one (1 - x(B)) per
    neighbour B, and of mu(A) (see :meth:`Quad.height`), in event order.  A
    bound above :data:`MARGIN_HEIGHT_LIMIT` raises ResourceLimitError naming
    the first event that carries it, instead of building the number.  So
    does a running sum of the bounds above :data:`MARGINS_HEIGHT_LIMIT`
    over the distinct signatures, or above :data:`VERDICT_HEIGHT_LIMIT`
    over the events, naming the event at which it crosses.  The
    powers (1 - w)^count of one weight class are then built in ascending
    count order, each from the one before times a power of the gap.
    """
    zero, one = Quad.of(0), Quad.of(1)

    def class_ids(field_name: str, in_range, interval: str):
        """The distinct values of one event field, and each event's index.

        Events often share one Quad object (the builders and
        ``serialize.instance_from_json`` hand one to every event of a
        value), so a value is looked up by identity first and hashed only
        once per object; the events keep every object alive meanwhile, so
        no id is reused.  Equal objects still share a class.
        """
        table: dict[Quad, int] = {}
        seen: dict[int, int] = {}  # id of a value object -> its class
        ids = []
        for e in inst.events:
            value = getattr(e, field_name)
            k = seen.get(id(value))
            if k is None:
                k = table.get(value)
                if k is None:
                    if not in_range(value):
                        raise InputError(f"event {e.id} has {field_name} "
                                         f"outside {interval}")
                    k = table[value] = len(table)
                seen[id(value)] = k
            ids.append(k)
        return list(table), ids

    weights, weight_ids = class_ids("weight", lambda w: zero < w < one,
                                    "(0,1)")
    probabilities, probability_ids = class_ids(
        "probability", lambda p: zero <= p <= one, "[0,1]")
    # Height bounds per class: each factor (1 - w) costs its height plus 2
    # for the product it joins, and mu(A) its height plus 1 for the
    # difference.
    weight_heights = [w.height() for w in weights]
    factor_heights = [(one - w).height() + 2 for w in weights]
    probability_heights = [p.height() + 1 for p in probabilities]
    counts = neighbour_counts([e.support for e in inst.events], weight_ids,
                              len(inst.alphabet))

    keys = []
    rows: dict[tuple, dict] = {}  # signature -> neighbour counts
    heights: dict[tuple, int] = {}  # signature -> bound on its margin
    built = written = 0  # bounds summed over signatures and over events
    for e, k_w, k_p, row in zip(inst.events, weight_ids, probability_ids,
                                counts):
        key = (k_w, k_p, tuple(row.values()))
        height = heights.get(key)
        if height is None:
            height = (weight_heights[k_w] + probability_heights[k_p]
                      + sum(count * factor_heights[k]
                            for k, count in row.items()))
            if height > MARGIN_HEIGHT_LIMIT:
                raise ResourceLimitError(
                    f"the margin of event {e.id} may reach {height} bits, "
                    f"above the limit of {MARGIN_HEIGHT_LIMIT}")
            built += height
            if built > MARGINS_HEIGHT_LIMIT:
                raise ResourceLimitError(
                    f"the distinct margins through event {e.id} may reach "
                    f"{built} bits in all, above the limit of "
                    f"{MARGINS_HEIGHT_LIMIT}")
            heights[key] = height
            rows[key] = row
        written += height
        if written > VERDICT_HEIGHT_LIMIT:
            raise ResourceLimitError(
                f"the margins of the events through event {e.id} may reach "
                f"{written} bits in all, above the verdict limit of "
                f"{VERDICT_HEIGHT_LIMIT}")
        keys.append(key)

    powers: dict[tuple[int, int], Quad] = {}  # (class, count) -> (1 - w)^count
    for k, w in enumerate(weights):
        base = one - w
        steps: dict[int, Quad] = {}  # gap -> (1 - w)^gap
        previous, power = 0, one
        for count in sorted({row[k] for row in rows.values()} - {0}):
            gap = count - previous
            if gap not in steps:
                steps[gap] = base ** gap
            power = steps[gap] if previous == 0 else power * steps[gap]
            powers[k, count] = power
            previous = count

    margins_by_key: dict[tuple, Quad] = {}
    for key, row in rows.items():
        k_w, k_p, _ = key
        rhs = weights[k_w]
        for k, count in row.items():
            if count:
                rhs = rhs * powers[k, count]
        margins_by_key[key] = rhs - probabilities[k_p]
    ok_by_key = {key: m.sign() >= 0 for key, m in margins_by_key.items()}
    ids = [e.id for e in inst.events]
    return Verdict(margins=dict(zip(ids, map(margins_by_key.get, keys))),
                   ok=dict(zip(ids, map(ok_by_key.get, keys))))


class ResampleRun(Record):
    __slots__ = _fields = ("assignment", "trace", "seed")

    def __init__(self, assignment: list, trace: list, seed: int):
        self.assignment = assignment  # entry v is the value of variable v
        self.trace = trace  # event ids in resample order
        self.seed = seed

    @property
    def resamples(self) -> int:
        return len(self.trace)


def resample(inst: LLLInstance, seed: int, cap: int = 10 ** 6) -> ResampleRun:
    """Moser-Tardos resampling, deterministic given the seed.

    Samples every variable uniformly, then repeatedly resamples the
    support of the least-id violated event until none is violated.  A
    predicate is evaluated only when its event could be that culprit.
    A scan front ``p`` walks the id-sorted events once: every event below
    ``p`` was satisfied when last evaluated, unless it waits in the
    ``pending`` min-heap.  A resample changes only the culprit's support,
    so only the events sharing a variable with it can change status
    (Moser and Tardos, JACM 2010); those below ``p`` are pushed once each,
    and those at or above ``p`` wait for the front.  The heap is drained
    before the front moves, so a violated event popped from it, or met by
    the front with the heap empty, is the least-id violated event: the
    culprit, the random draws and the trace are those of a rescan from
    the least id.  The variable -> events index is built only once a
    first violated event is found.  A final scan of every event certifies
    the result independently of this bookkeeping.
    """
    rng = random.Random(seed)
    assignment = [rng.randrange(k) for k in inst.alphabet]
    events = sorted(inst.events, key=lambda e: e.id)
    sharing: Optional[list[list[int]]] = None
    pending: list[int] = []  # min-heap of positions below p to re-evaluate
    queued = bytearray(len(events))  # queued[j]: j is in pending
    trace: list = []
    p = 0
    while True:
        if pending:
            i = heapq.heappop(pending)
            queued[i] = 0
            if not events[i].violated(assignment):
                continue
        else:
            while p < len(events) and not events[p].violated(assignment):
                p += 1
            if p == len(events):
                break
            i = p  # p stays: the culprit is evaluated again by the front
            if sharing is None:
                sharing = events_by_variable((e.support for e in events),
                                             len(inst.alphabet))
        if len(trace) >= cap:
            raise NonterminatingInstanceError(
                f"resample cap {cap} exceeded", trace
            )
        culprit = events[i]
        trace.append(culprit.id)
        for v in culprit.support:
            assignment[v] = rng.randrange(inst.alphabet[v])
            for j in sharing[v]:
                if j >= p:
                    break
                if not queued[j]:
                    queued[j] = 1
                    heapq.heappush(pending, j)
    for e in events:  # post-hoc certification, independent of search order
        if e.violated(assignment):
            raise AssertionError(f"event {e.id} violated after resampling")
    return ResampleRun(assignment=assignment, trace=trace, seed=seed)


def check_aperiodic_constant(c: int) -> bool:
    """Exact test of 16*C * 2^(C/2) / (2^(C/2) - 1)^2 <= 1."""
    if c < 1:
        raise InputError("constant must be positive")
    t = sqrt2_power(c)
    return Quad.of(16 * c) * t <= (t - Quad.of(1)) ** 2


def aperiodic_constant_scan(c_max: int) -> int:
    """Least C <= c_max satisfying the 2-coloring inequality."""
    if c_max < 1:
        raise InputError("c_max must be positive")
    for c in range(1, c_max + 1):
        if check_aperiodic_constant(c):
            return c
    raise InputError(f"no admissible constant up to {c_max}")


def geometric_derivative_partial(n: int) -> Fraction:
    """Partial sum of sum_{j>=1} j * 2^-j (limit 2), exact."""
    return sum((Fraction(j, 2 ** j) for j in range(1, n + 1)), Fraction(0))


def squarefree_alphabet_bound(s: int) -> int:
    """Least admissible alphabet size for square-free coloring: 2^19 s^2.

    The exponent 16 = 8 * sum_{j>=1} j 2^-j is recomputed from the series:
    its partial sum to n plus the exact tail sum_{j>n} j 2^-j = (n+2)/2^n.
    """
    if s < 1:
        raise InputError("generator count must be positive")
    n = 8
    series = geometric_derivative_partial(n) + Fraction(n + 2, 2 ** n)
    exponent = 8 * series
    if exponent.denominator != 1:
        raise AssertionError(f"series exponent {exponent} is not an integer")
    return 8 * s * s * 2 ** int(exponent)
