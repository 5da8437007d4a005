"""Asymmetric Lovász local lemma machinery.

Three things live here: an exact verifier for the condition
mu(A) <= x(A) * prod_{B in Gamma(A)} (1 - x(B)), a deterministic
Moser-Tardos resampler, and the mechanical re-derivations of the two
numeric constants used by the coloring constructions (C = 17 and the
2^19 |S|^2 alphabet bound).

The verifier and the resampler read the dependency graph off one index,
:func:`events_by_variable`.  The resampler keeps the violated events in
a min-heap and rechecks only the culprit's neighbours; it still
resamples the least-id violated event, so its trace is that of a full
rescan.

All comparisons are exact: probabilities and weights are elements of
Q(sqrt(2)) (see :mod:`groupshift.exact`), never floats.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .exact import Quad, half_power_of_two, sqrt2_power
from .groups import InputError


class NonterminatingInstanceError(RuntimeError):
    """Resampling exceeded its cap; carries the resample log."""

    def __init__(self, message: str, trace: list):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class BadEvent:
    """A bad event: support, exact probability and weight, and predicate.

    ``violated`` receives the full assignment mapping and must only read
    the support variables.  It may be None for verify-only instances.
    """

    id: tuple
    support: tuple
    probability: Quad
    weight: Quad
    violated: Optional[Callable[[dict], bool]] = None


@dataclass
class LLLInstance:
    variables: tuple
    alphabet: dict
    events: list[BadEvent] = field(default_factory=list)

    def __post_init__(self):
        varset = set(self.variables)
        ids = set()
        for e in self.events:
            if not set(e.support) <= varset:
                raise InputError(f"event {e.id} has support outside variables")
            if e.id in ids:
                raise InputError(f"event id {e.id} is repeated")
            ids.add(e.id)


@dataclass
class Verdict:
    holds: bool
    margins: dict  # event id -> Quad (rhs - mu)


def events_by_variable(supports) -> dict:
    """Per variable, the ascending positions i whose ``supports[i]`` uses it.

    Events i and j are neighbours in Gamma exactly when some list holds both.
    """
    index: dict = {}
    for i, support in enumerate(supports):
        for v in support:
            positions = index.get(v)
            if positions is None:
                index[v] = [i]
            elif positions[-1] != i:
                positions.append(i)
    return index


def neighbour_counts(supports, classes) -> list[dict]:
    """Per event, the number of other events of each class sharing a variable.

    ``supports[i]`` lists the variables of event i and ``classes[i]`` its
    class.  Entry i of the result maps every class, in order of first
    appearance, to the number of events j != i of that class whose support
    meets ``supports[i]``: the class-wise sizes of the dependency
    neighbourhood Gamma(A_i).  Pass small int class ids (weight-class
    indices, path half-lengths), never weights themselves: the classes key
    one dict per variable and per event, and hashing exact weights there
    costs more than the rest of the count.
    """
    # Per variable, one bitmask of incident events per class.
    masks: dict = {}
    for v, positions in events_by_variable(supports).items():
        row = masks[v] = {}
        for i in positions:
            k = classes[i]
            row[k] = row.get(k, 0) | 1 << i
    order = list(dict.fromkeys(classes))
    counts = []
    for i, (support, k) in enumerate(zip(supports, classes)):
        union = dict.fromkeys(order, 0)
        for v in support:
            for c, mask in masks[v].items():
                union[c] |= mask
        union[k] &= ~(1 << i)
        counts.append({c: mask.bit_count() for c, mask in union.items()})
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
    ``Verdict.margins``.  The key holds int ids, never Quads, for the reason
    given in :func:`neighbour_counts`.
    """
    zero, one = Quad.of(0), Quad.of(1)

    def class_ids(field_name: str, in_range, interval: str):
        """The distinct values of one event field, and each event's index."""
        table: dict[Quad, int] = {}
        ids = []
        for e in inst.events:
            value = getattr(e, field_name)
            k = table.get(value)
            if k is None:
                if not in_range(value):
                    raise InputError(
                        f"event {e.id} has {field_name} outside {interval}")
                k = table[value] = len(table)
            ids.append(k)
        return list(table), ids

    weights, weight_ids = class_ids("weight", lambda w: zero < w < one,
                                    "(0,1)")
    _, probability_ids = class_ids("probability",
                                   lambda p: zero <= p <= one, "[0,1]")
    counts = neighbour_counts([e.support for e in inst.events], weight_ids)

    pow_cache: dict[tuple[int, int], Quad] = {}

    def base_power(k: int, count: int) -> Quad:
        key = (k, count)
        if key not in pow_cache:
            pow_cache[key] = (one - weights[k]) ** count
        return pow_cache[key]

    memo: dict[tuple, Quad] = {}
    margins: dict = {}
    for e, k_w, k_p, row in zip(inst.events, weight_ids, probability_ids,
                                counts):
        key = (k_w, k_p, tuple(row.values()))
        margin = memo.get(key)
        if margin is None:
            rhs = e.weight
            for k, count in row.items():
                if count:
                    rhs = rhs * base_power(k, count)
            margin = memo[key] = rhs - e.probability
        margins[e.id] = margin
    return Verdict(holds=all(m.sign() >= 0 for m in memo.values()),
                   margins=margins)


@dataclass
class ResampleRun:
    assignment: dict
    trace: list  # event ids in resample order
    seed: int

    @property
    def resamples(self) -> int:
        return len(self.trace)


def resample(inst: LLLInstance, seed: int, cap: int = 10 ** 6) -> ResampleRun:
    """Moser-Tardos resampling, deterministic given the seed.

    Samples every variable uniformly, then repeatedly resamples the
    support of the least-id violated event until none is violated.  Every
    predicate is evaluated once on the first assignment; after that only
    the events sharing a variable with the culprit are rechecked, since no
    other event can change status (Moser and Tardos, JACM 2010).  The
    violated positions of the id-sorted event list sit in a min-heap whose
    entries are confirmed by a ``bad`` flag, so the heap top, once stale
    entries are dropped, is the least-id violated event: the culprit, the
    random draws and the trace are those of a rescan from the least id.
    A final scan of every event certifies the result independently of
    this bookkeeping.
    """
    rng = random.Random(seed)
    assignment = {v: rng.randrange(inst.alphabet[v]) for v in inst.variables}
    events = sorted(inst.events, key=lambda e: e.id)
    sharing = events_by_variable(e.support for e in events)
    bad = [e.violated(assignment) for e in events]
    heap = [i for i, b in enumerate(bad) if b]  # ascending, so a heap
    trace: list = []
    while heap:
        i = heap[0]
        if not bad[i]:
            heapq.heappop(heap)
            continue
        if len(trace) >= cap:
            raise NonterminatingInstanceError(
                f"resample cap {cap} exceeded", trace
            )
        culprit = events[i]
        trace.append(culprit.id)
        for v in culprit.support:
            assignment[v] = rng.randrange(inst.alphabet[v])
        for j in {j for v in culprit.support for j in sharing[v]}:
            violated = events[j].violated(assignment)
            if violated and not bad[j]:
                heapq.heappush(heap, j)
            bad[j] = violated
    for e in events:  # post-hoc certification, independent of search order
        if e.violated(assignment):
            raise AssertionError(f"event {e.id} violated after resampling")
    return ResampleRun(assignment=assignment, trace=trace, seed=seed)


def audit_event_probability(inst: LLLInstance, event: BadEvent,
                            budget_bits: int = 24) -> Optional[Fraction]:
    """Exhaustively recount an event's probability when small enough.

    Returns None when the support state space exceeds 2**budget_bits.
    """
    sizes = [inst.alphabet[v] for v in event.support]
    total = 1
    for s in sizes:
        total *= s
        if total > 2 ** budget_bits:
            return None
    sub = {}
    bad = 0

    def rec(i: int):
        nonlocal bad
        if i == len(event.support):
            if event.violated(sub):
                bad += 1
            return
        v = event.support[i]
        for a in range(sizes[i]):
            sub[v] = a
            rec(i + 1)
        del sub[v]

    rec(0)
    return Fraction(bad, total)


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


def two_coloring_weight(c: int, n: int) -> Quad:
    """Exact 2^(-C n / 2)."""
    return half_power_of_two(c * n)


def two_coloring_probability(c: int, n: int) -> Quad:
    """Exact 2^(-C n)."""
    return Quad(Fraction(1, 2 ** (c * n)))
