import dataclasses
import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import groupshift
from groupshift import lll
from groupshift.aperiodic import (build_2coloring_instance,
                                  build_squarefree_instance, build_t_sets,
                                  equal_on, halves, interleaved)
from groupshift.exact import (Quad, half_power_of_two, parse_fraction,
                              sqrt2_power)
from groupshift.groups import InputError, ResourceLimitError, parse_group_spec
from groupshift.lll import (
    BadEvent,
    LLLInstance,
    NonterminatingInstanceError,
    ResampleRun,
    aperiodic_constant_scan,
    check_aperiodic_constant,
    events_by_variable,
    geometric_derivative_partial,
    neighbour_counts,
    resample,
    squarefree_alphabet_bound,
    verify_condition,
)
from groupshift.serialize import quad_renderer
from oracles import (audit_event_probability, check_instance,
                     oracle_halves, oracle_interleaved)

fractions = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=64
)


class TestQuad:
    def test_equal_quads_hash_equal(self):
        x = Quad(Fraction(1, 2), Fraction(3))
        y = Quad.of(Fraction(2, 4)) + Quad(Fraction(0), Fraction(6, 2))
        assert x == y and hash(x) == hash(y)
        assert x != Quad(Fraction(1, 2)) and x != (x.a, x.b)

    def test_greater_compares_values_through_reflection(self):
        one, zero = Quad.of(1), Quad.of(0)
        assert one > zero and one >= zero and one >= Quad.of(1)
        assert not zero > one and not zero >= one
        # 1 - sqrt(2) < 0 < 2 - sqrt(2): no lexicographic (a, b) order.
        root = Quad(Fraction(0), Fraction(1))
        assert root > Quad.of(1) and not Quad.of(1) >= root

    def test_fields_are_read_only(self):
        q = Quad.of(1)
        with pytest.raises(AttributeError):
            q.a = Fraction(2)
        assert q == Quad.of(1)

    def test_sqrt2_squares_to_two(self):
        assert Quad(Fraction(0), Fraction(1)) ** 2 == Quad.of(2)

    def test_half_power_even(self):
        assert half_power_of_two(34) == Quad.of(Fraction(1, 2 ** 17))

    def test_half_power_odd_squares_back(self):
        w = half_power_of_two(17)
        assert w * w == Quad.of(Fraction(1, 2 ** 17))
        assert not w.is_rational

    def test_sqrt2_power_inverse(self):
        for k in (0, 1, 2, 17, 34):
            assert half_power_of_two(k) * sqrt2_power(k) == Quad.of(1)

    def test_mixed_sign(self):
        # 3 - 2*sqrt2 > 0 but 1 - sqrt2 < 0: both have mixed coefficients.
        assert Quad(Fraction(3), Fraction(-2)).sign() == 1
        assert Quad(Fraction(1), Fraction(-1)).sign() == -1
        assert Quad(Fraction(0), Fraction(0)).sign() == 0

    @given(fractions, fractions, fractions, fractions)
    def test_product_distributes(self, a, b, c, d):
        p, q = Quad(a, b), Quad(c, d)
        assert p * (q + Quad.of(1)) == p * q + p

    @given(fractions, fractions, st.integers(0, 40))
    def test_power_matches_repeated_product(self, a, b, n):
        q = Quad(a, b)
        product = Quad.of(1)
        for _ in range(n):
            product = product * q
        assert q ** n == product

    @given(fractions, fractions, fractions, fractions)
    def test_height_bounds_products_and_differences(self, a, b, c, d):
        x, y = Quad(a, b), Quad(c, d)
        q = math.lcm(a.denominator, b.denominator)
        assert x.height() == max(abs(a * q).numerator,
                                 abs(b * q).numerator, q).bit_length()
        assert max(a.numerator, a.denominator, b.numerator, b.denominator,
                   key=abs).bit_length() <= x.height()
        assert (x * y).height() <= x.height() + y.height() + 2
        assert (x - y).height() <= x.height() + y.height() + 1

    @given(st.text("+-0123456789", max_size=6), st.text("0123456789",
                                                      max_size=6),
           st.integers(-150, 150), st.integers(-40, 40))
    def test_parse_fraction_refuses_only_numbers_above_the_limit(
            self, whole, part, exponent, slack):
        # The limit lies within 40 bits of the number's height.
        text = f"{whole}.{part}e{exponent}"
        try:
            expected = Fraction(text)
        except ValueError:
            with pytest.raises(ValueError):
                parse_fraction(text, 100)
            return
        height = Quad(expected).height()
        limit = max(1, height + slack)
        if height > limit:
            with pytest.raises(ResourceLimitError):
                parse_fraction(text, limit)
        else:
            assert parse_fraction(text, limit) == expected

    @given(fractions, fractions)
    def test_sign_matches_float(self, a, b):
        q = Quad(a, b)
        approx = float(a) + float(b) * 2 ** 0.5
        if abs(approx) > 1e-9:
            assert q.sign() == (1 if approx > 0 else -1)


class FractionPairQuad:
    """The replaced ``Quad``: a + b*sqrt(2) as a pair of Fractions, each in
    lowest terms, with its height, sign and JSON text; the oracle for the
    integer form."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction = Fraction(0)):
        self.a, self.b = Fraction(a), Fraction(b)

    def __eq__(self, other):
        return (self.a, self.b) == (other.a, other.b)

    def height(self) -> int:
        q = math.lcm(self.a.denominator, self.b.denominator)
        p = self.a.numerator * (q // self.a.denominator)
        r = self.b.numerator * (q // self.b.denominator)
        return max(abs(p), abs(r), q).bit_length()

    def __add__(self, other):
        return FractionPairQuad(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return FractionPairQuad(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        return FractionPairQuad(self.a * other.a + 2 * self.b * other.b,
                                self.a * other.b + self.b * other.a)

    def __pow__(self, n: int):
        result = FractionPairQuad(Fraction(1))
        for _ in range(n):
            result = result * self
        return result

    def sign(self) -> int:
        return reference_sign(self.a, self.b)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 2 ** 0.5

    def to_json(self):
        if self.b == 0:
            return str(self.a)
        return {"rational": str(self.a), "sqrt2": str(self.b)}


#: Denominators that are powers of two (a shift reduces them) and that are
#: not (a gcd does), with numerators of either sign and zero.
mixed_denominators = st.one_of(st.integers(0, 80).map(lambda k: 2 ** k),
                               st.integers(1, 10 ** 12))
mixed_fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-2 ** 90, 2 ** 90), mixed_denominators),
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4])),
)


class TestQuadAgainstFractionPairs:
    def check(self, x: Quad, oracle: FractionPairQuad):
        assert (x.a, x.b) == (oracle.a, oracle.b)
        # The constructor's lcm form is canonical without any reduction.
        canonical = Quad(oracle.a, oracle.b)
        assert (x.p, x.r, x.q) == (canonical.p, canonical.r, canonical.q)
        assert x == canonical and hash(x) == hash(canonical)
        assert x.q > 0 and math.gcd(x.p, x.r, x.q) == 1
        assert x.height() == oracle.height()
        assert x.sign() == oracle.sign()
        assert x.is_rational == (oracle.b == 0)
        assert quad_renderer()(x) == oracle.to_json()
        try:
            expected = float(oracle)
        except OverflowError:  # past the largest float: both must refuse
            with pytest.raises(OverflowError):
                float(x)
        else:
            assert float(x) == expected

    @given(mixed_fractions, mixed_fractions, mixed_fractions,
           mixed_fractions)
    def test_arithmetic_matches(self, a, b, c, d):
        x, y = Quad(a, b), Quad(c, d)
        ox, oy = FractionPairQuad(a, b), FractionPairQuad(c, d)
        self.check(x, ox)
        self.check(x + y, ox + oy)
        self.check(x - y, ox - oy)
        self.check(x * y, ox * oy)
        self.check(x * x, ox * ox)
        self.check(x - x, ox - ox)
        assert (x == y) == (ox == oy)
        assert (x < y) == ((ox - oy).sign() < 0)
        # Equal values built along different paths are equal and hash equal.
        back = (x + y) - y
        assert back == x and hash(back) == hash(x)
        if ox == oy:
            assert hash(x) == hash(y)

    @given(mixed_fractions, mixed_fractions, st.integers(0, 12))
    @example(a=Fraction(0), b=Fraction(34464974816685830074114838), n=12)
    def test_power_matches(self, a, b, n):
        self.check(Quad(a, b) ** n, FractionPairQuad(a, b) ** n)

    @given(st.integers(0, 200), st.integers(0, 200))
    def test_half_powers_match(self, k, m):
        x = half_power_of_two(k) * sqrt2_power(m)
        oracle = FractionPairQuad(Fraction(1))
        for _ in range(m):
            oracle = oracle * FractionPairQuad(0, 1)
        for _ in range(k):  # 2**(-1/2) = sqrt(2) / 2
            oracle = oracle * FractionPairQuad(0, Fraction(1, 2))
        self.check(x, oracle)


def reference_sign(a: Fraction, b: Fraction) -> int:
    """Sign of a + b*sqrt(2) through Fraction arithmetic on a**2 - 2 b**2."""
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    diff = a * a - 2 * b * b
    if a > 0:
        return 1 if diff > 0 else (-1 if diff < 0 else 0)
    return -1 if diff > 0 else (1 if diff < 0 else 0)


huge_fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-2 ** 7000, 2 ** 7000),
              st.integers(1, 2 ** 7000)),
)


@st.composite
def near_cancelling(draw):
    """(a, b) with a within about 2**-k of -sqrt(2) b, k up to 7000."""
    b = draw(huge_fractions.filter(bool))
    k = draw(st.integers(0, 7000))
    q = 2 ** k
    root = math.isqrt(2 * (b.numerator * q) ** 2 // b.denominator ** 2)
    a = Fraction(root + draw(st.integers(-1, 1)), q)
    return (-a if b > 0 else a), b


def oracle_sign(q: Quad) -> int:
    """The replaced ``Quad.sign``: at mixed signs it always compares the
    squares (p s)**2 and 2 (r q)**2."""
    p, r = q.a.numerator, q.b.numerator
    if p == 0 and r == 0:
        return 0
    if p >= 0 and r >= 0:
        return 1
    if p <= 0 and r <= 0:
        return -1
    diff = (p * q.b.denominator) ** 2 - 2 * (r * q.a.denominator) ** 2
    if p > 0:  # r < 0
        return 1 if diff > 0 else (-1 if diff < 0 else 0)
    return -1 if diff > 0 else (1 if diff < 0 else 0)


def sqrt2_convergent(k: int) -> tuple:
    """(p, q), the k-th convergent of sqrt(2): p**2 - 2 q**2 = (-1)**(k+1)."""
    p, q = 1, 1
    for _ in range(k):
        p, q = p + 2 * q, p + q
    return p, q


@st.composite
def convergent_quads(draw):
    """+-(p - q sqrt(2)) / d for a convergent p/q of sqrt(2), whose two
    parts come as close to cancelling as integers of their size allow;
    sometimes one part is nudged by one or given its own denominator."""
    p, q = sqrt2_convergent(draw(st.integers(0, 3000)))
    p += draw(st.sampled_from([0, 0, 0, -1, 1]))
    sign = draw(st.sampled_from([1, -1]))
    d = draw(st.integers(1, 2 ** 64))
    e = draw(st.sampled_from([d, d, draw(st.integers(1, 2 ** 64))]))
    return Quad(Fraction(sign * p, d), Fraction(-sign * q, e))


@st.composite
def bit_length_band(draw):
    """Mixed signs with |p| s and |r| q within a few bits of each other,
    around the bands where bit lengths alone decide."""
    y = draw(st.integers(1, 2 ** 300))
    bits = max(1, y.bit_length() + draw(st.integers(-2, 3)))
    x = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    sign = draw(st.sampled_from([1, -1]))
    return Quad(Fraction(sign * x), Fraction(-sign * y))


class TestQuadSign:
    @given(huge_fractions, huge_fractions)
    def test_matches_fraction_reference(self, a, b):
        assert Quad(a, b).sign() == reference_sign(a, b)

    @given(st.one_of(convergent_quads(), bit_length_band(),
                     st.builds(Quad, huge_fractions, huge_fractions)))
    def test_matches_replaced_sign(self, q):
        assert q.sign() == oracle_sign(q)

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 40, 1000])
    def test_sqrt2_convergents(self, k):
        p, q = sqrt2_convergent(k)
        norm = p * p - 2 * q * q
        assert norm == (-1) ** (k + 1)
        # p - q sqrt(2) = norm / (p + q sqrt(2)) has the sign of the norm.
        assert Quad(Fraction(p), Fraction(-q)).sign() == norm
        assert Quad(Fraction(-p), Fraction(q)).sign() == -norm

    @given(near_cancelling())
    def test_matches_fraction_reference_near_zero(self, ab):
        a, b = ab
        assert Quad(a, b).sign() == reference_sign(a, b)

    def test_zero(self):
        assert Quad(0, 0).sign() == 0


def make_instance(events, n=None, alphabet_size=2):
    """An instance over variables 0..n-1; n defaults to the least that
    covers every support."""
    if n is None:
        n = max((v + 1 for e in events for v in e.support), default=0)
    return LLLInstance(alphabet=(alphabet_size,) * n, events=list(events))


class TestInstance:
    @pytest.mark.parametrize("v", [-1, 3, "v0", True])
    def test_support_outside_positions_rejected(self, v):
        e = BadEvent(id=("e",), support=(0, v),
                     probability=Quad.of(Fraction(1, 4)),
                     weight=Quad.of(Fraction(1, 2)))
        with pytest.raises(InputError, match="outside 0..2"):
            check_instance(LLLInstance(alphabet=(2, 2, 2), events=[e]))


class TestVerifyCondition:
    def test_equal_values_in_distinct_objects_share_a_class(self):
        # Classes are found by identity first, then by value: two equal
        # weights in distinct objects still give one signature, so the
        # private events below share one margin object.
        events = [BadEvent(id=(k,), support=(k,),
                           probability=Quad(Fraction(1, 8)),
                           weight=Quad(Fraction(1, 2))) for k in range(3)]
        assert events[0].weight is not events[1].weight
        verdict = verify_condition(make_instance(events))
        margins = [verdict.margins[e.id] for e in events]
        assert margins[0] is margins[1] is margins[2]
        assert margins[0] == Quad(Fraction(3, 8))

    def test_single_event_empty_product(self):
        e = BadEvent(id=("e",), support=(0,),
                     probability=Quad.of(Fraction(1, 4)),
                     weight=Quad.of(Fraction(1, 2)))
        verdict = verify_condition(make_instance([e]))
        assert verdict.holds
        assert verdict.margins[("e",)] == Quad.of(Fraction(1, 4))

    def test_two_events_shared_variable_fail(self):
        events = [
            BadEvent(id=(k,), support=(0,),
                     probability=Quad.of(Fraction(3, 10)),
                     weight=Quad.of(Fraction(1, 2)))
            for k in range(2)
        ]
        verdict = verify_condition(make_instance(events))
        assert not verdict.holds
        assert verdict.margins[(0,)] == Quad.of(Fraction(-1, 20))

    def test_weight_outside_unit_interval_rejected(self):
        e = BadEvent(id=("e",), support=(0,),
                     probability=Quad.of(Fraction(1, 4)),
                     weight=Quad.of(1))
        with pytest.raises(InputError):
            verify_condition(make_instance([e]))

    def test_probability_above_one_rejected(self):
        e = BadEvent(id=("e",), support=(0,),
                     probability=Quad.of(Fraction(5, 4)),
                     weight=Quad.of(Fraction(1, 2)))
        with pytest.raises(InputError):
            verify_condition(make_instance([e]))

    def test_margins_invariant_under_relabeling(self):
        events = [
            BadEvent(id=(k,), support=(k, k + 1),
                     probability=Quad.of(Fraction(1, 8)),
                     weight=half_power_of_two(3))
            for k in range(4)
        ]
        base = verify_condition(make_instance(events))
        rename = {i: (i * 3) % 7 for i in range(5)}
        renamed = [
            BadEvent(id=e.id, support=tuple(rename[v] for v in e.support),
                     probability=e.probability, weight=e.weight)
            for e in events
        ]
        relabeled = verify_condition(make_instance(renamed))
        assert relabeled.holds == base.holds
        assert relabeled.margins == base.margins


# Three weight classes (two irrational), and two probabilities that both
# occur in weight class 0.
ORACLE_WEIGHTS = [half_power_of_two(3), half_power_of_two(4),
                  half_power_of_two(5)]
ORACLE_PROBABILITIES = [Quad.of(Fraction(1, 20)), Quad.of(Fraction(1, 4))]


@st.composite
def oracle_instances(draw):
    """Events 0 and 3 share weight class 0 and their support, so they have
    one neighbour-count row, but carry different probabilities; events 0-2
    span the three weight classes; the rest are random."""
    extra = draw(st.integers(0, 5))
    support_sets = st.sets(st.integers(0, 5), min_size=1, max_size=3)
    supports = [{6}, draw(support_sets), draw(support_sets), {6}] + draw(
        st.lists(support_sets, min_size=extra, max_size=extra))
    weight_classes = [0, 1, 2, 0] + draw(st.lists(
        st.integers(0, 2), min_size=extra, max_size=extra))
    probability_classes = [0, 0, 1, 1] + draw(st.lists(
        st.integers(0, 1), min_size=extra, max_size=extra))
    return [
        BadEvent(id=(i,), support=tuple(sorted(support)),
                 probability=ORACLE_PROBABILITIES[p],
                 weight=ORACLE_WEIGHTS[w])
        for i, (support, w, p) in enumerate(
            zip(supports, weight_classes, probability_classes))
    ]


class TestVerifyConditionOracle:
    @given(oracle_instances())
    def test_margins_match_pairwise_product(self, events):
        verdict = verify_condition(make_instance(events))
        for a in events:
            rhs = a.weight
            for b in events:
                if b is not a and set(a.support) & set(b.support):
                    rhs = rhs * (Quad.of(1) - b.weight)
            assert verdict.margins[a.id] == rhs - a.probability
        assert verdict.holds == all(
            m.sign() >= 0 for m in verdict.margins.values())

    @given(st.lists(st.tuples(
        st.sets(st.integers(0, 3), min_size=1, max_size=2),
        st.integers(0, 20), st.integers(1, 80)), min_size=1, max_size=12))
    def test_height_bound_is_never_below_a_margin(self, rows):
        # Weights 2^(-k/2), rational and not, and probabilities 3^-j.  With
        # the limit one below the highest margin, the bound that
        # verify_condition checks first must already exceed it.
        inst = make_instance([
            BadEvent(id=(i,), support=tuple(sorted(support)),
                     probability=Quad.of(Fraction(1, 3 ** j)),
                     weight=half_power_of_two(k))
            for i, (support, j, k) in enumerate(rows)])
        top = max(m.height() for m in verify_condition(inst).margins.values())
        with mock.patch.object(lll, "MARGIN_HEIGHT_LIMIT", top - 1):
            with pytest.raises(ResourceLimitError):
                verify_condition(inst)


def oracle_neighbour_counts(supports, classes, n: int) -> list[dict]:
    """neighbour_counts as it was before its incidence bitmasks: one
    bitmask dict per variable, keyed by class, and one union dict per
    event."""
    masks: list[dict] = []
    for positions in events_by_variable(supports, n):
        row: dict = {}
        for i in positions:
            k = classes[i]
            row[k] = row.get(k, 0) | 1 << i
        masks.append(row)
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


def oracle_margins(inst: LLLInstance) -> tuple[dict, bool]:
    """Margins and verdict as verify_condition took them before it built
    each class's powers in ascending count order: every (class, count)
    power by square-and-multiply from scratch, and each margin's sign
    taken once per signature."""
    one = Quad.of(1)
    table: dict = {}
    weight_ids = [table.setdefault(e.weight, len(table)) for e in inst.events]
    weights = list(table)
    counts = oracle_neighbour_counts([e.support for e in inst.events],
                                     weight_ids, len(inst.alphabet))
    pow_cache: dict = {}

    def base_power(k: int, count: int) -> Quad:
        key = (k, count)
        if key not in pow_cache:
            pow_cache[key] = (one - weights[k]) ** count
        return pow_cache[key]

    memo: dict = {}
    margins = {}
    for e, k_w, row in zip(inst.events, weight_ids, counts):
        key = (k_w, e.probability, tuple(row.values()))
        margin = memo.get(key)
        if margin is None:
            rhs = e.weight
            for k, count in row.items():
                if count:
                    rhs = rhs * base_power(k, count)
            margin = memo[key] = rhs - e.probability
        margins[e.id] = margin
    return margins, all(m.sign() >= 0 for m in memo.values())


# Supports over variables 0..5 that are often empty or private to their
# event (variables 6 and up, one per event), so that events without
# neighbours and whole classes without neighbours come up.
@st.composite
def support_lists(draw, max_events=10):
    rows = draw(st.lists(st.tuples(
        st.sampled_from(["empty", "private", "shared", "shared"]),
        st.lists(st.integers(0, 5), min_size=1, max_size=4)),
        max_size=max_events))
    return [[] if kind == "empty" else [6 + i] if kind == "private"
            else shared for i, (kind, shared) in enumerate(rows)]


# Rational (even k) and irrational (odd k) weights 2^(-k/2), and 1/3.
MIXED_WEIGHTS = [half_power_of_two(k) for k in (1, 2, 3, 6, 9)] + [
    Quad.of(Fraction(1, 3))]
MIXED_PROBABILITIES = [Quad.of(0), Quad.of(Fraction(1, 64)),
                       Quad.of(Fraction(1, 9)), half_power_of_two(7)]


@st.composite
def mixed_instances(draw):
    supports = draw(support_lists())
    n = 6 + len(supports)
    return make_instance([
        BadEvent(id=(i,), support=tuple(support),
                 probability=draw(st.sampled_from(MIXED_PROBABILITIES)),
                 weight=draw(st.sampled_from(MIXED_WEIGHTS)))
        for i, support in enumerate(supports)], n=n)


class TestAgainstReplacedCode:
    @given(support_lists(max_events=14), st.data())
    def test_neighbour_counts_match_class_dict_masks(self, supports, data):
        classes = data.draw(st.lists(st.integers(0, 3), min_size=len(supports),
                                     max_size=len(supports)))
        counts = neighbour_counts(supports, classes, 6 + len(supports))
        expected = oracle_neighbour_counts(supports, classes,
                                           6 + len(supports))
        # Same dicts, keys in the same order.
        assert [list(row.items()) for row in counts] == [
            list(row.items()) for row in expected]

    def test_events_without_neighbours_count_zero(self):
        supports = [[], [0], [1], [], [1]]
        counts = neighbour_counts(supports, [0, 1, 0, 1, 2], 2)
        assert counts == [{0: 0, 1: 0, 2: 0}, {0: 0, 1: 0, 2: 0},
                          {0: 0, 1: 0, 2: 1}, {0: 0, 1: 0, 2: 0},
                          {0: 1, 1: 0, 2: 0}]
        assert counts == oracle_neighbour_counts(supports, [0, 1, 0, 1, 2], 2)

    @given(mixed_instances())
    def test_margins_match_per_signature_powers(self, inst):
        verdict = verify_condition(inst)
        margins, holds = oracle_margins(inst)
        assert verdict.margins == margins
        assert verdict.holds == holds
        assert verdict.ok == {i: m.sign() >= 0 for i, m in margins.items()}

    @given(st.integers(1, 12), st.lists(st.integers(1, 40), min_size=1,
                                        max_size=8))
    def test_powers_with_gaps_match_per_signature_powers(self, k, sizes):
        # Star-shaped neighbourhoods: event j of group g shares variable g
        # with the rest of its group, so its counts are the group sizes
        # less one, with gaps of any width between them.
        events = [BadEvent(id=(g, j), support=(g,),
                           probability=Quad.of(0),
                           weight=half_power_of_two(k + g % 2))
                  for g, size in enumerate(sizes) for j in range(size)]
        inst = make_instance(events)
        margins, holds = oracle_margins(inst)
        verdict = verify_condition(inst)
        assert verdict.margins == margins
        assert verdict.holds == holds


def oracle_equal_on(first: tuple, second: tuple):
    """The replaced predicate: one itemgetter per side, on copied positions."""
    return lambda a, first=itemgetter(*first), second=itemgetter(*second): (
        first(a) == second(a))


@st.composite
def even_supports(draw):
    """A support of 2k positions below 10, with its half-length k."""
    k = draw(st.integers(1, 5))
    return tuple(draw(st.lists(st.integers(0, 9), min_size=2 * k,
                               max_size=2 * k))), k


def assignments(alphabet):
    return st.lists(st.integers(0, alphabet - 1), min_size=10, max_size=10)


@st.composite
def first_pair_cases(draw, partner):
    """(support, a): 2-8 positions below 10, odd counts too, and values over
    2-4 symbols whose first pair, at places 0 and ``partner(len(support))``,
    agrees or differs as drawn (it can only agree on a repeated position)."""
    support = tuple(draw(st.lists(st.integers(0, 9), min_size=2,
                                  max_size=8)))
    alphabet = draw(st.integers(2, 4))
    a = draw(assignments(alphabet))
    first, second = support[0], support[partner(len(support))]
    if draw(st.booleans()):
        a[second] = a[first]
    elif first != second:
        a[second] = (a[first] + 1) % alphabet
    return support, a


class TestEqualOn:
    @given(first_pair_cases(lambda k: k // 2))
    def test_halves_matches_its_full_tuple_oracle(self, case):
        support, a = case
        assert halves(support, a) == oracle_halves(support, a)

    @given(first_pair_cases(lambda k: 1))
    def test_interleaved_matches_its_full_tuple_oracle(self, case):
        support, a = case
        assert interleaved(support, a) == oracle_interleaved(support, a)

    @pytest.mark.parametrize("build, oracle", [
        (lambda f, w: build_squarefree_instance(w, 16, 3, 2), oracle_halves),
        (lambda f, w: build_2coloring_instance(f, w, build_t_sets(f, 1, 2)),
         oracle_interleaved),
    ], ids=["halves", "interleaved"])
    def test_resample_with_oracle_predicates_keeps_trace(self, build,
                                                         oracle):
        # The culprits and draws depend only on which events are violated,
        # so full-tuple predicates give the same run.
        f = parse_group_spec("free:2")
        inst = build(f, f.ball(radius=4))
        replaced = LLLInstance(inst.alphabet, [
            dataclasses.replace(e, violated=functools.partial(oracle,
                                                              e.support))
            for e in inst.events])
        for seed in range(3):
            run, expected = resample(inst, seed), resample(replaced, seed)
            assert run.resamples > 0
            assert run.trace == expected.trace
            assert run.assignment == expected.assignment

    @given(even_supports(), st.integers(2, 4), st.data())
    def test_halves_matches_two_itemgetter_predicate(self, case, alphabet,
                                                     data):
        # The square-free rule: a path's two halves, place by place.
        support, k = case
        predicate = equal_on(support, halves)
        oracle = oracle_equal_on(support[:k], support[k:])
        for _ in range(8):
            a = data.draw(assignments(alphabet))
            assert predicate(a) == oracle(a)

    @given(even_supports(), st.integers(2, 4), st.data())
    def test_interleaved_matches_two_itemgetter_predicate(self, case,
                                                          alphabet, data):
        # The 2-coloring rule: g T_n at the even places, g s_n T_n at the
        # odd ones.
        support, _ = case
        predicate = equal_on(support, interleaved)
        oracle = oracle_equal_on(support[0::2], support[1::2])
        for _ in range(8):
            a = data.draw(assignments(alphabet))
            assert predicate(a) == oracle(a)

    @pytest.mark.parametrize("support", [(), (3,)])
    def test_support_below_two_positions_rejected(self, support):
        for rule in (halves, interleaved):
            with pytest.raises(InputError, match="at least 2 positions"):
                equal_on(support, rule)


class TestBadEvent:
    event = BadEvent(id=("e",), support=(0, 1), probability=Quad.of(0),
                     weight=Quad.of(Fraction(1, 2)))

    def test_slotted(self):
        assert not hasattr(self.event, "__dict__")

    def test_replace_swaps_the_predicate(self):
        # bench/tracer.py counts predicate calls through this replace.
        def predicate(a):
            return True
        copy = dataclasses.replace(self.event, violated=predicate)
        assert copy.violated is predicate
        assert (copy.id, copy.support, copy.weight) == (
            self.event.id, self.event.support, self.event.weight)
        assert self.event.violated is None

    def test_replace_swaps_the_events_of_an_instance(self):
        # bench/tracer.py hands the resampler such a copy.
        inst = LLLInstance(alphabet=(2, 2), events=[self.event])
        events = [dataclasses.replace(self.event, violated=lambda a: False)]
        copy = dataclasses.replace(inst, events=events)
        assert copy.events is events
        assert copy.alphabet == inst.alphabet
        assert inst.events == [self.event]


class TestNeighbourCounts:
    @given(st.lists(
        st.tuples(st.lists(st.integers(0, 5), max_size=3),
                  st.integers(0, 2)),
        max_size=8,
    ))
    def test_matches_pairwise_count(self, events):
        supports = [support for support, _ in events]
        classes = [k for _, k in events]
        counts = neighbour_counts(supports, classes, 6)
        assert len(counts) == len(events)
        for i, row in enumerate(counts):
            expected = {k: 0 for k in classes}
            for j, other in enumerate(supports):
                if j != i and set(supports[i]) & set(other):
                    expected[classes[j]] += 1
            assert row == expected

    @given(st.lists(st.lists(st.integers(0, 5), max_size=4), max_size=8))
    def test_index_lists_each_sharing_event_once(self, supports):
        index = events_by_variable(supports, 6)
        assert len(index) == 6
        assert {v for v, positions in enumerate(index) if positions} == {
            v for support in supports for v in support}
        for v, positions in enumerate(index):
            assert positions == [i for i, support in enumerate(supports)
                                 if v in support]


# Resampling in a child running under python -O: the predicate is clean
# on its first call (the search) and violated afterwards, so only the
# post-hoc certification can notice.
OPTIMIZED_RESAMPLE = """
import sys
from fractions import Fraction
from groupshift.exact import Quad
from groupshift.lll import BadEvent, LLLInstance, resample

print(sys.flags.optimize)
calls = []

def violated(assignment):
    calls.append(1)
    return len(calls) > 1

event = BadEvent(id=("flip",), support=(0,),
                 probability=Quad.of(Fraction(1, 2)),
                 weight=Quad.of(Fraction(1, 2)), violated=violated)
resample(LLLInstance(alphabet=(2,), events=[event]), seed=0)
"""


class TestResample:
    def test_post_hoc_check_survives_optimize(self):
        src = str(Path(groupshift.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", OPTIMIZED_RESAMPLE],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.stdout.strip() == "1"
        assert proc.returncode != 0
        assert "AssertionError: event ('flip',) violated" in proc.stderr

    def all_equal_event(self, n=4):
        support = tuple(range(n))
        return BadEvent(
            id=("eq",), support=support,
            probability=Quad.of(Fraction(2, 2 ** n)),
            weight=Quad.of(Fraction(1, 2)),
            violated=lambda a, s=support: len({a[v] for v in s}) == 1,
        )

    def test_index_is_built_only_after_a_violation(self, monkeypatch):
        builds = []
        index = lll.events_by_variable
        monkeypatch.setattr(lll, "events_by_variable",
                            lambda supports, n: builds.append(1) or index(
                                supports, n))
        quiet = BadEvent(id=("never",), support=(0, 1),
                         probability=Quad.of(0),
                         weight=Quad.of(Fraction(1, 2)),
                         violated=lambda a: False)
        assert resample(make_instance([quiet]), seed=0).resamples == 0
        assert builds == []
        inst = make_instance([self.all_equal_event()])
        runs = [resample(inst, seed=s).resamples for s in range(20)]
        assert builds == [1] * sum(1 for r in runs if r)
        assert 0 < len(builds) < len(runs)

    def test_zero_events(self):
        inst = make_instance([], n=2)
        run = resample(inst, seed=5)
        assert run.resamples == 0
        assert len(run.assignment) == 2
        assert set(run.assignment) <= {0, 1}

    def test_all_equal_event_avoided(self):
        inst = make_instance([self.all_equal_event()])
        run = resample(inst, seed=0)
        assert len(set(run.assignment)) == 2

    def test_deterministic_given_seed(self):
        inst = make_instance([self.all_equal_event()])
        runs = [resample(inst, seed=42) for _ in range(2)]
        assert runs[0].assignment == runs[1].assignment
        assert runs[0].trace == runs[1].trace

    def test_cap_enforced(self):
        # An unsatisfiable event can never stop resampling.
        e = BadEvent(id=("always",), support=(0,),
                     probability=Quad.of(1),
                     weight=Quad.of(Fraction(1, 2)),
                     violated=lambda a: True)
        inst = make_instance([e])
        with pytest.raises(NonterminatingInstanceError) as err:
            resample(inst, seed=0, cap=10)
        assert len(err.value.trace) == 10

    def test_empirical_mean_under_weight_bound(self):
        # Statistical smoke test: mean resamples <= 2 * sum x/(1-x).
        inst = make_instance([self.all_equal_event()])
        bound = 2 * sum(
            float(e.weight) / (1 - float(e.weight)) for e in inst.events
        )
        mean = sum(
            resample(inst, seed=s).resamples for s in range(100)
        ) / 100
        assert mean <= bound

    def test_probability_audit(self):
        e = self.all_equal_event(5)
        inst = make_instance([e])
        assert audit_event_probability(inst, e) == Fraction(2, 32)

    def test_probability_audit_skips_large_supports(self):
        support = tuple(range(30))
        e = BadEvent(id=("big",), support=support,
                     probability=Quad.of(Fraction(1, 2)),
                     weight=Quad.of(Fraction(1, 2)),
                     violated=lambda a: True)
        assert audit_event_probability(make_instance([e]), e) is None


def full_scan_resample(inst: LLLInstance, seed: int,
                       cap: int = 10 ** 6) -> ResampleRun:
    """The oracle: rescan every event from the least id after each resample."""
    rng = random.Random(seed)
    assignment = [rng.randrange(k) for k in inst.alphabet]
    events = sorted(inst.events, key=lambda e: e.id)
    trace: list = []
    while True:
        culprit = None
        for e in events:
            if e.violated(assignment):
                culprit = e
                break
        if culprit is None:
            break
        if len(trace) >= cap:
            raise NonterminatingInstanceError(
                f"resample cap {cap} exceeded", trace
            )
        trace.append(culprit.id)
        for v in culprit.support:
            assignment[v] = rng.randrange(inst.alphabet[v])
    for e in events:
        if e.violated(assignment):
            raise AssertionError(f"event {e.id} violated after resampling")
    return ResampleRun(assignment=assignment, trace=trace, seed=seed)


def outcome(resampler, inst, seed, cap=10 ** 6):
    """The trace and assignment of a run, or the trace it was capped with."""
    try:
        run = resampler(inst, seed=seed, cap=cap)
    except NonterminatingInstanceError as err:
        return "capped", err.trace
    return "done", run.trace, run.assignment


@st.composite
def all_equal_instances(draw):
    """Events "all equal on the support" over 1-8 variables with alphabets
    of size 2-3, ids shuffled against list order.  A support that repeats
    one variable is always violated, so such instances run into any cap."""
    n = draw(st.integers(1, 8))
    alphabet = tuple(draw(st.integers(2, 3)) for _ in range(n))
    supports = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=4).map(tuple),
        max_size=10))
    ids = draw(st.permutations(range(len(supports))))
    half = Quad.of(Fraction(1, 2))

    def all_equal(support):
        return lambda a: len({a[v] for v in support}) == 1

    events = [BadEvent(id=(k,), support=support, probability=half,
                       weight=half, violated=all_equal(support))
              for k, support in zip(ids, supports)]
    return LLLInstance(alphabet=alphabet, events=events)


class TestResampleOracle:
    @given(all_equal_instances(), st.integers(0, 2 ** 16))
    def test_matches_full_scan(self, inst, seed):
        for cap in (0, 5, 100, 1000):
            assert outcome(resample, inst, seed, cap) == outcome(
                full_scan_resample, inst, seed, cap)

    def test_matches_full_scan_on_bench_instance(self):
        group = parse_group_spec("z^2")
        inst = build_2coloring_instance(group, group.ball(radius=27),
                                        build_t_sets(group, 2, 2))
        for seed in (1, 2, 3):
            expected = outcome(full_scan_resample, inst, seed)
            assert expected[0] == "done" and len(expected[1]) > 900
            assert outcome(resample, inst, seed) == expected


def counting(inst: LLLInstance) -> tuple[LLLInstance, list]:
    """A copy of ``inst`` whose predicates count their calls in ``calls[0]``."""
    calls = [0]

    def counted(violated):
        def predicate(assignment):
            calls[0] += 1
            return violated(assignment)
        return predicate

    return dataclasses.replace(inst, events=[
        dataclasses.replace(e, violated=counted(e.violated))
        for e in inst.events]), calls


class TestResampleLaziness:
    """The resampler evaluates a predicate only when its event could be the
    next culprit, so it never makes more calls than the eager scheme."""

    @given(all_equal_instances(), st.integers(0, 2 ** 16))
    def test_no_more_calls_than_rechecking_every_neighbour(self, inst, seed):
        # The eager scheme evaluates every event before the first resample
        # and in the closing scan, and after each resample every event
        # whose support meets the culprit's, the culprit included.
        counted, calls = counting(inst)
        try:
            trace = resample(counted, seed=seed, cap=200).trace
        except NonterminatingInstanceError as err:
            trace = err.trace
        supports = {e.id: set(e.support) for e in inst.events}
        eager = 2 * len(inst.events) + sum(
            sum(1 for support in supports.values()
                if support & supports[culprit])
            for culprit in trace)
        assert calls[0] <= eager

    # Resamples and calls of one seed, pinned.  Re-evaluating every
    # neighbour of each culprit at once takes 29,859 and 93,072 calls on
    # the same traces.
    def test_calls_on_bench_2coloring_instance(self):
        group = parse_group_spec("z^2")
        inst, calls = counting(build_2coloring_instance(
            group, group.ball(radius=27), build_t_sets(group, 2, 2)))
        assert (resample(inst, seed=1).resamples, calls[0]) == (1004, 10640)

    def test_calls_on_bench_squarefree_instance(self):
        inst, calls = counting(build_squarefree_instance(
            parse_group_spec("free:2").ball(radius=6), 16, 3, 2))
        assert (resample(inst, seed=1).resamples, calls[0]) == (160, 42080)


class TestConstants:
    def test_scan_finds_seventeen(self):
        assert aperiodic_constant_scan(32) == 17

    def test_sixteen_fails(self):
        assert not check_aperiodic_constant(16)

    def test_seventeen_holds(self):
        assert check_aperiodic_constant(17)

    def test_scan_not_found(self):
        with pytest.raises(InputError):
            aperiodic_constant_scan(10)

    def test_series_partial_sums(self):
        assert abs(geometric_derivative_partial(60) - 2) <= Fraction(1, 2 ** 50)

    def test_alphabet_bound(self):
        assert squarefree_alphabet_bound(1) == 524288
        assert squarefree_alphabet_bound(2) == 2097152
