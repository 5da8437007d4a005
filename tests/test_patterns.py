import random
from fractions import Fraction

import pytest

from groupshift.groups import IntegerLattice
from groupshift.patterns import WindowConfig
from oracles import (
    EmptySupportError,
    Pattern,
    density_of,
    interior_and_boundary,
    make_pattern,
    pattern_occurrences,
)


def z_window(symbols, radius):
    """The window B(1, radius) on Z with ``symbols`` read left to right."""
    z = IntegerLattice(1)
    window = z.ball(radius=radius)
    at = dict(zip(range(-radius, radius + 1), symbols))
    return WindowConfig(group=z, window=window,
                        colors=tuple(at[i] for (i,) in window.members),
                        alphabet_size=2)


def naive_occurrences(x, p):
    """Independent double-loop oracle for pattern occurrences."""
    group = x.group
    out = []
    for g in x.window.members:
        translated = {group.mul(g, h): a
                      for h, a in zip(p.support, p.symbols)}
        if all(gh in x for gh in translated):
            if all(x[gh] == a for gh, a in translated.items()):
                out.append(g)
    return out


class TestPatternDensity:
    def test_pattern_fields_are_read_only(self):
        p = Pattern(support=((0,), (1,)), symbols=(1, 0))
        with pytest.raises(AttributeError):
            p.symbols = (0, 0)
        assert p == Pattern(((0,), (1,)), (1, 0)) and len(p) == 2

    def test_direct_count(self):
        z = IntegerLattice(1)
        cells = {(i,): s for i, s in enumerate((1, 0, 1, 0, 0))}
        assert density_of(make_pattern(z, cells).symbols) == Fraction(2, 5)

    def test_all_ones(self):
        z = IntegerLattice(1)
        cells = {(i,): 1 for i in range(7)}
        assert density_of(make_pattern(z, cells).symbols) == 1

    def test_axis_cells_of_radius2_ball(self):
        z2 = IntegerLattice(2)
        ball = z2.ball(radius=2)
        assert len(ball) == 13
        cells = {g: (1 if z2.length(g) == 1 else 0) for g in ball.members}
        assert density_of(make_pattern(z2, cells).symbols) == Fraction(4, 13)

    def test_empty_support_rejected(self):
        with pytest.raises(EmptySupportError):
            density_of(Pattern(support=(), symbols=()).symbols)

    def test_complement(self):
        z2 = IntegerLattice(2)
        rng = random.Random(7)
        cells = {g: rng.randrange(2) for g in z2.ball(radius=3).members}
        flipped = {g: 1 - a for g, a in cells.items()}
        assert density_of(make_pattern(z2, cells).symbols) == (
            1 - density_of(make_pattern(z2, flipped).symbols)
        )


class TestInteriorBoundary:
    def test_square_with_unit_ball(self):
        z2 = IntegerLattice(2)
        square = [(i, j) for i in range(3) for j in range(3)]
        interior, boundary = interior_and_boundary(
            z2, square, z2.ball(radius=1).members
        )
        assert interior == {(1, 1)}
        assert len(boundary) == 8

    def test_identity_translate(self):
        z2 = IntegerLattice(2)
        f = [(i, 0) for i in range(4)]
        interior, boundary = interior_and_boundary(z2, f, [(0, 0)])
        assert interior == frozenset(f)
        assert boundary == frozenset()

    def test_interval_with_radius2(self):
        z = IntegerLattice(1)
        f = [(i,) for i in range(10)]
        interior, boundary = interior_and_boundary(
            z, f, z.ball(radius=2).members
        )
        assert interior == {(i,) for i in range(2, 8)}
        assert len(boundary) == 4

    def test_partition(self):
        z2 = IntegerLattice(2)
        f = z2.ball(radius=3).members
        interior, boundary = interior_and_boundary(
            z2, f, z2.ball(radius=1).members
        )
        assert interior | boundary == frozenset(f)
        assert not interior & boundary

    def test_monotone_in_k(self):
        z2 = IntegerLattice(2)
        rng = random.Random(11)
        pool = z2.ball(radius=4).members
        for _ in range(20):
            f = rng.sample(pool, 15)
            small = z2.ball(radius=1).members
            large = z2.ball(radius=2).members
            int_small, _ = interior_and_boundary(z2, f, small)
            int_large, _ = interior_and_boundary(z2, f, large)
            assert int_large <= int_small


class TestOccurrences:
    def test_constant_zero_matches_everywhere(self):
        x = z_window([0] * 11, radius=5)
        p = make_pattern(x.group, {(0,): 0})
        assert pattern_occurrences(x, p) == list(x.window.members)

    def test_constant_zero_no_ones(self):
        x = z_window([0] * 11, radius=5)
        p = make_pattern(x.group, {(0,): 1})
        assert pattern_occurrences(x, p) == []

    def test_sliding_window(self):
        x = z_window([0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0], radius=5)
        p = make_pattern(x.group, {(i,): s
                                   for i, s in enumerate((1, 0, 0, 1))})
        assert set(pattern_occurrences(x, p)) == {(-3,), (0,)}

    def test_boundary_crossing_skipped(self):
        # A match anchored at the last cell would need cells outside.
        x = z_window([1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1], radius=5)
        p = make_pattern(x.group, {(0,): 0, (1,): 1})
        assert (5,) not in pattern_occurrences(x, p)

    @pytest.mark.parametrize("seed", range(5))
    def test_against_naive_oracle(self, seed):
        z2 = IntegerLattice(2)
        rng = random.Random(seed)
        window = z2.ball(radius=4)
        colors = tuple(rng.randrange(2) for _ in window.members)
        x = WindowConfig(group=z2, window=window, colors=colors,
                         alphabet_size=2)
        support = rng.sample(z2.ball(radius=1).members, 3)
        p = make_pattern(z2, {g: rng.randrange(2) for g in support})
        assert pattern_occurrences(x, p) == naive_occurrences(x, p)


class TestWindowConfig:
    def test_totality_enforced(self):
        # A colour tuple shorter than the window is rejected.
        z = IntegerLattice(1)
        from groupshift.groups import InputError

        with pytest.raises(InputError):
            WindowConfig(group=z, window=z.ball(radius=2), colors=(0,),
                         alphabet_size=2)

    def test_symbol_range_enforced(self):
        z = IntegerLattice(1)
        from groupshift.groups import InputError

        window = z.ball(radius=1)
        with pytest.raises(InputError):
            WindowConfig(group=z, window=window, colors=(5,) * len(window),
                         alphabet_size=2)
