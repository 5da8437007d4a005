import itertools
import math

import pytest
from hypothesis import given, strategies as st

from groupshift.groups import (
    DiscreteHeisenberg,
    FreeGroup,
    FreeProductZ2Z3,
    GroupModel,
    InputError,
    IntegerLattice,
    ResourceLimitError,
    parse_group_spec,
)
from oracles import distance, oracle_lattice_evaluate

ALL_GROUPS = [
    IntegerLattice(1),
    IntegerLattice(2),
    FreeGroup(2),
    FreeProductZ2Z3(),
    DiscreteHeisenberg(),
]


def heisenberg_matrix_oracle(letters):
    """Independent oracle: multiply 3x3 upper unitriangular matrices."""
    def mat(a, b, c):
        return [[1, a, c], [0, 1, b], [0, 0, 1]]

    def matmul(p, q):
        return [
            [sum(p[i][k] * q[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]

    gens = {
        ("x", 1): mat(1, 0, 0), ("x", -1): mat(-1, 0, 0),
        ("y", 1): mat(0, 1, 0), ("y", -1): mat(0, -1, 0),
        ("z", 1): mat(0, 0, 1), ("z", -1): mat(0, 0, -1),
    }
    m = mat(0, 0, 0)
    for letter in letters:
        m = matmul(m, gens[letter])
    return m[0][1], m[1][2], m[0][2]  # matrix entries (a, b, gamma)


class TestCanonicalize:
    def test_free_reduction(self):
        f = FreeGroup(2)
        assert f.element_word(f.canonicalize("a a^-1 b")) == "b"

    def test_lattice_commutativity(self):
        z2 = IntegerLattice(2)
        assert z2.canonicalize("x y x^-1") == (0, 1)

    def test_heisenberg_commutator_is_center(self):
        h = DiscreteHeisenberg()
        assert h.canonicalize("x y x^-1 y^-1") == (0, 0, 1)

    def test_heisenberg_against_matrix_oracle(self):
        h = DiscreteHeisenberg()
        letters = [("x", 1), ("x", 1), ("y", -1), ("x", -1), ("y", 1)]
        a, b, gamma = heisenberg_matrix_oracle(letters)
        assert h._to_mat(h.evaluate(letters)) == (a, b, gamma)

    def test_heisenberg_matrix_oracle_exhaustive_length3(self):
        h = DiscreteHeisenberg()
        alphabet = [("x", 1), ("x", -1), ("y", 1), ("y", -1)]
        for word in itertools.product(alphabet, repeat=3):
            a, b, gamma = heisenberg_matrix_oracle(list(word))
            assert h.evaluate(list(word)) == h._from_mat((a, b, gamma))

    def test_superscript_inverse_accepted(self):
        f = FreeGroup(2)
        assert f.canonicalize("a⁻¹") == f.canonicalize("a^-1")

    def test_unknown_label_rejected(self):
        with pytest.raises(InputError):
            FreeGroup(2).canonicalize("q")

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec)
    def test_idempotence_and_word_roundtrip(self, group):
        for g in group.ball(radius=3).members:
            word = group.element_word(g)
            assert group.canonicalize(word) == g


class TestBalls:
    def test_equality_ignores_index_and_adjacency(self):
        ball = IntegerLattice(2).ball(radius=2)
        fields = dict(center=ball.center, radius=ball.radius,
                      members=ball.members, sizes=ball.sizes)
        other = type(ball)(**fields, index={}, adjacency=())
        assert other == ball and hash(other) == hash(ball)
        assert type(ball)(**{**fields, "radius": 3}, index=ball.index,
                          adjacency=ball.adjacency) != ball
        assert "index" not in repr(other) and "adjacency" not in repr(other)

    @pytest.mark.parametrize("name", ["center", "members", "index"])
    def test_fields_are_read_only(self, name):
        ball = IntegerLattice(1).ball(radius=1)
        with pytest.raises(AttributeError):
            setattr(ball, name, getattr(ball, name))
        with pytest.raises(AttributeError):
            delattr(ball, name)

    def test_lattice_ball_radius1(self):
        assert len(IntegerLattice(2).ball(radius=1)) == 5

    def test_free_group_ball_radius2(self):
        assert len(FreeGroup(2).ball(radius=2)) == 17

    def test_z2z3_ball_radius1(self):
        p = FreeProductZ2Z3()
        members = set(p.ball(radius=1).members)
        assert members == {(), ("a",), ("b",), ("B",)}

    def test_z2z3_binv_is_bsquared(self):
        p = FreeProductZ2Z3()
        assert p.canonicalize("b^-1") == p.canonicalize("b b")

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec)
    def test_ball_matches_word_enumeration(self, group):
        """Brute-force oracle: all products of generator words length <= r."""
        r = 3
        reachable = {group.identity()}
        frontier = {group.identity()}
        for _ in range(r):
            frontier = {
                group.mul(g, s)
                for g in frontier for s in group.step_elements()
            }
            reachable |= frontier
        assert set(group.ball(radius=r).members) == reachable

    def test_bfs_order_deterministic(self):
        z2 = IntegerLattice(2)
        assert z2.ball(radius=1).members == (
            (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)
        )

    def test_growth_closed_form_z2(self):
        z2 = IntegerLattice(2)
        for r in range(21):
            assert len(z2.ball(radius=r)) == 2 * r * r + 2 * r + 1

    @pytest.mark.parametrize(
        "group", [g for g in ALL_GROUPS], ids=lambda g: g.spec
    )
    def test_strict_growth(self, group):
        sizes = [len(group.ball(radius=r)) for r in range(5)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_ball_cap(self):
        from groupshift.groups import ResourceLimitError

        with pytest.raises(ResourceLimitError):
            FreeGroup(2).ball(radius=10, cap=100)


class TestWindowInvariants:
    """One BFS: smaller balls are prefixes, caps bite at the exact count."""

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec)
    def test_smaller_balls_are_prefixes(self, group):
        window = group.ball(radius=5)
        assert len(window.sizes) == 6 and window.sizes[5] == len(window)
        for r in range(6):
            assert (window.members[:window.sizes[r]]
                    == group.ball(radius=r).members)

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec)
    def test_cap_boundary(self, group):
        size = len(group.ball(radius=3))
        assert len(group.ball(radius=3, cap=size)) == size
        with pytest.raises(ResourceLimitError):
            group.ball(radius=3, cap=size - 1)
        stream = group.bfs_stream(cap=10)
        assert len(list(itertools.islice(stream, 10))) == 10
        with pytest.raises(ResourceLimitError):
            next(stream)

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec)
    def test_neighbors_are_distinct_steps(self, group):
        steps = len(group.step_elements())
        for g in group.ball(radius=3).members:
            around = group.neighbors(g)
            assert len(set(around)) == steps and g not in around

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec)
    def test_adjacency_is_the_induced_cayley_graph(self, group):
        """Oracle: the element-keyed comprehension that built the induced
        graph apart from the ball search, mapped to positions, at radius
        0, 1, 3 and at the cap boundary."""
        size = len(group.ball(radius=3))
        for ball in [group.ball(radius=r) for r in (0, 1, 3)] + [
                group.ball(radius=3, cap=size)]:
            members, index = ball.members, ball.index
            assert index == {g: i for i, g in enumerate(members)}
            assert ball.adjacency == tuple(
                tuple(index[h] for h in group.neighbors(g) if h in index)
                for g in members)
            for i, nbrs in enumerate(ball.adjacency):  # symmetric
                assert all(i in ball.adjacency[j] for j in nbrs)
            outside = group.ball(radius=ball.radius + 1).members
            assert all((g in ball) == (g in index) for g in outside)
            assert len(outside) > len(ball) and (outside[-1] not in ball)
        assert group.ball(radius=0).adjacency == ((),)

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec)
    def test_ball_calls_neighbors_at_most_once_per_member(self, group,
                                                          monkeypatch):
        calls = []
        neighbors = group.neighbors
        monkeypatch.setattr(group, "neighbors",
                            lambda g: calls.append(g) or neighbors(g))
        ball = group.ball(radius=4)
        assert len(calls) == len(set(calls)) <= len(ball)
        assert set(calls) <= set(ball.members)


class TestWordRuns:
    def test_a_token_is_one_run(self):
        z2 = IntegerLattice(2)
        assert z2.parse_word("x^1000000000 y^-5 x^0") == [
            ("x", 10 ** 9), ("y", -5)
        ]

    @pytest.mark.parametrize("group", [FreeGroup(2), FreeProductZ2Z3()],
                             ids=lambda g: g.spec)
    @given(st.lists(st.tuples(st.sampled_from("ab"), st.integers(-5, 5)),
                    max_size=30))
    def test_one_reduction_stack_matches_run_by_run(self, group, letters):
        letters = [(label, exp) for label, exp in letters if exp]
        assert group.evaluate(letters) == GroupModel.evaluate(group, letters)


#: One-letter spellings of x^1 and x^-1, the label as {}.
UNIT_SPELLINGS = {1: ["{}", "{}^1", "{}^01"],
                  -1: ["{}'", "{}⁻¹", "{}⁻1", "{}^-1"]}


@st.composite
def spelled_words(draw, labels):
    """(letters, text): runs with exponents -5..5, zero and repeated labels
    included, and a text spelling them as runs or as single letters,
    separated by spaces and commas."""
    letters = draw(st.lists(st.tuples(st.sampled_from(labels),
                                      st.integers(-5, 5)), max_size=12))
    tokens = []
    for label, exp in letters:
        if exp and draw(st.booleans()):
            spelling = draw(st.sampled_from(UNIT_SPELLINGS[exp // abs(exp)]))
            tokens += [spelling.format(label)] * abs(exp)
        else:
            tokens.append(f"{label}^{exp}")
    seps = draw(st.lists(st.sampled_from([" ", ",", ", ", "  "]),
                         min_size=len(tokens), max_size=len(tokens)))
    return letters, "".join(map(str.__add__, tokens, seps))


LATTICES = [IntegerLattice(1), IntegerLattice(2), IntegerLattice(3)]


class TestLatticeWords:
    @pytest.mark.parametrize("z", LATTICES, ids=lambda g: g.spec)
    @given(st.data())
    def test_sum_per_axis_matches_one_mul_per_letter(self, z, data):
        letters, text = data.draw(spelled_words(z.labels))
        expected = oracle_lattice_evaluate(z, letters)
        assert z.canonicalize(text) == expected
        assert z.canonicalize(letters) == expected

    @pytest.mark.parametrize("d, word, message", [
        (2, "q", "unknown generator label 'q'"),
        (2, "x z", "unknown generator label 'z'"),
        (1, "y", "unknown generator label 'y'"),
        (3, "x y^-2 w^3", "unknown generator label 'w'"),
        (4, "x y", "unknown generator label 'x'"),
        (3, "x^", "cannot parse word at '^'"),
        (2, "x^^2", "cannot parse word at '^^2'"),
        (2, "1x", "cannot parse word at '1x'"),
        (2, "x,,y?", "cannot parse word at '?'"),
        (2, [("q", 1)], "unknown generator label 'q'"),
        (2, [("x", 1), ("z", 2)], "unknown generator label 'z'"),
        (4, [("x1", 1), ("x", 1)], "unknown generator label 'x'"),
    ])
    def test_bad_words_keep_their_messages(self, d, word, message):
        with pytest.raises(InputError) as raised:
            IntegerLattice(d).canonicalize(word)
        assert str(raised.value) == message
        if not isinstance(word, str):
            with pytest.raises(InputError) as raised:
                oracle_lattice_evaluate(IntegerLattice(d), word)
            assert str(raised.value) == message


class TestLatticeProduct:
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.just(d), *[st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=d,
                               max_size=d).map(tuple)] * 2)))
    def test_coordinatewise_sum_and_negation(self, case):
        d, a, b = case
        z = IntegerLattice(d)
        assert z.mul(a, b) == tuple(x + y for x, y in zip(a, b))
        assert z.inv(a) == tuple(-x for x in a)
        assert z.mul(a, z.inv(a)) == z.identity()


def oracle_least_conjugate(group, g):
    """The conjugation loop least_conjugate replaced: conjugate by the
    first letter s of the geodesic (s^-1 g s) up to 2|g| times and keep
    the least conjugate seen, with the product of the s as its u."""
    best = w, u = g, group.identity()
    for _ in range(2 * group.length(g)):
        s = group.gen(*group.geodesic(w)[0])
        nxt = group.mul(group.mul(group.inv(s), w), s)
        if nxt == w:
            break
        w, u = nxt, group.mul(u, s)
        if group.canonical_key(w) < group.canonical_key(best[0]):
            best = w, u
    return best


class TestLeastConjugate:
    @pytest.mark.parametrize("group", [FreeGroup(2), FreeGroup(3),
                                       FreeProductZ2Z3()],
                             ids=lambda g: g.spec)
    @given(st.data())
    def test_reduced_words_match_conjugation_loop(self, group, data):
        letters = data.draw(st.lists(
            st.tuples(st.sampled_from(group.labels), st.sampled_from((1, -1))),
            max_size=40))
        g = group.evaluate(letters)
        w, u = group.least_conjugate(g)
        oracle_w, oracle_u = oracle_least_conjugate(group, g)
        assert w == oracle_w
        assert group.mul(group.mul(u, w), group.inv(u)) == g
        assert group.length(u) <= group.length(oracle_u)

    def test_periodic_core_takes_the_shortest_u(self):
        # w = a b^2 a b^2 is the rotation of g by 2 or by 5 letters: u is
        # b^2 one way round and a^-1 the other.
        f = FreeGroup(2)
        w, u = f.least_conjugate(f.canonicalize("b^2 a b^2 a"))
        assert w == f.canonicalize("a b^2 a b^2")
        assert u == f.canonicalize("a^-1")

    def test_identity_is_its_own_least_conjugate(self):
        for group in ALL_GROUPS:
            e = group.identity()
            assert group.least_conjugate(e) == (e, e)


class TestNeighbors:
    def test_z_line(self):
        z = IntegerLattice(1)
        assert set(z.neighbors((0,))) == {(1,), (-1,)}

    def test_z2z3_collapse(self):
        p = FreeProductZ2Z3()
        assert set(p.neighbors(())) == {("a",), ("b",), ("B",)}

    def test_free_group(self):
        f = FreeGroup(2)
        a = f.canonicalize("a")
        expected = {f.canonicalize(w) for w in ["", "a a", "a b", "a b^-1"]}
        assert set(f.neighbors(a)) == expected


class TestMetric:
    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec)
    def test_length_of_inverse(self, group):
        for g in group.ball(radius=3).members:
            assert group.length(g) == group.length(group.inv(g))

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec)
    def test_symmetry_and_triangle_in_ball4(self, group):
        members = group.ball(radius=4).members
        if len(members) > 120:  # keep pair loops tractable
            members = members[:120]
        for g in members:
            for h in members:
                assert distance(group, g, h) == distance(group, h, g)
        for g, h, k in itertools.islice(
            itertools.product(members, repeat=3), 0, None,
            max(1, len(members) ** 3 // 20000),
        ):
            assert distance(group, g, k) <= (
                distance(group, g, h) + distance(group, h, k)
            )

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec)
    def test_homomorphism_on_short_words(self, group):
        alphabet = [(lab, e) for lab in group.labels for e in (1, -1)]
        words = [
            list(w)
            for n in range(0, 3)
            for w in itertools.product(alphabet, repeat=n)
        ]
        for u in words:
            for v in words:
                assert group.evaluate(u + v) == group.mul(
                    group.evaluate(u), group.evaluate(v)
                )


class TestSpecParsing:
    @pytest.mark.parametrize("spec,cls", [
        ("z", IntegerLattice), ("z^2", IntegerLattice),
        ("free:3", FreeGroup), ("z2*z3", FreeProductZ2Z3),
        ("heisenberg", DiscreteHeisenberg),
    ])
    def test_accepted(self, spec, cls):
        assert isinstance(parse_group_spec(spec), cls)

    def test_rejected(self):
        with pytest.raises(InputError):
            parse_group_spec("so(3)")


def heisenberg_bfs_words(radius):
    """Plain BFS oracle: each element of B(1, radius) -> its first word.

    Letters are tried in the order x, x^-1, y, y^-1 from frontiers kept in
    discovery order, so each word is the least shortest word of its
    element in that letter order.
    """
    h = DiscreteHeisenberg()
    letters = [("x", 1), ("x", -1), ("y", 1), ("y", -1)]
    words = {h.identity(): []}
    frontier = [h.identity()]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for letter in letters:
                k = h.mul(g, h.gen(*letter))
                if k not in words:
                    words[k] = words[g] + [letter]
                    nxt.append(k)
        frontier = nxt
    return words


heisenberg_coords = st.one_of(st.integers(-12, 12),
                              st.integers(-10 ** 9, 10 ** 9))


@st.composite
def heisenberg_elements(draw):
    """Elements with matrix coordinates up to about 10^9.

    The area term 2 gamma - ab is drawn on the scale of the larger of
    |a|, |b| squared as well, so all three cases of the closed form occur.
    """
    a, b = draw(heisenberg_coords), draw(heisenberg_coords)
    q = max(abs(a), abs(b))
    area = draw(st.one_of(heisenberg_coords, st.integers(-q * q, q * q)))
    return DiscreteHeisenberg._from_mat((a, b, (a * b + area) // 2))


class TestHeisenbergMetric:
    def test_matches_bfs_on_ball14(self):
        h = DiscreteHeisenberg()
        words = heisenberg_bfs_words(14)
        assert len(words) == 16381
        for g, word in words.items():
            assert h.length(g) == len(word)
            assert h.geodesic(g) == word

    @given(heisenberg_elements())
    def test_local_certificate(self, g):
        # Length 0 only at the identity, every step changes the length by
        # exactly one, and a non-identity element has a shorter neighbour:
        # together these pin the length to the word metric.
        h = DiscreteHeisenberg()
        n = h.length(g)
        assert (n == 0) == (g == h.identity())
        around = [h.length(h.mul(g, s)) for s in h.step_elements()]
        assert all(abs(m - n) == 1 for m in around)
        assert n == 0 or n - 1 in around

    @given(heisenberg_elements())
    def test_least_conjugate_in_closed_form(self, g):
        # The conjugates are (a, b, c + k gcd(a, b)); no neighbouring one
        # in that class sorts before w.
        h = DiscreteHeisenberg()
        w, u = h.least_conjugate(g)
        assert h.mul(h.mul(u, w), h.inv(u)) == g
        a, b, c = w
        d = math.gcd(a, b)
        if d == 0:
            assert w == g
        else:
            assert (a, b) == g[:2] and (c - g[2]) % d == 0
            for other in ((a, b, c - d), (a, b, c + d)):
                assert h.canonical_key(w) < h.canonical_key(other)

    def test_least_conjugate_is_least_of_its_class(self):
        # The class of (a, b, c) is (a, b, c + k gcd(a, b)).  Its least
        # member under canonical_key lies far inside c in [-200, 200]:
        # there |2c + ab| runs well past |ab| <= 144.
        h = DiscreteHeisenberg()
        for a, b in itertools.product(range(-12, 13), repeat=2):
            d = math.gcd(a, b)
            least = {}
            for c in range(-200, 201):
                key = h.canonical_key((a, b, c))
                r = c % d if d else c
                least[r] = min(least.get(r, key), key)
            for c in range(-40, 41):
                w, u = h.least_conjugate((a, b, c))
                assert h.canonical_key(w) == least[c % d if d else c]
                assert h.mul(h.mul(u, w), h.inv(u)) == (a, b, c)

    def test_far_geodesic_is_stateless(self):
        h = DiscreteHeisenberg()
        g = h.canonicalize("z^400")
        word = h.geodesic(g)
        assert len(word) == h.length(g) == 80
        assert h.evaluate(word) == g
        assert vars(h) == {"spec": "heisenberg", "labels": ["x", "y"]}
