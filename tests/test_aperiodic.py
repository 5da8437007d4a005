import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import chain
from types import MethodType

import pytest
from hypothesis import given, settings, strategies as st

from groupshift.exact import Quad, sqrt2_power
from groupshift.groups import (
    Ball,
    DiscreteHeisenberg,
    FreeGroup,
    IntegerLattice,
    ResourceLimitError,
    bfs,
    parse_group_spec,
)
from groupshift.aperiodic import (
    WITNESS_LENGTH_LIMIT,
    TSets,
    build_2coloring_instance,
    build_squarefree_instance,
    build_t_sets,
    enumerate_odd_paths,
    find_vertex_square,
    fitting_pairs,
    halves,
    interleaved,
    verify_distinct_neighborhood,
    witness_path,
)
from groupshift.lll import resample, verify_condition
from groupshift.patterns import WindowConfig
from groupshift import aperiodic
from oracles import (audit_event_probability, check_instance, check_t_sets,
                     oracle_interleaved, oracle_vertex_square,
                     path_dependency_counts)
from test_groups import ALL_GROUPS
from test_lll import first_pair_cases


def constant_window(group, radius, symbol=0):
    window = group.ball(radius=radius)
    return WindowConfig(group=group, window=window,
                        colors=(symbol,) * len(window), alphabet_size=2)


def oracle_odd_path_count(w, max_half_length):
    """Brute-force directed DFS recount, halved for direction symmetry."""
    count = 0

    def extend(path, on_path):
        nonlocal count
        if len(path) % 2 == 0:
            count += 1
        if len(path) == 2 * max_half_length:
            return
        for nxt in w.adjacency[path[-1]]:
            if nxt not in on_path:
                extend(path + [nxt], on_path | {nxt})

    for start in range(len(w)):
        extend([start], {start})
    assert count % 2 == 0
    return count // 2


def oracle_witness(group, word, node_cap=10 ** 5):
    """The conjugacy search least_conjugate replaced: BFS over generator
    conjugations, kept to length <= 2 |word| + 2, returning (w, u letters,
    walk vertices)."""
    letters = group.parse_word(word)
    g = group.evaluate(letters)
    bound = 2 * sum(abs(exp) for _, exp in letters) + 2
    seen = {g: ()}  # conjugate -> conjugator letters u
    queue = [g]
    for cur in queue:
        assert len(seen) <= node_cap
        for label in group.labels:
            for exp in (1, -1):
                s = group.gen(label, exp)
                conj = group.mul(group.mul(group.inv(s), cur), s)
                if conj not in seen and group.length(conj) <= bound:
                    seen[conj] = seen[cur] + ((label, exp),)
                    queue.append(conj)
    best = min(seen, key=group.canonical_key)
    prefixes = [group.identity()]
    for label, exp in group.geodesic(best):
        prefixes.append(group.mul(prefixes[-1], group.gen(label, exp)))
    n = len(prefixes) - 1
    vertices = prefixes + [group.mul(best, p) for p in prefixes[1:n]]
    return best, seen[best], tuple(vertices)


def element_adjacency(group, ball):
    """The element-keyed graph a ball once carried, built apart from the
    ball search: each member -> its neighbors in the ball, in step order."""
    return {g: tuple(h for h in group.neighbors(g) if h in ball.index)
            for g in ball.members}


def position_adjacency(members, adjacency):
    """The deleted PathWindow.from_ball: an element-keyed graph on
    ``members`` as tuples of neighbor positions."""
    index = {g: i for i, g in enumerate(members)}
    return tuple(tuple(index[h] for h in adjacency[g]) for g in members)


def oracle_odd_paths(group, radius, max_half_length):
    """The recursive, element-keyed enumeration the position DFS replaced:
    paths of B(1, radius) as tuples of members, in its emission order."""
    ball = group.ball(radius=radius)
    index = {v: i for i, v in enumerate(ball.members)}
    adjacency = element_adjacency(group, ball)
    paths = []

    def extend(path, on_path):
        if len(path) % 2 == 0 and index[path[0]] < index[path[-1]]:
            paths.append(tuple(path))
        if len(path) == 2 * max_half_length:
            return
        for nxt in adjacency[path[-1]]:
            if nxt not in on_path:
                extend(path + [nxt], on_path | {nxt})

    for start in ball.members:
        extend([start], {start})
    return paths


def oracle_fitting_pairs(group, positions, inside, s, t_set):
    """The element-keyed fitting pairs the position version replaced: for
    each g in ``positions`` whose g T and g s T lie in ``inside``, yields
    g and the pairs (g t, g s t) over t in ``t_set``."""
    shifted = [(t, group.mul(s, t)) for t in t_set]
    for g in positions:
        pairs = []
        for t, st_ in shifted:
            u = group.mul(g, t)
            v = group.mul(g, st_)
            if u not in inside or v not in inside:
                break
            pairs.append((u, v))
        else:
            yield g, tuple(pairs)


def oracle_distinct_check(x, tsets):
    """(checked, violations) of x by the element-keyed oracle pairs."""
    checked, violations = 0, []
    for n in range(1, tsets.levels + 1):
        s, t_set = tsets.level(n)
        for g, pairs in oracle_fitting_pairs(x.group, x.window.members,
                                             x, s, t_set):
            checked += 1
            if all(x[u] == x[v] for u, v in pairs):
                violations.append((n, g))
    return checked, violations


def oracle_position_fitting_pairs(group, window, s, t_set):
    """The replaced ``fitting_pairs``: every g t and g s t through
    ``group.mul`` and a lookup in the window's index."""
    mul, index = group.mul, window.index
    shifted = [(t, mul(s, t)) for t in t_set]
    for g, i in index.items():
        pairs = []
        for t, st_ in shifted:
            u = index.get(mul(g, t))
            v = index.get(mul(g, st_))
            if u is None or v is None:
                break
            pairs.append((u, v))
        else:
            yield i, tuple(pairs)


def flattened(fitting):
    """The oracles' ``(key, pairs)`` items with each pairs tuple flattened
    to the row (g t_1, g s t_1, g t_2, ...) that ``fitting_pairs`` yields."""
    return [(key, tuple(chain.from_iterable(pairs))) for key, pairs in fitting]


fitting_windows = st.tuples(
    st.sampled_from(["z", "z^2", "free:2", "z2*z3", "heisenberg"]),
    st.integers(0, 4), st.sampled_from([2, 3]), st.integers(1, 2))

#: Radii up to 10, less where the ball would take long to search.
WIDEST_RADIUS = {"z": 10, "z^2": 10, "free:2": 6, "z2*z3": 10,
                 "heisenberg": 10}


@st.composite
def centered_fitting_windows(draw):
    """(group, window, C, levels): a ball of radius up to 10 about a
    center drawn from B(1, 3), often not the identity."""
    spec = draw(st.sampled_from(sorted(WIDEST_RADIUS)))
    group = parse_group_spec(spec)
    near = group.ball(radius=3).members
    center = near[draw(st.integers(0, len(near) - 1))]
    radius = draw(st.integers(0, WIDEST_RADIUS[spec]))
    return (group, group.ball(center=center, radius=radius),
            draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 2)))


def graph_window(edges):
    """The window of a hand-made connected graph: members in BFS order
    from the first vertex listed, neighbors in the order of the edges."""
    nbrs: dict = {}
    for a, b in edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    found = list(bfs(edges[0][0], nbrs.__getitem__))
    members = tuple(v for v, _ in found)
    radius = found[-1][1]
    return Ball(center=members[0], radius=radius, members=members,
                sizes=tuple(sum(d <= r for _, d in found)
                            for r in range(radius + 1)),
                index={v: i for i, v in enumerate(members)},
                adjacency=position_adjacency(members, nbrs))


def on_members(w, path):
    """A path of window positions as the members it visits."""
    return tuple(w.members[i] for i in path)


def on_positions(w, coloring):
    """A coloring of members as a coloring of window positions."""
    return {i: coloring[g] for i, g in enumerate(w.members)}


class TestTSets:
    def test_fields_are_read_only(self):
        tsets = build_t_sets(IntegerLattice(1), c=2, i_max=1)
        with pytest.raises(AttributeError):
            tsets.c = 3
        assert tsets == build_t_sets(IntegerLattice(1), c=2, i_max=1)

    def test_greedy_trace_on_z(self):
        z = IntegerLattice(1)
        tsets = build_t_sets(z, c=2, i_max=1)
        s, t = tsets.level(1)
        assert s == (1,)
        assert set(t) == {(0,), (2,)}

    def test_invariants_reverified(self):
        z2 = IntegerLattice(2)
        tsets = build_t_sets(z2, c=17, i_max=1)
        _, t = tsets.level(1)
        assert len(t) == 17
        check_t_sets(z2, tsets)

    def test_multi_level_sizes(self):
        f = FreeGroup(2)
        tsets = build_t_sets(f, c=3, i_max=3)
        for i in range(1, 4):
            _, t = tsets.level(i)
            assert len(t) == 3 * i
        check_t_sets(f, tsets)

    def test_exhaustion_error(self):
        z = IntegerLattice(1)
        with pytest.raises(ResourceLimitError):
            build_t_sets(z, c=10, i_max=1, scan_cap=5)


class TestTwoColoringInstance:
    @pytest.mark.parametrize("spec", ["z^2", "free:2", "z2*z3"])
    def test_events_are_the_fitting_set(self, spec):
        # Oracle by set arithmetic: (n, g) fits when g T_n and
        # (g s_n) T_n both lie in the window.
        group = parse_group_spec(spec)
        radius = 4
        tsets = build_t_sets(group, c=2, i_max=2)
        members = group.ball(radius=radius).members
        window = set(members)
        expected = set()
        for n in (1, 2):
            s, t_set = tsets.level(n)
            for i, g in enumerate(members):
                gs = group.mul(g, s)
                cover = ({group.mul(g, t) for t in t_set}
                         | {group.mul(gs, t) for t in t_set})
                if cover <= window:
                    expected.add((n, i))
        assert 0 < len(expected) < 2 * len(members)
        inst = build_2coloring_instance(group, group.ball(radius=radius),
                                        tsets)
        ids = [e.id for e in inst.events]
        assert len(ids) == len(expected)
        assert set(ids) == expected
        report = verify_distinct_neighborhood(
            constant_window(group, radius), tsets)
        assert report.checked == len(expected)

    def test_probability_and_weight(self):
        # Level n: P = 2^(-17 n) and w = 2^(-17 n / 2), so w w = P.
        z2 = IntegerLattice(2)
        tsets = build_t_sets(z2, c=17, i_max=2)
        inst = build_2coloring_instance(z2, z2.ball(radius=8), tsets)
        assert {e.id[0] for e in inst.events} == {1, 2}
        for e in inst.events:
            n = e.id[0]
            assert e.probability == Quad.of(Fraction(1, 2 ** (17 * n)))
            assert e.weight * sqrt2_power(17 * n) == Quad.of(1)
            assert e.weight * e.weight == e.probability

    def test_each_level_shares_one_probability_and_weight(self):
        # verify_condition's class lookup and the instance writer rely on
        # this sharing: compare the objects, not their values.
        z2 = IntegerLattice(2)
        tsets = build_t_sets(z2, c=2, i_max=3)
        inst = build_2coloring_instance(z2, z2.ball(radius=6), tsets)
        shared = {}
        for e in inst.events:
            shared.setdefault(e.id[0], set()).add(
                (id(e.probability), id(e.weight)))
        assert sorted(shared) == [1, 2, 3]
        assert all(len(objects) == 1 for objects in shared.values())

    def test_probability_audit(self):
        z = IntegerLattice(1)
        tsets = build_t_sets(z, c=3, i_max=2)
        inst = build_2coloring_instance(z, z.ball(radius=12), tsets)
        levels = {e.id[0] for e in inst.events}
        assert levels == {1, 2}
        for e in inst.events:
            assert audit_event_probability(inst, e) == e.probability.a

    def test_dependency_bound(self):
        # Shared-support neighbor counts per level stay under 4*C^2*n*m.
        z = IntegerLattice(1)
        c = 3
        tsets = build_t_sets(z, c=c, i_max=2)
        inst = build_2coloring_instance(z, z.ball(radius=12), tsets)
        supports = [set(e.support) for e in inst.events]
        for i, e in enumerate(inst.events):
            for m in (1, 2):
                n = e.id[0]
                actual = sum(
                    1 for j, other in enumerate(inst.events)
                    if j != i and other.id[0] == m
                    and supports[i] & supports[j]
                )
                assert actual <= 4 * c * c * n * m

    def test_constant_window_violates_everywhere(self):
        z2 = IntegerLattice(2)
        tsets = build_t_sets(z2, c=3, i_max=1)
        x = constant_window(z2, 6)
        report = verify_distinct_neighborhood(x, tsets)
        assert report.checked > 0
        assert len(report.violations) == report.checked

    @given(first_pair_cases(lambda k: 1))
    def test_row_check_matches_its_full_tuple_oracle(self, case):
        # A row of any length, odd ones too, fed to the check in place of
        # the rows of fitting_pairs.
        row, colors = case
        window = IntegerLattice(1).ball(radius=5)  # 11 positions
        x = WindowConfig(group=IntegerLattice(1), window=window,
                         colors=(*colors, 0), alphabet_size=4)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aperiodic, "fitting_pairs",
                          lambda *_: iter([(1, 3, row)]))
            report = verify_distinct_neighborhood(x, None)
        assert report.checked == 1
        expected = oracle_interleaved(row, x.colors)
        assert report.violations == ([(1, window.members[3])] if expected
                                     else [])

    def test_tiny_window_checks_nothing(self):
        z2 = IntegerLattice(2)
        tsets = build_t_sets(z2, c=17, i_max=1)
        x = constant_window(z2, 0)
        report = verify_distinct_neighborhood(x, tsets)
        assert report.checked == 0
        assert report.ok

    def test_pipeline_small(self):
        z2 = IntegerLattice(2)
        tsets = build_t_sets(z2, c=17, i_max=1)
        window = z2.ball(radius=8)
        inst = build_2coloring_instance(z2, window, tsets)
        assert inst.events
        assert verify_condition(inst).holds
        run = resample(inst, seed=0)
        x = WindowConfig(group=z2, window=window,
                         colors=tuple(run.assignment),
                         alphabet_size=2)
        assert verify_distinct_neighborhood(x, tsets).ok


class TestFittingPairsOnPositions:
    @settings(max_examples=60, deadline=None)
    @given(centered_fitting_windows())
    def test_pairs_and_ids_map_to_element_oracle(self, case):
        group, window, c, levels = case
        tsets = build_t_sets(group, c, levels)
        members = window.members
        rows = list(fitting_pairs(group, window, tsets))
        expected_ids, expected_supports = [], []
        for n in range(1, levels + 1):
            s, t_set = tsets.level(n)
            expected = list(oracle_fitting_pairs(group, members, window, s,
                                                 t_set))
            rows_at = [(i, row) for m, i, row in rows if m == n]
            assert rows_at == flattened(
                oracle_position_fitting_pairs(group, window, s, t_set))
            got = [(members[i], tuple(members[p] for p in row))
                   for i, row in rows_at]
            assert got == flattened(expected)
            expected_ids += [(n, members.index(g)) for g, _ in expected]
            expected_supports += [
                tuple(dict.fromkeys(h for pair in pairs for h in pair))
                for _, pairs in expected]
        assert [(n, i) for n, i, _ in rows] == expected_ids
        inst = build_2coloring_instance(group, window, tsets)
        assert inst.alphabet == (2,) * len(members)
        assert [e.id for e in inst.events] == expected_ids
        assert [tuple(members[i] for i in e.support)
                for e in inst.events] == expected_supports
        # g T_n and g s_n T_n are disjoint: 2 C n positions, none repeated,
        # so the builder needs no deduplication.
        for e in inst.events:
            assert len(e.support) == len(set(e.support)) == 2 * c * e.id[0]

    @settings(max_examples=40, deadline=None)
    @given(centered_fitting_windows(), st.integers(1, 3))
    def test_all_levels_are_the_oracle_rows_tagged_by_level(self, case,
                                                            levels):
        # One prefix table serves every level: a column shared with an
        # earlier level must still give this level's rows.
        group, window, c, _ = case
        tsets = build_t_sets(group, c, levels)
        assert list(fitting_pairs(group, window, tsets)) == [
            (n, i, row) for n in range(1, levels + 1)
            for i, row in flattened(oracle_position_fitting_pairs(
                group, window, *tsets.level(n)))]

    def test_off_centre_window_matches_oracle_per_level(self):
        z2 = IntegerLattice(2)
        window = z2.ball(center=z2.canonicalize("x^3 y^-2"), radius=30)
        tsets = build_t_sets(z2, 17, 3)
        rows = list(fitting_pairs(z2, window, tsets))
        assert rows == [
            (n, i, row) for n in (1, 2, 3)
            for i, row in flattened(oracle_position_fitting_pairs(
                z2, window, *tsets.level(n)))]
        assert {n for n, _, _ in rows} == {1, 2, 3}  # each level fits

    def test_empty_test_set_fits_everywhere(self):
        z2 = IntegerLattice(2)
        window = z2.ball(radius=3)
        tsets = TSets(c=1, entries=(((1, 0), ()),))
        assert list(fitting_pairs(z2, window, tsets)) == [
            (1, i, ()) for i in range(len(window))]

    @settings(max_examples=60, deadline=None)
    @given(fitting_windows, st.sampled_from([0.0, 0.5, 0.9]),
           st.integers(0, 2 ** 32))
    def test_random_coloring_check_matches_oracle(self, case, ones, seed):
        spec, radius, c, levels = case
        group = parse_group_spec(spec)
        tsets = build_t_sets(group, c, levels)
        rng = random.Random(seed)
        window = group.ball(radius=radius)
        colors = tuple(int(rng.random() < ones) for _ in window.members)
        x = WindowConfig(group=group, window=window, colors=colors,
                         alphabet_size=2)
        report = verify_distinct_neighborhood(x, tsets)
        assert (report.checked, report.violations) == oracle_distinct_check(
            x, tsets)

    def test_predicate_matches_oracle_check(self):
        # An event is violated exactly when the oracle check flags it.
        z2 = IntegerLattice(2)
        tsets = build_t_sets(z2, c=2, i_max=2)
        window = z2.ball(radius=5)
        inst = build_2coloring_instance(z2, window, tsets)
        rng = random.Random(3)
        for _ in range(20):
            assignment = [rng.randrange(2) for _ in inst.alphabet]
            x = WindowConfig(group=z2, window=window,
                             colors=tuple(assignment),
                             alphabet_size=2)
            flagged = [(n, window.members[i]) for n, i in
                       (e.id for e in inst.events if e.violated(assignment))]
            assert flagged == oracle_distinct_check(x, tsets)[1]


class TestOddPaths:
    def test_single_edge(self):
        w = graph_window([(1, 2)])
        assert [on_members(w, p) for p in enumerate_odd_paths(w, 1)] == [
            (1, 2)]

    def test_path_graph(self):
        w = graph_window([(1, 2), (2, 3), (3, 4)])
        paths = [on_members(w, p) for p in enumerate_odd_paths(w, 2)]
        by_len = {}
        for p in paths:
            by_len.setdefault(len(p) - 1, []).append(p)
        assert len(by_len[1]) == 3
        assert len(by_len[3]) == 1
        assert by_len[3] == [(1, 2, 3, 4)]

    def test_triangle(self):
        # Length-3 simple paths need 4 distinct vertices; none exist here.
        w = graph_window([(1, 2), (2, 3), (3, 1)])
        paths = list(enumerate_odd_paths(w, 2))
        assert sum(1 for p in paths if len(p) == 2) == 3
        assert sum(1 for p in paths if len(p) == 4) == 0

    def test_no_duplicates_up_to_reversal(self):
        w = IntegerLattice(2).ball(radius=2)
        paths = list(enumerate_odd_paths(w, 2))
        seen = set()
        for p in paths:
            assert p not in seen and tuple(reversed(p)) not in seen
            seen.add(p)

    @pytest.mark.parametrize("group,radius,L", [
        (IntegerLattice(1), 4, 3),
        (IntegerLattice(2), 2, 3),
        (FreeGroup(2), 2, 2),
    ])
    def test_count_matches_oracle(self, group, radius, L):
        w = group.ball(radius=radius)
        assert len(w) <= 30
        assert len(list(enumerate_odd_paths(w, L))) == (
            oracle_odd_path_count(w, L)
        )

    # The five group models of tests/test_groups.py::ALL_GROUPS.
    @pytest.mark.parametrize("spec", ["z", "z^2", "free:2", "z2*z3",
                                      "heisenberg"])
    @pytest.mark.parametrize("L", [2, 3])
    def test_positions_map_to_element_enumeration(self, spec, L):
        group = parse_group_spec(spec)
        w = group.ball(radius=3)
        assert w.adjacency == position_adjacency(
            w.members, element_adjacency(group, w))
        assert [on_members(w, p) for p in enumerate_odd_paths(w, L)] == (
            oracle_odd_paths(group, 3, L))

    def test_budget_enforced(self):
        w = IntegerLattice(2).ball(radius=3)
        with pytest.raises(ResourceLimitError):
            list(enumerate_odd_paths(w, 3, budget=10))
        # The exact path count is enough; one less raises on the last path.
        paths = list(enumerate_odd_paths(w, 3))
        exact = len(paths)
        assert list(enumerate_odd_paths(w, 3, budget=exact)) == paths
        emitted = []
        message = f"odd-path budget {exact - 1} exceeded after {exact - 1}"
        with pytest.raises(ResourceLimitError, match=f"^{message}$"):
            for p in enumerate_odd_paths(w, 3, budget=exact - 1):
                emitted.append(p)
        assert emitted == paths[:-1]


class TestVertexSquares:
    def test_monochromatic_edge(self):
        w = graph_window([(1, 2)])
        square = find_vertex_square(on_positions(w, {1: 0, 2: 0}),
                                    enumerate_odd_paths(w, 1))
        assert on_members(w, square) == (1, 2)

    def test_proper_coloring_of_even_cycle(self):
        w = graph_window([(1, 2), (2, 3), (3, 4), (4, 1)])
        coloring = {1: 0, 2: 1, 3: 0, 4: 1}
        assert find_vertex_square(on_positions(w, coloring),
                                  enumerate_odd_paths(w, 1)) is None

    def test_abab_path(self):
        w = graph_window([(1, 2), (2, 3), (3, 4)])
        coloring = {1: 0, 2: 1, 3: 0, 4: 1}
        witness = on_members(
            w, find_vertex_square(on_positions(w, coloring),
                                  enumerate_odd_paths(w, 2)))
        assert witness == (1, 2, 3, 4)
        assert halves(witness, coloring)

    def test_planted_square_maps_to_a_cayley_path(self):
        # Distinct colors except a b a b on (-1,0) (0,0) (1,0) (2,0): the
        # x-axis path is the only square up to reversal.
        z2 = IntegerLattice(2)
        w = z2.ball(radius=3)
        coloring = {g: i for i, g in enumerate(w.members)}
        coloring[(1, 0)] = coloring[(-1, 0)]
        coloring[(2, 0)] = coloring[(0, 0)]
        planted = ((-1, 0), (0, 0), (1, 0), (2, 0))
        square = find_vertex_square(on_positions(w, coloring),
                                    enumerate_odd_paths(w, 3))
        members = on_members(w, square)
        assert members in (planted, planted[::-1])
        assert halves(members, coloring)
        for a, b in zip(members, members[1:]):
            assert z2.length(z2.mul(z2.inv(a), b)) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(ALL_GROUPS), st.integers(2, 3),
           st.integers(0, 2 ** 32))
    def test_halves_rule_agrees_with_the_scan(self, group, alphabet, seed):
        # The scan that certifies a coloring against a full-tuple scan of
        # the same paths.
        w = group.ball(radius=2)
        rng = random.Random(seed)
        coloring = [rng.randrange(alphabet) for _ in w.members]
        paths = list(enumerate_odd_paths(w, 2))
        expected = next((path for path in paths
                         if oracle_vertex_square(coloring, path)), None)
        assert find_vertex_square(coloring, paths) is expected


class TestSquarefreeInstance:
    def test_event_parameters(self):
        f = FreeGroup(2)
        w = f.ball(radius=2)
        inst = build_squarefree_instance(w, 2 ** 21, 2, 2)
        for e in inst.events:
            n = e.id[0]
            assert e.probability == Quad.of(Fraction(1, (2 ** 21) ** n))
            assert e.weight == Quad.of(Fraction(1, 32 ** n))

    def test_condition_holds_on_free_window(self):
        f = FreeGroup(2)
        w = f.ball(radius=2)
        inst = build_squarefree_instance(w, 2 ** 21, 2, 2)
        assert verify_condition(inst).holds

    def test_probability_audit_small_alphabet(self):
        f = FreeGroup(2)
        w = f.ball(radius=1)
        inst = build_squarefree_instance(w, 4, 2, 2)
        for e in inst.events:
            assert audit_event_probability(inst, e) == e.probability.a

    def test_resample_then_independent_scan(self):
        z = IntegerLattice(1)
        w = z.ball(radius=6)
        inst = build_squarefree_instance(w, 64, 2, 1)
        run = resample(inst, seed=0)
        assert find_vertex_square(run.assignment,
                                  enumerate_odd_paths(w, 2)) is None

    def test_instance_holds_each_path_once(self):
        # The paths_nonabelian window: 18,772 events took 13.8 MB when each
        # predicate held its two half-paths besides the path itself, and
        # 9.9 MB when each held its own lambda, defaults and itemgetter.
        w = FreeGroup(2).ball(radius=6)
        tracemalloc.start()
        try:
            inst = build_squarefree_instance(w, 16, 3, 2)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(inst.events) == 18772
        assert size <= 8 * 10 ** 6

    def test_build_keeps_the_callers_frozen_objects(self):
        # The build neither freezes nor unfreezes: gc.unfreeze would
        # release the caller's frozen objects too.
        w = FreeGroup(2).ball(radius=2)
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            inst = build_squarefree_instance(w, 16, 3, 2)
            state = gc.isenabled(), gc.get_freeze_count()
        finally:
            gc.unfreeze()
        assert inst.events
        assert state == (True, frozen)

    def test_budget_overrun_restores_the_collector(self):
        w = FreeGroup(2).ball(radius=3)
        for collecting in (True, False):
            (gc.enable if collecting else gc.disable)()
            try:
                with pytest.raises(ResourceLimitError):
                    build_squarefree_instance(w, 16, 3, 2, budget=10)
                assert gc.isenabled() is collecting
                assert gc.get_freeze_count() == 0
            finally:
                gc.enable()

    def test_path_dependency_bound(self):
        s = 2
        w = FreeGroup(s).ball(radius=2)
        counts = path_dependency_counts(w, 2)
        paths = list(enumerate_odd_paths(w, 2))
        for path, row in zip(paths, counts):
            n = len(path) // 2
            for j, actual in row.items():
                assert actual <= 4 * n * j * (2 * s) ** (2 * j)


class TestBuildersPassTheInstanceChecks:
    # LLLInstance checks nothing, and only the instance reader checks what
    # it reads; a builder's instance must pass the whole-instance checks.
    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec)
    def test_builders_pass_check_instance(self, group):
        window = group.ball(radius=4)
        tsets = build_t_sets(group, c=2, i_max=2)
        for inst in (build_2coloring_instance(group, window, tsets),
                     build_squarefree_instance(window, 16, 2, 2)):
            assert inst.events
            check_instance(inst)


class TestBuilderPredicates:
    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec)
    def test_rule_is_bound_to_the_events_own_support(self, group):
        # One bound method per event, holding no copy of the support.
        window = group.ball(radius=4)
        tsets = build_t_sets(group, c=2, i_max=2)
        for inst, rule in (
                (build_2coloring_instance(group, window, tsets), interleaved),
                (build_squarefree_instance(window, 16, 2, 2), halves)):
            assert inst.events
            for e in inst.events:
                assert type(e.violated) is MethodType
                assert e.violated.__self__ is e.support
                assert e.violated.__func__ is rule

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec)
    def test_verifiers_compare_by_the_same_rules(self, group, monkeypatch):
        # With both rules replaced by one that always holds, on a window
        # of distinct colours, every fitting row is a violation and the
        # first path is a square.
        def always(support, a):
            return True

        monkeypatch.setattr(aperiodic, "interleaved", always)
        monkeypatch.setattr(aperiodic, "halves", always)
        window = group.ball(radius=4)
        colors = tuple(range(len(window)))
        tsets = build_t_sets(group, c=2, i_max=2)
        report = verify_distinct_neighborhood(
            WindowConfig(group=group, window=window, colors=colors,
                         alphabet_size=len(window)), tsets)
        rows = [(n, window.members[i])
                for n, i, _ in fitting_pairs(group, window, tsets)]
        assert rows
        assert report.violations == rows
        paths = list(enumerate_odd_paths(window, 2))
        assert find_vertex_square(colors, paths) is paths[0]


class TestWitnessPath:
    def test_identity_is_trivial(self):
        assert witness_path(IntegerLattice(2), "").trivial
        assert witness_path(FreeGroup(2), "a a^-1").trivial

    def test_lattice_square_step(self):
        z2 = IntegerLattice(2)
        result = witness_path(z2, "x x")
        assert not result.trivial
        assert result.vertices == ((0, 0), (1, 0), (2, 0), (3, 0))

    def test_free_group_conjugate(self):
        f = FreeGroup(2)
        result = witness_path(f, "a b a^-1")
        assert result.word == (("b", 1),)
        assert result.conjugator == (("a", 1),)
        assert result.vertices == ((), f.canonicalize("b"))

    def test_conjugation_identity(self):
        f = FreeGroup(2)
        for word in ["a b a^-1", "b a b b", "a^2 b^-1"]:
            g = f.canonicalize(word)
            result = witness_path(f, word)
            u = f.evaluate(list(result.conjugator))
            w = f.evaluate(list(result.word))
            # The conjugator satisfies w = u^-1 g u, i.e. g = u w u^-1.
            assert f.mul(f.mul(f.inv(u), g), u) == w

    @pytest.mark.parametrize("spec, radius", [
        ("z", 6), ("z^2", 6), ("heisenberg", 6), ("free:2", 5), ("z2*z3", 8),
    ])
    def test_matches_conjugacy_search(self, spec, radius):
        group = parse_group_spec(spec)
        for g in group.ball(radius=radius).members[1:]:
            word = group.element_word(g)
            best, u_letters, vertices = oracle_witness(group, word)
            result = witness_path(group, word)
            assert group.evaluate(list(result.word)) == best
            assert result.vertices == vertices
            u = group.evaluate(list(result.conjugator))
            assert group.mul(group.mul(u, best), group.inv(u)) == g
            if spec == "heisenberg":  # x^m y^n with |m| + |n| least
                assert group.length(u) <= len(u_letters)

    def test_length_bound_counts_letters_not_runs(self):
        # x^4 z^40 reaches x^4 only through conjugates longer than 6, the
        # bound 2 * 2 + 2 that counting its 2 runs, not its 44 letters, gives.
        result = witness_path(DiscreteHeisenberg(), "x^4 z^40")
        assert result.word == (("x", 1),) * 4

    @pytest.mark.parametrize("group", [IntegerLattice(2), FreeGroup(2)])
    def test_simple_paths_up_to_length3(self, group):
        for g in group.ball(radius=3).members:
            if g == group.identity():
                continue
            result = witness_path(group, group.element_word(g))
            assert not result.trivial
            assert len(set(result.vertices)) == len(result.vertices)
            assert len(result.vertices) == 2 * len(result.word)

    @pytest.mark.parametrize("group, word, length", [
        (FreeGroup(2), "a^20000 b", 20001),
        (FreeGroup(2), f"b^7 a^{WITNESS_LENGTH_LIMIT + 1} b^-7",
         WITNESS_LENGTH_LIMIT + 1),
        (IntegerLattice(2), "x^1000000000", 1000000000),
    ])
    def test_long_least_conjugate_is_refused(self, group, word, length):
        # Refused from |w| before the walk of 2|w| vertices is built.
        with pytest.raises(ResourceLimitError, match=(
                f"least conjugate of length {length} is above the "
                f"witness limit of {WITNESS_LENGTH_LIMIT}")):
            witness_path(group, word)

    def test_longest_least_conjugate_is_walked(self):
        f = FreeGroup(2)
        # g = b^-3 (a^(L-1) b) b^3: w = a^(L-1) b, u = b^-3.
        result = witness_path(f, f"b^-3 a^{WITNESS_LENGTH_LIMIT - 1} b^4")
        assert result.conjugator == (("b", -1),) * 3
        assert len(result.word) == WITNESS_LENGTH_LIMIT
        assert len(result.vertices) == 2 * WITNESS_LENGTH_LIMIT

    def test_periodic_window_yields_vertex_square(self):
        # A coloring invariant under h makes h's witness path a square.
        z2 = IntegerLattice(2)
        result = witness_path(z2, "x x")
        coloring = {v: v[0] % 2 for v in result.vertices}
        assert halves(result.vertices, coloring)
