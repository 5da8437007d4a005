"""End-to-end acceptance checks.

Each test evaluates one numbered criterion and prints a single
"criterion N ... PASS/FAIL" line (visible under pytest -s or in captured
output on failure) before asserting.
"""

import json
import random
import time
from fractions import Fraction

from groupshift import cli
from groupshift.aperiodic import (
    build_2coloring_instance,
    build_squarefree_instance,
    build_t_sets,
    enumerate_odd_paths,
    find_vertex_square,
    verify_distinct_neighborhood,
    witness_path,
)
from groupshift.density import (
    build_forest,
    fill_density,
    sturmian,
    verify_condition1,
    Slope,
)
from groupshift.groups import FreeGroup, IntegerLattice, bfs
from groupshift.lll import (
    aperiodic_constant_scan,
    check_aperiodic_constant,
    geometric_derivative_partial,
    resample,
    squarefree_alphabet_bound,
    verify_condition,
)
from groupshift.patterns import WindowConfig
from oracles import (distance, greedy_rnet, make_pattern,
                     path_dependency_counts, pattern_occurrences)


def report(num: int, label: str, ok: bool, elapsed: float, limit: float):
    in_time = elapsed <= limit
    verdict = "PASS" if ok and in_time else "FAIL"
    print(f"criterion {num} [{label}]: {verdict} ({elapsed:.2f}s)")
    assert ok, f"criterion {num} failed"
    assert in_time, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_constant():
    start = time.time()
    ok = aperiodic_constant_scan(32) == 17 and not check_aperiodic_constant(16)
    report(1, "least admissible constant is 17", ok, time.time() - start, 1)


def test_criterion_2_alphabet_bound():
    start = time.time()
    ok = (squarefree_alphabet_bound(1) == 524288
          and abs(geometric_derivative_partial(60) - 2) <= Fraction(1, 2 ** 50))
    report(2, "alphabet bound 2^19 and series limit", ok,
           time.time() - start, 1)


def test_criterion_3_verifier_and_sampler():
    start = time.time()
    z2 = IntegerLattice(2)
    tsets = build_t_sets(z2, c=17, i_max=2)
    window = z2.ball(radius=20)
    inst = build_2coloring_instance(z2, window, tsets)
    verdict = verify_condition(inst)
    margins_ok = verdict.holds and all(
        m.sign() >= 0 for m in verdict.margins.values()
    )
    run = resample(inst, seed=0, cap=10 ** 4)
    colors = tuple(run.assignment[i] for i in range(len(window)))
    x = WindowConfig(group=z2, window=window, colors=colors, alphabet_size=2)
    rep = verify_distinct_neighborhood(x, tsets)
    ok = margins_ok and rep.checked >= 100 and not rep.violations
    report(3, "2-coloring condition + resample + distinct neighborhoods",
           ok, time.time() - start, 60)


def test_criterion_4_squarefree():
    start = time.time()
    f2 = FreeGroup(2)
    w = f2.ball(radius=3)
    inst = build_squarefree_instance(w, 2 ** 21, 3, 2)
    run = resample(inst, seed=0)
    no_square = find_vertex_square(run.assignment,
                                   enumerate_odd_paths(w, 3)) is None
    bounds_ok = True
    paths = list(enumerate_odd_paths(w, 3))
    for path, row in zip(paths, path_dependency_counts(w, 3)):
        n = len(path) // 2
        for j, actual in row.items():
            if actual > 4 * n * j * (2 * 2) ** (2 * j):
                bounds_ok = False
    report(4, "square-free coloring + dependency bounds",
           no_square and bounds_ok, time.time() - start, 60)


def test_criterion_5_witness_paths():
    start = time.time()
    ok = True
    for group in (FreeGroup(2), IntegerLattice(2)):
        for g in group.ball(radius=4).members:
            if g == group.identity():
                continue
            result = witness_path(group, group.element_word(g))
            if result.trivial or len(set(result.vertices)) != len(
                    result.vertices):
                ok = False
    report(5, "witness paths simple for all words of length <= 4",
           ok, time.time() - start, 30)


def test_criterion_6_cluster_sandwich():
    start = time.time()
    ok = True
    for group, radius in ((IntegerLattice(2), 40), (FreeGroup(2), 6)):
        forest = build_forest(group, group.ball(radius=radius), 2)
        members = forest.window.members
        for n in (1, 2):
            interior = forest.interior_centers(n)
            if not interior:
                ok = False
            outer = (5 ** n - 1) // 2
            for g in interior:
                center = members[g]
                cluster = {members[h] for h in forest.cluster(n, g)}
                inner = set(group.ball(center=center, radius=n).members)
                if not inner <= cluster:
                    ok = False
                if any(distance(group, center, h) > outer for h in cluster):
                    ok = False
    report(6, "cluster sandwich B(g,n) in C_n(g) in B(g,(5^n-1)/2)",
           ok, time.time() - start, 60)


def test_criterion_7_condition1_and_aggregate():
    start = time.time()
    z2 = IntegerLattice(2)
    forest = build_forest(z2, z2.ball(radius=30), 2)
    alpha = Slope.parse("377/610")
    x = fill_density(forest, alpha)
    rep = verify_condition1(x, forest, alpha)
    level2 = [a for a in rep.aggregates if a.level == 2]
    ok = (rep.clusters and all(c.ok for c in rep.clusters)
          and len(level2) == 1
          and level2[0].bound <= Fraction(1, 13)
          and abs(level2[0].dens - alpha.value) <= level2[0].bound)
    report(7, "condition (1) per cluster + aggregate within 1/13",
           ok, time.time() - start, 60)


def test_criterion_8_sturmian_balance():
    start = time.time()
    ok = True
    for alpha in (Fraction(2, 5), Fraction(1, 2), Fraction(377, 610)):
        bits = sturmian(alpha, alpha.denominator + 400)
        prefix = [0]
        for b in bits:
            prefix.append(prefix[-1] + b)
        for length in range(1, 201):
            sums = [prefix[i + length] - prefix[i]
                    for i in range(len(bits) - length + 1)]
            if max(sums) - min(sums) > 1:
                ok = False
    report(8, "Sturmian balance up to window length 200",
           ok, time.time() - start, 10)


def test_criterion_9_oracle_equivalences():
    start = time.time()
    ok = True

    z2 = IntegerLattice(2)
    window = z2.ball(radius=9)
    assert len(window) <= 200
    adjacency = {g: tuple(h for h in z2.neighbors(g) if h in window)
                 for g in window.members}
    for r in (2, 3):
        net = greedy_rnet(window.members, adjacency, r)
        reach = {p: dict(bfs(p, adjacency.__getitem__, r)) for p in net}
        if any(q in reach[p] for p in net for q in net if p != q):
            ok = False  # not r-separating
        covered = set().union(*reach.values())
        if not set(window.members) <= covered:
            ok = False  # not maximal: some point could still be added

    rng = random.Random(2024)
    window = z2.ball(radius=5)
    colors = tuple(rng.randrange(2) for _ in window.members)
    x = WindowConfig(group=z2, window=window, colors=colors, alphabet_size=2)
    support = rng.sample(z2.ball(radius=1).members, 3)
    p = make_pattern(z2, {g: rng.randrange(2) for g in support})
    naive = []
    for g in x.window.members:
        hits = [z2.mul(g, h) for h in p.support]
        if all(gh in x for gh in hits) and all(
                x[gh] == a for gh, a in zip(hits, p.symbols)):
            naive.append(g)
    if pattern_occurrences(x, p) != naive:
        ok = False

    def directed_recount(w, L):
        count = 0

        def extend(path, on_path):
            nonlocal count
            if len(path) % 2 == 0:
                count += 1
            if len(path) < 2 * L:
                for nxt in w.adjacency[path[-1]]:
                    if nxt not in on_path:
                        extend(path + [nxt], on_path | {nxt})

        for v in range(len(w)):
            extend([v], {v})
        return count // 2

    for group, radius, L in ((IntegerLattice(2), 2, 3), (FreeGroup(2), 2, 2)):
        w = group.ball(radius=radius)
        assert len(w) <= 30
        if len(list(enumerate_odd_paths(w, L))) != directed_recount(w, L):
            ok = False

    report(9, "greedy net / occurrences / odd-path oracles agree",
           ok, time.time() - start, 30)


def test_criterion_10_determinism(tmp_path, capsys):
    start = time.time()
    ok = True
    commands = {
        "color": lambda out: [
            "color", "two", "--group", "z^2", "--radius", "10",
            "--c", "17", "--levels", "1", "--seed", "0", "--out", str(out),
        ],
        "fill": lambda out: [
            "density", "fill", "--group", "z^2", "--radius", "12",
            "--levels", "2", "--alpha", "377/610", "--out", str(out),
        ],
    }
    for name, build in commands.items():
        hashes = []
        for tag in ("a", "b"):
            d = tmp_path / f"{name}-{tag}"
            d.mkdir()
            out = d / "out.json"
            if cli.dispatch(build(out)) != 0:
                ok = False
            manifest = json.loads(
                (d / "out.json.manifest.json").read_text()
            )
            hashes.append(sorted(manifest["outputs"].values()))
        if hashes[0] != hashes[1]:
            ok = False
    capsys.readouterr()
    report(10, "same seed reproduces byte-identical artifacts",
           ok, time.time() - start, 60)
