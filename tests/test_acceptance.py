"""Acceptance criteria, one test per criterion, one printed line each.

Every tolerance is exact (integer comparisons); the stated time budgets
are asserted as hard caps.
"""

import time

import networkx as nx

from avdcolor import (Graph, avd_color, avd_color_budget,
                      avd_color_regular, avd_subcubic, check_avd, check_proper,
                      check_membership, exact_chi_a, exact_chromatic_index,
                      complete, cycle, find_move, gnp, initial_selection,
                      is_normal,
                      main_bound, misra_gries, partition_p1, partition_p2,
                      partition_regular, random_regular, regular_bound)
from avdcolor.coloring import _lower_bound
from helpers import normal_gnp_corpus
from smallgraphs import connected_subcubic_levels


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _corpus_main():
    return normal_gnp_corpus(200, 8000, 8, 60, 4, 12)


def _corpus_high():
    return normal_gnp_corpus(100, 7000, 10, 45, 6, 12, p_lo=0.18, p_hi=0.6)


def test_criterion_1_main_bound():
    t0 = time.time()
    for g in _corpus_main():
        cert = avd_color(g)
        assert cert.colors_used <= main_bound(g.max_degree)
        assert check_proper(g, cert.coloring) == (True, None)
        assert check_avd(g, cert.coloring) == (True, None)
    elapsed = time.time() - t0
    _report(1, elapsed < 60,
            f"200 graphs within floor(5(D+2)/2), checked, {elapsed:.1f}s")


def test_criterion_2_partition_conditions():
    t0 = time.time()
    for g in _corpus_high():
        part = partition_p1(g)  # CounterexampleFound would fail the test
        h, hbar = part.part_graphs()
        delta = g.max_degree
        assert h.max_degree <= 3
        assert hbar.max_degree <= delta - 2
        assert is_normal(h) and is_normal(hbar)
        assert not (part.parts[0] & part.parts[1])
        assert part.parts[0] | part.parts[1] == g.edges
    elapsed = time.time() - t0
    _report(2, elapsed < 30,
            f"100 partitions, zero closure exhaustions, {elapsed:.1f}s")


def test_criterion_3_recursion_count():
    for g in _corpus_main():
        delta = g.max_degree
        part = partition_p2(g)
        if delta >= 6:
            assert part.k <= delta // 2 - 2
        else:
            assert part.k == 0
        graphs = part.part_graphs()
        assert graphs[0].max_degree <= 5
        assert all(p.max_degree <= 3 for p in graphs[1:])
        assert all(is_normal(p) for p in graphs)
    _report(3, True, "k and per-part degree bounds hold on the main corpus")


def _lemma_case_caps(r: int) -> list[int]:
    if r % 3 == 2:
        return [3] * ((r + 1) // 3)
    if r % 3 == 1:
        return [4, 4] + [3] * ((r - 1) // 3 - 2)
    return [4] + [3] * (r // 3 - 1)


def test_criterion_4_regular_bound():
    t0 = time.time()
    for r in (5, 6, 7, 8, 9):
        for n in (12, 26, 40):
            if (n * r) % 2:
                n += 1
            g = random_regular(n, r, seed=1000 * r + n)
            caps = _lemma_case_caps(r)
            part = partition_regular(g)
            assert len(part) == len(caps)
            for sub, cap in zip(part.part_graphs(), caps):
                assert sub.max_degree <= cap
                assert is_normal(sub)
            cert = avd_color_regular(g)
            assert cert.colors_used <= regular_bound(r)
            assert check_avd(g, cert.coloring) == (True, None)
    elapsed = time.time() - t0
    _report(4, elapsed < 120,
            f"r in 5..9 within floor((5r+37)/3), case table exact, {elapsed:.1f}s")


def test_criterion_5_subcubic_bound():
    t0 = time.time()
    levels = connected_subcubic_levels(9)
    total = 0
    for n in range(3, 10):  # connected graphs on >= 3 vertices are normal
        for edges in levels[n]:
            g = Graph(n, edges)
            assert is_normal(g)
            cert = avd_subcubic(g)
            assert cert.colors_used <= 5
            assert check_avd(g, cert.coloring) == (True, None)
            total += 1
    elapsed = time.time() - t0
    _report(5, elapsed < 120,
            f"{total} connected normal subcubic graphs <= 5 colors, {elapsed:.1f}s")


def _small_normal_graphs(min_count: int):
    out = []
    for atlas in nx.graph_atlas_g()[1:]:
        n = atlas.number_of_nodes()
        m = atlas.number_of_edges()
        if not m or m > 10:
            continue
        g = Graph(n, [tuple(sorted(e)) for e in atlas.edges()])
        if is_normal(g):
            out.append(g)
    seed = 12000
    while len(out) < min_count:
        g = gnp(8, 0.25, seed)
        seed += 1
        if is_normal(g) and 0 < g.edge_count <= 10:
            out.append(g)
    return out


def test_criterion_6_oracle_equivalence():
    t0 = time.time()
    graphs = _small_normal_graphs(500)
    assert len(graphs) >= 500
    for g in graphs:
        exact = exact_chi_a(g)
        smallest = next(b for b in range(g.max_degree, g.edge_count + 1)
                        if avd_color_budget(g, b) is not None)
        assert smallest == exact, (sorted(g.edges), smallest, exact)
        lb = _lower_bound(g)
        assert lb <= exact
        if lb > g.max_degree:
            assert avd_color_budget(g, g.max_degree) is None
    assert exact_chi_a(Graph(3, [(0, 1), (1, 2)])) == 2
    assert exact_chi_a(cycle(5)) == 5
    assert exact_chi_a(complete(4)) == 5
    elapsed = time.time() - t0
    _report(6, elapsed < 300,
            f"{len(graphs)} graphs: smallest budget == exact chi'_a, {elapsed:.1f}s")


def test_criterion_7_potential_monotonicity():
    runs = 0
    for g in normal_gnp_corpus(100, 40000, 10, 36, 6, 12, p_lo=0.2, p_hi=0.7):
        sel = initial_selection(g)
        pot = sel.potential()
        while pot[0]:
            find_move(g, sel)
            assert not check_membership(g, sel)
            assert sel.potential() < pot
            pot = sel.potential()
        runs += 1
    _report(7, runs == 100,
            f"{runs} instrumented runs strictly decreasing, members throughout")


def test_criterion_8_vizing():
    rng_graphs = []
    seed = 20000
    while len(rng_graphs) < 500:
        import random
        r = random.Random(seed)
        g = gnp(r.randint(2, 40), r.uniform(0.05, 0.9), seed)
        seed += 1
        if g.edge_count:
            rng_graphs.append(g)
    for g in rng_graphs:
        coloring = misra_gries(g)
        assert check_proper(g, coloring) == (True, None)
        assert coloring.colors_used <= g.max_degree + 1
    small = [g for g in rng_graphs if g.edge_count <= 16][:60]
    for g in small:
        chi = exact_chromatic_index(g)
        assert chi in (g.max_degree, g.max_degree + 1)
    _report(8, True,
            f"500 colorings proper within Delta+1; {len(small)} exact indices")


def test_criterion_9_crossover_remark():
    for r in range(14, 101):
        assert (5 * r + 37) // 3 <= (5 * (r + 2)) // 2
    _report(9, True, "regular bound below the general bound for r in [14, 100]")
