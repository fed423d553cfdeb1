import random

import pytest
from hypothesis import given, settings, strategies as st

from avdcolor import (EdgePartition, Graph, SubgraphSelection, canon_edge,
                      complete, cycle, edge_induced, gnp, is_normal)
from avdcolor.partition import _Level
from helpers import isolated_edges, recompute_selection_state


def test_canon_edge_rejects_loops():
    with pytest.raises(ValueError):
        canon_edge(3, 3)
    assert canon_edge(5, 2) == (2, 5)


def test_graph_basic_invariants():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.degree(1) == 2 and g.degree(0) == 1
    assert g.max_degree == 2 and g.min_degree == 1
    assert g.neighbors(2) == (1, 3)
    assert canon_edge(1, 0) in g.edges and (0, 2) not in g.edges


def test_graph_rejects_duplicates_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


@pytest.mark.parametrize("s, edge", [
    ([(0, 1.0), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)], (0, 1.0)),
    ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5.0, 0)], (0, 5.0)),
    ({(1, 2), (2.0, 3)}, (2.0, 3)),
])
def test_edge_induced_rejects_non_integer_labels(s, edge):
    # (0, 1.0) == (0, 1), so the host-edge test takes such a pair, in a
    # list, a set or either orientation; kept, its float label would end as
    # a vertex or a neighbor that no list index takes.
    with pytest.raises(ValueError) as info:
        edge_induced(cycle(6), s)
    assert str(info.value) == f"edge {edge} has a non-integer label"


def test_is_normal_cases():
    assert not is_normal(Graph(2, [(0, 1)]))          # single edge
    assert is_normal(Graph(3, [(0, 1), (1, 2)]))      # two-edge path
    # disjoint union of an edge and a 5-cycle keeps the isolated edge
    c5 = [(i + 2, (i + 1) % 5 + 2) for i in range(5)]
    assert not is_normal(Graph(7, [(0, 1)] + c5))
    assert not is_normal(Graph(3, [(0, 1)]))          # isolated vertex 2


def test_edge_induced_examples():
    g = complete(4)
    tri = edge_induced(g, [(0, 1), (1, 2), (0, 2)])
    assert tri.vertices == (0, 1, 2)
    assert tri.edge_count == 3 and tri.max_degree == 2
    empty = edge_induced(g, [])
    assert empty.vertices == () and empty.edge_count == 0
    c5 = cycle(5)
    p3 = edge_induced(c5, [(0, 1), (1, 2)])
    assert sorted(map(p3.degree, p3.vertices), reverse=True) == [2, 1, 1]
    with pytest.raises(ValueError):
        edge_induced(c5, [(0, 2)])


def test_selection_complement_involution():
    g = complete(5)
    rng = random.Random(7)
    picked = [e for e in sorted(g.edges) if rng.random() < 0.5]
    sel = SubgraphSelection(g, picked)
    comp = SubgraphSelection(g, g.edges - sel.selected)
    assert comp.selected | sel.selected == g.edges
    assert not comp.selected & sel.selected
    back = SubgraphSelection(g, g.edges - comp.selected)
    assert back.selected == sel.selected
    for v in g.vertices:
        assert sel.deg(v) + sel.codeg(v) == g.degree(v)


def test_selection_degree_split_on_cycle():
    c5 = cycle(5)
    sel = SubgraphSelection(c5, [(0, 1), (2, 3)])
    comp = SubgraphSelection(c5, c5.edges - sel.selected)
    assert len(comp.selected) == 3
    for v in c5.vertices:
        assert sel.deg(v) + comp.deg(v) == 2


def test_selection_incremental_bookkeeping_matches_recompute():
    rng = random.Random(42)
    for seed in range(25):
        g = gnp(rng.randint(4, 16), rng.uniform(0.2, 0.8), seed)
        sel = SubgraphSelection(g)
        pool = sorted(g.edges)
        if not pool:
            continue
        for _ in range(120):
            e = rng.choice(pool)
            if sel.is_selected(e):
                sel.remove(e)
            else:
                sel.add(e)
            deg, iso_sel, iso_unsel = recompute_selection_state(sel)
            assert deg == {v: sel.deg(v) for v in g.vertices}
            assert (iso_sel, iso_unsel) == isolated_edges(sel)


@st.composite
def _hosts_and_selections(draw):
    n = draw(st.integers(2, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, draw(st.sets(st.sampled_from(pairs))))
    # An edge-induced host has no isolated vertices among its labels.
    if draw(st.booleans()):
        g = edge_induced(g, g.edges)
    picked = draw(st.sets(st.sampled_from(sorted(g.edges)))
                  if g.edges else st.just(set()))
    # Either orientation names the same edge.
    flips = draw(st.lists(st.booleans(), min_size=len(picked),
                          max_size=len(picked)))
    return g, [(v, u) if flip else (u, v)
               for (u, v), flip in zip(sorted(picked), flips)]


@settings(max_examples=100, deadline=None)
@given(_hosts_and_selections())
def test_selection_construction_matches_recompute(case):
    g, picked = case
    sel = SubgraphSelection(g, picked)
    assert sel.selected == {canon_edge(u, v) for u, v in picked}
    deg, iso_sel, iso_unsel = recompute_selection_state(sel)
    assert deg == {v: sel.deg(v) for v in g.vertices}
    assert (iso_sel, iso_unsel) == isolated_edges(sel)


def test_selection_construction_rejects_foreign_and_duplicate():
    # The bulk check falls back to the per-edge one for its error.
    g = cycle(4)
    for edges, message in (
            ([(0, 1), (0, 2)], r"edge \(0, 2\) not in host graph"),
            ([(0, 1), (1, 2), (0, 1)], r"duplicate edge \(0, 1\)"),
            ([(1, 2), (2, 1)], r"duplicate edge \(1, 2\)"),
            ([(0, 1), (3, 3)], "self-loop at vertex 3")):
        with pytest.raises(ValueError, match=message):
            SubgraphSelection(g, edges)


def test_selection_rejects_foreign_and_double():
    g = cycle(4)
    sel = SubgraphSelection(g, [(0, 1)])
    with pytest.raises(ValueError):
        sel.add((0, 2))
    with pytest.raises(ValueError):
        sel.add((0, 1))
    with pytest.raises(ValueError):
        sel.remove((1, 2))


def test_edge_partition_validation():
    g = cycle(5)
    part = EdgePartition(g, [[(0, 1), (1, 2)], [(2, 3), (3, 4), (0, 4)]])
    assert part.k == 1
    assert part.part_graph(0).edge_count == 2
    with pytest.raises(ValueError):  # not covering
        EdgePartition(g, [[(0, 1)], [(1, 2)]])
    with pytest.raises(ValueError):  # overlap
        EdgePartition(g, [[(0, 1), (1, 2)], [(1, 2), (2, 3), (3, 4), (0, 4)]])
    with pytest.raises(ValueError):  # empty part
        EdgePartition(g, [sorted(g.edges), []])


def _same_graph(a: Graph, b: Graph):
    assert (a.n, a.vertices, a.edges, a.max_degree) == (
        b.n, b.vertices, b.edges, b.max_degree)
    assert all(a.neighbors(v) == b.neighbors(v) for v in a.vertices)
    assert (a.min_degree, a.is_regular(), is_normal(a)) == (
        b.min_degree, b.is_regular(), is_normal(b))


@settings(max_examples=100, deadline=None)
@given(_hosts_and_selections())
def test_edge_induced_from_a_host_edge_set_matches_a_list(case):
    g, picked = case
    s = frozenset(canon_edge(u, v) for u, v in picked)
    sub = edge_induced(g, s)
    _same_graph(sub, edge_induced(g, sorted(s)))
    _same_graph(sub, edge_induced(g, set(s)))
    # Either orientation names the same edge, in a list or in a set.
    _same_graph(sub, edge_induced(g, picked))
    _same_graph(sub, edge_induced(g, set(picked)))
    # The same edges on every host label differ only by isolated vertices.
    full = Graph(g.n, sorted(s))
    assert sub.vertices == tuple(sorted({v for e in s for v in e}))
    assert (sub.n, sub.edges, sub.max_degree) == (
        full.n, full.edges, full.max_degree)
    assert all(sub.neighbors(v) == full.neighbors(v) for v in sub.vertices)


@pytest.mark.parametrize("s, message", [
    ({(1, 2), (2, 1)}, r"duplicate edge \(1, 2\)"),
    ([(1, 2), (1, 2)], r"duplicate edge \(1, 2\)"),
    ([(1, 2), (2, 1)], r"duplicate edge \(1, 2\)"),
    ({(0, 2)}, r"edge \(0, 2\) not in host graph"),
    (frozenset({(0, 1), (0, 2)}), r"edge \(0, 2\) not in host graph"),
    ([(2, 0)], r"edge \(0, 2\) not in host graph"),
    ({(3, 3)}, "self-loop at vertex 3"),
])
def test_edge_induced_errors(s, message):
    # Every edge-set input of a host takes the same check, with the same
    # errors: as a subgraph, a selection, and a partition's part 0 with the
    # rest of C_5 as part 1.
    g = cycle(5)
    rest = g.edges - {canon_edge(u, v) for u, v in s if u != v}
    for build in (lambda: edge_induced(g, s),
                  lambda: SubgraphSelection(g, s),
                  lambda: EdgePartition(g, [s, rest])):
        with pytest.raises(ValueError, match=message):
            build()


def test_isolated_vertices_have_no_neighbors():
    g = Graph(5, [(0, 1), (1, 2)])
    assert [g.degree(v) for v in g.vertices] == [1, 2, 1, 0, 0]
    assert g.neighbors(4) == () and g.neighbors(1) == (0, 2)
    assert g.min_degree == 0 and g.max_degree == 2
    assert not g.is_regular() and not is_normal(g)
    with pytest.raises(KeyError):
        # A label in 0..n-1 that is not a vertex of the subgraph.
        edge_induced(g, [(0, 1)]).neighbors(4)
    assert Graph(3).min_degree == 0 and Graph(3).is_regular()
    assert Graph(0).vertices == () and Graph(0).max_degree == 0


def test_selection_isolation_matches_recount_on_random_hosts():
    rng = random.Random(11)
    iso_unsel_seen = 0
    for seed in range(40):
        g = gnp(rng.randint(10, 60), rng.uniform(0.02, 0.3), seed)
        if rng.random() < 0.5:
            g = edge_induced(g, g.edges)
        p = rng.choice([0.05, 0.3, 0.5, 0.7, 0.95])
        picked = frozenset(e for e in sorted(g.edges) if rng.random() < p)
        # Every edge but a random matching, and every edge but a random
        # matching and one more edge: complements whose edges are all, or
        # all but a few, isolated.
        matching, used = [], set()
        for u, v in rng.sample(sorted(g.edges), g.edge_count):
            if u not in used and v not in used:
                used.update((u, v))
                matching.append((u, v))
        unpicked = [g.edges - set(matching)]
        if g.edge_count > len(matching):
            extra = rng.choice(sorted(unpicked[0]))
            unpicked.append(unpicked[0] - {extra})
        for edges in (picked, sorted(picked), *unpicked):
            sel = SubgraphSelection(g, edges)
            deg, iso_sel, iso_unsel = recompute_selection_state(sel)
            assert deg == {v: sel.deg(v) for v in g.vertices}
            assert (iso_sel, iso_unsel) == isolated_edges(sel), seed
            iso_unsel_seen += len(iso_unsel)
    assert iso_unsel_seen > 100


@st.composite
def _levels_and_trims(draw):
    # A host with no isolated vertex, as partition_p2's is, and a seed for
    # the subcubic parts its levels peel.
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, draw(st.sets(st.sampled_from(pairs))))
    return edge_induced(g, g.edges), random.Random(draw(st.integers(0, 10**6)))


def _subcubic_part(remaining: set, rng: random.Random) -> frozenset:
    # Every edge of a vertex of least degree first, so that the trim
    # empties it when that degree is at most 3, then random other edges
    # while both ends stay within degree 3.
    deg = {}
    for u, v in remaining:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    low = min(deg, key=lambda v: (deg[v], v))
    first = sorted(e for e in remaining if low in e)
    rest = sorted(remaining - set(first))
    rng.shuffle(rest)
    taken = dict.fromkeys(deg, 0)
    part = set()
    for u, v in first + rest:
        if taken[u] < 3 and taken[v] < 3 and (low in (u, v)
                                              or rng.random() < 0.5):
            part.add((u, v))
            taken[u] += 1
            taken[v] += 1
    return frozenset(part)


@settings(max_examples=100, deadline=None)
@given(_levels_and_trims())
def test_level_trim_matches_edge_induced(case):
    # partition_p2's remainder, trimmed in place by subcubic parts as its
    # levels are, reads as the edge-induced graph of the edges left.
    g, rng = case
    level = _Level(g)
    remaining = set(g.edges)
    while True:
        sub = edge_induced(g, remaining)
        assert level.vertices == sub.vertices
        assert level.edges == sub.edges and level.edge_count == len(remaining)
        for v in sub.vertices:
            ns = list(level.neighbors(v))
            assert ns == list(sub.neighbors(v)) == sorted(ns)
            assert level.degree(v) == sub.degree(v)
        assert level.max_degree == sub.max_degree
        assert level.sorted_edges() == sub.sorted_edges()
        assert is_normal(level) == is_normal(sub)
        if not remaining:
            break
        part = _subcubic_part(remaining, rng)
        before = len(level.vertices)
        low = min(map(level.degree, level.vertices))
        remaining -= part
        level.trim(part, frozenset(remaining))
        # A vertex of least degree lost every edge if that was at most 3.
        assert len(level.vertices) < before or low > 3


@settings(max_examples=100, deadline=None)
@given(_hosts_and_selections())
def test_adjacency_is_an_ascending_read_only_view(case):
    # The coloring kernels read sorted pairs and conflict lists off it.
    g, picked = case
    part = frozenset(canon_edge(u, v) for u, v in picked)
    for h in (g, edge_induced(g, part)):
        adj = h.adjacency
        assert tuple(adj) == h.vertices == tuple(sorted(h.vertices))
        assert all(ns == h.neighbors(v) == tuple(sorted(ns))
                   for v, ns in adj.items())
        # sorted_edges reads the edges off it in order.
        assert h.sorted_edges() == sorted(h.edges)
        with pytest.raises(TypeError):
            adj[h.n] = ()


def test_edge_partition_set_parts_match_lists():
    g = cycle(5)
    lists = [[(0, 1), (1, 2)], [(2, 3), (3, 4), (0, 4)]]
    sets = [frozenset(lists[0]), {(3, 2), (4, 3), (4, 0)}]
    assert EdgePartition(g, sets).parts == EdgePartition(g, lists).parts
    with pytest.raises(ValueError, match=r"edge \(0, 2\) not in host graph"):
        EdgePartition(g, [frozenset(lists[0]), {(0, 2), *lists[1]}])
    with pytest.raises(ValueError, match="part 1 overlaps an earlier part"):
        EdgePartition(g, [frozenset(lists[0]), {(2, 1), *lists[1]}])


@pytest.mark.parametrize("args, message", [
    ((-1,), "vertex count must be nonnegative"),
    ((3, [(0, 3)]), r"edge \(0, 3\) outside 0\.\.2"),
    ((3, [(0, 1), (1, 0)]), r"duplicate edge \(0, 1\)"),
    # Labels are never converted: 1.7 is not truncated to 1.
    ((3, [(1, 2), (0, 1.7)]), r"edge \(0, 1\.7\) has a non-integer label"),
    ((3, [(0, 1.0)]), r"edge \(0, 1\.0\) has a non-integer label"),
    ((3, [("0", 1)]), r"edge \('0', 1\) has a non-integer label"),
    ((3, [(True, 2)]), r"edge \(True, 2\) has a non-integer label"),
])
def test_graph_input_errors(args, message):
    with pytest.raises(ValueError, match=message):
        Graph(*args)
