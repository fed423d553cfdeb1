import copy
import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from avdcolor import (EdgeColoring, Graph, check_proper, color_classes,
                      complete, cycle, edge_induced, exact_chromatic_index,
                      gnp, misra_gries, petersen, random_regular)
from avdcolor.vizing import _Fans, relabeled
from helpers import (FansReference, color_sets_reference, fans_coloring,
                     warm_fans)


def test_c5_needs_three_colors():
    mg = misra_gries(cycle(5))
    assert mg.colors_used == 3
    assert check_proper(cycle(5), mg) == (True, None)


def test_single_edge_one_color():
    g = Graph(2, [(0, 1)])
    assert misra_gries(g).colors_used == 1


def test_petersen_within_four_colors():
    g = petersen()
    mg = misra_gries(g)
    assert check_proper(g, mg)[0]
    assert mg.colors_used <= 4
    # class 2: the oracle refutes 3 colors, so equality holds
    assert exact_chromatic_index(g) == 4
    assert mg.colors_used == 4


def test_proper_and_bounded_on_random_graphs():
    rng = random.Random(0)
    for seed in range(120):
        g = gnp(rng.randint(2, 35), rng.uniform(0.05, 0.95), seed)
        if not g.edge_count:
            continue
        mg = misra_gries(g)
        assert check_proper(g, mg)[0], seed
        assert mg.colors_used <= g.max_degree + 1, seed


def test_every_vertex_sees_its_degree_in_colors():
    # properness means |C(v)| = d(v); regular graphs then miss exactly
    # palette-size - r colors at every vertex
    g = random_regular(18, 5, seed=2)
    sets = color_sets_reference(g, misra_gries(g))
    for v in g.vertices:
        assert len(sets[v]) == g.degree(v)


def test_a_coloring_is_its_host_and_assignment():
    assert [f.name for f in dataclasses.fields(EdgeColoring)] == [
        "host", "assignment"]
    g = cycle(6)
    coloring = EdgeColoring(g, dict.fromkeys(g.edges, 9) | {(0, 1): 4})
    assert coloring.colors_used == 2
    assert EdgeColoring(Graph(3), {}).colors_used == 0
    for g in (petersen(), gnp(30, 0.3, 1)):
        mg = misra_gries(g)
        assert mg.colors_used == max(mg.assignment.values())


def test_relabeled_keeps_color_order():
    color = {(0, 1): 7, (1, 2): 3, (2, 3): 7, (3, 4): 12, (0, 4): 5}
    assert relabeled(color) == {(0, 1): 3, (1, 2): 1, (2, 3): 3, (3, 4): 4,
                                (0, 4): 2}
    # Colors already 1..K stay as they are.
    onto = {(0, 1): 2, (1, 2): 1, (2, 3): 2, (3, 4): 3}
    assert relabeled(onto) == onto
    assert relabeled({}) == {}
    for g in (petersen(), gnp(30, 0.3, 1)):
        mg = misra_gries(g)
        assert relabeled(mg.assignment) == mg.assignment


def test_color_classes_c5():
    mg = misra_gries(cycle(5))
    classes = color_classes(mg)  # Delta+1 = 3 classes
    assert len(classes) == 3
    assert sorted(len(c) for c in classes) == [1, 2, 2]
    assert frozenset().union(*classes) == cycle(5).edges


def test_color_classes_padding_and_matching():
    g = complete(4)
    mg = misra_gries(g)
    classes = color_classes(mg)
    assert len(classes) == g.max_degree + 1 == 4
    # chi'(K4) = 3 by the oracle, so a 3-coloring's 4th class is empty
    assert exact_chromatic_index(g) == 3
    if mg.colors_used == 3:
        assert classes[3] == frozenset()
    for cl in classes:
        seen = set()
        for u, v in cl:
            assert u not in seen and v not in seen
            seen.update((u, v))
    e = min(g.edges)
    with pytest.raises(ValueError, match="above Delta"):
        color_classes(EdgeColoring(g, {**mg.assignment, e: 5}))


def test_deterministic_coloring():
    g = gnp(20, 0.4, seed=13)
    a = misra_gries(g)
    b = misra_gries(g)
    assert a.assignment == b.assignment


def _golden_graphs():
    yield "complete(20)", complete(20)
    yield "petersen()", petersen()
    for s in (1, 2, 3):
        yield f"random_regular(40,7,{s})", random_regular(40, 7, s)
        yield f"gnp(150,0.12,{s})", gnp(150, 0.12, s)
    yield "gnp(300,0.1,1)", gnp(300, 0.1, 1)  # Delta = 47: long fans
    g = gnp(90, 0.2, 4)
    yield "gnp(90,0.2,4) off multiples of 3", edge_induced(
        g, [e for e in g.edges if e[0] % 3 and e[1] % 3])


def test_misra_gries_outputs_golden():
    # Pins each coloring edge by edge: a rewrite of the colorer must keep
    # every tie-break (lowest fan extension, stop at the first vertex that
    # shares a free color with the anchor, smallest free colors, first
    # rotatable prefix), or the partitions built on it change.
    digests = {name: hashlib.sha256(json.dumps(sorted(
        [u, v, c] for (u, v), c in misra_gries(g).assignment.items()
    )).encode()).hexdigest() for name, g in _golden_graphs()}
    assert digests == {
        "complete(20)":
            "e5292dbac63080a0d800a11341420dda60874dd0359249029d8d69cdb023cbac",
        "petersen()":
            "37c0017ed852e3e81679958a41f3f0eff5c3d3708c3ab8d7884390110b1725a6",
        "random_regular(40,7,1)":
            "12b6e6b5818f2861e621e36b202314078474cdc187de28c84eef9d4ece863f2c",
        "gnp(150,0.12,1)":
            "c9adfb2eabc8d85daeddf2e87d0604c4bee6c1547fdfcc659251de6030609aea",
        "random_regular(40,7,2)":
            "e849b0545cd2e25b8ad12b0e305930dd6aa09bd10e7d35d32998163c92136d59",
        "gnp(150,0.12,2)":
            "e0ee62cd6ffc0df115dbdbc89b302f8c1b294ddf0ce72793f5ef29b3bfabfeef",
        "random_regular(40,7,3)":
            "8fb5cdc1c1fd2344bd4aa55e6c46cf0745d9e6f33c5c0b2a9517758fb3fe8c8d",
        "gnp(150,0.12,3)":
            "5eb46a237d99cd7c52c3d292b79d01eab5470b6606c0b3899b413208ac3bd2f0",
        "gnp(300,0.1,1)":
            "7dcb045212e06ab55749cf307635d046170a1f26e8a21f7083d45e7a990726ef",
        "gnp(90,0.2,4) off multiples of 3":
            "31beda844a30f6cf3df1c710082f80b0e2fc4a8557f5876e8904447f62cc35d3",
    }


def test_misra_gries_warm_outputs_golden():
    # Pins the warm fan path edge by edge, as above: a fresh state is
    # extended from a seeded half of the cold coloring under a seeded
    # palette permutation, so fans, path swaps and rotations all run
    # against carried colors.  ``partition_p2`` runs this path on every
    # level below the first.
    wanted = {
        "petersen()":
            "33a2ffbefa616a61d9f35fc8faaf5431d06d3a6de4843974d5f733b907b7180c",
        "random_regular(40,7,2)":
            "2b210cf648b53e4edbe17f411218bae900e92ee178b9b015a2150ae78a7b19c4",
        "gnp(150,0.12,3)":
            "82e4c801359e02924c728a1a8b9be083418f27572f69f0fb70433b4eb2c2fcfd",
        "gnp(90,0.2,4) off multiples of 3":
            "7ec127c874cf43c0ae2a58406d17ec64a932b2748d921f0589e56e076ab85322",
    }
    digests = {}
    for name, g in _golden_graphs():
        if name not in wanted:
            continue
        rng = random.Random(name)
        perm = list(range(1, g.max_degree + 2))
        rng.shuffle(perm)
        start = {e: perm[c - 1]
                 for e, c in sorted(misra_gries(g).assignment.items())
                 if rng.random() < 0.5}
        digests[name] = hashlib.sha256(json.dumps(sorted(
            [u, v, c] for (u, v), c
            in fans_coloring(warm_fans(g, start)).assignment.items()
        )).encode()).hexdigest()
    assert digests == wanted


_PATH = [(0, 1), (0, 2)]


@pytest.mark.parametrize("edges, painted, used, at, message", [
    (_PATH, [], {0: 0b1111}, [], "no free color at 0"),
    (_PATH, [], {0: 0b1101, 1: 0b1011}, [(0, 2, 2), (2, 1, 0)],
     "alternating path does not end"),
    (_PATH, [(0, 2, 3)], {0: 0b1101, 1: 0b0111, 2: 0b1011}, [(0, 2, 2)],
     "path swap broke the fan prefix"),
    (_PATH + [(1, 2)], [], {0: 0b1101, 1: 0b1011}, [(0, 2, 2), (2, 1, 1)],
     "fan rotation target missing"),
])
def test_fan_stops_on_a_state_no_coloring_has(edges, painted, used, at,
                                              message):
    # Each guard of ``fan`` against masks and maps that disagree: fanning
    # edge 01 ends in AssertionError, not in an endless walk or a coloring
    # that is not proper.  No proper partial coloring reaches these lines.
    fans = _Fans(Graph(3, edges))
    for u, v, c in painted:
        fans.paint(u, v, c)
    for v, mask in used.items():
        fans.used[v] = mask
    for v, c, w in at:
        fans.at[v][c] = w
    with pytest.raises(AssertionError, match=message):
        fans.fan([(0, 1)])


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, draw(st.sets(st.sampled_from(pairs))))
    # An edge-induced subgraph drops the isolated vertices from its labels.
    return edge_induced(g, g.edges) if draw(st.booleans()) else g


@settings(max_examples=200, deadline=None)
@given(_small_graphs())
def test_misra_gries_properties(g):
    mg = misra_gries(g)
    assert check_proper(g, mg) == (True, None)
    assert mg.colors_used <= g.max_degree + 1
    # The palette has no gap: nothing renumbers it.
    assert set(mg.assignment.values()) == set(range(1, mg.colors_used + 1))
    sets = color_sets_reference(g, mg)
    for v in g.vertices:
        assert len(sets[v]) == g.degree(v)
    assert misra_gries(g).assignment == mg.assignment


@settings(max_examples=100, deadline=None)
@given(_small_graphs(), st.randoms(use_true_random=False))
def test_misra_gries_extends_a_start(g, rng):
    # A fresh state extends a start, misra_gries's coloring or part of it.
    full = misra_gries(g).assignment

    def extend(start):
        return fans_coloring(warm_fans(g, start))

    # A complete start is kept.
    assert extend(full).assignment == full
    # A partial start is extended.  Path swaps and fan rotations may
    # recolor its edges, so only the coloring's own guarantees are checked.
    start = {e: c for e, c in full.items() if rng.random() < 0.5}
    mg = extend(start)
    assert check_proper(g, mg) == (True, None)
    assert mg.colors_used <= g.max_degree + 1
    assert mg.assignment.keys() == g.edges
    assert extend(start).assignment == mg.assignment


def _assert_delta_plus_one(g, mg):
    # A proper coloring of exactly g's edges within Delta + 1 colors.
    assert check_proper(g, mg) == (True, None)
    assert mg.assignment.keys() == g.edges
    assert mg.colors_used <= g.max_degree + 1


def test_misra_gries_on_complete_graphs():
    # Late in K_n every vertex is nearly saturated, so some fans become
    # maximal with no shared free color: the path swap runs here as well
    # as the early rotation (325 of the 4494 edges take the swap).
    for n in range(3, 31):
        _assert_delta_plus_one(complete(n), misra_gries(complete(n)))


def _random_start(g, rng, share):
    # A random partial proper coloring in 1..Delta+1, not derived from
    # misra_gries: each edge drawn is given a color free at both ends.
    seen = {v: set() for v in g.vertices}
    start = {}
    for u, v in sorted(g.edges):
        free = [c for c in range(1, g.max_degree + 2)
                if c not in seen[u] and c not in seen[v]]
        if free and rng.random() < share:
            start[(u, v)] = c = rng.choice(free)
            seen[u].add(c)
            seen[v].add(c)
    return start


@st.composite
def _random_graphs(draw):
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        return gnp(draw(st.integers(2, 40)), draw(st.floats(0.05, 0.95)), seed)
    n = draw(st.integers(4, 30))
    r = draw(st.integers(1, min(n - 1, 12)))
    return random_regular(n + n * r % 2, r, seed)


@st.composite
def _graphs_with_starts(draw):
    g = draw(_random_graphs())
    rng = random.Random(draw(st.integers(0, 10**6)))
    return g, _random_start(g, rng, draw(st.floats(0, 1)))


@settings(max_examples=150, deadline=None)
@given(_graphs_with_starts())
def test_misra_gries_extends_random_partial_starts(case):
    g, start = case
    _assert_delta_plus_one(g, misra_gries(g))
    mg = fans_coloring(warm_fans(g, start))
    _assert_delta_plus_one(g, mg)
    assert fans_coloring(warm_fans(g, start)).assignment == mg.assignment


@st.composite
def _fan_runs(draw):
    # A graph, possibly edge-induced with gaps in its labels; a base; a
    # warm partial start; and a generator for the parts the levels peel.
    g = draw(_random_graphs())
    rng = random.Random(draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        keep = draw(st.floats(0.3, 1))
        g = edge_induced(g, [e for e in sorted(g.edges) if rng.random() < keep])
    base = draw(st.sampled_from((0, 3, 9)))
    return g, base, _random_start(g, rng, draw(st.floats(0, 1))), rng


def _assert_same_fans(fans, ref):
    assert fans.host is ref.host and fans.base == ref.base
    assert len(fans.col) == len(fans.at) == len(fans.used) == ref.host.n
    vertices = set(ref.col)
    for v in range(ref.host.n):
        if v in vertices:
            assert list(fans.col[v].items()) == list(ref.col[v].items())
            assert list(fans.at[v].items()) == list(ref.at[v].items())
            assert fans.used[v] == ref.used[v]
        else:
            assert (fans.col[v], fans.at[v], fans.used[v]) == (None, None, 1)


@settings(max_examples=150, deadline=None)
@given(_fan_runs())
def test_fans_match_their_reference(case):
    # The list-indexed state against the dict-keyed one it replaced, step
    # by step through partition_p2's sequence: paint a warm start over a
    # base, then on each level fan, take classes 1..3 (the reference
    # reads them), and peel a part of max degree at most 3 grown from them.
    g, base, start, rng = case
    _assert_same_fans(_Fans.cold(g), FansReference.cold(g))
    fans, ref = _Fans(g), FansReference(g)
    floor = (1 << base + 1) - 1
    for state in (fans, ref):
        state.base = base
        for v in g.vertices:
            state.used[v] |= floor
        for (u, v), c in start.items():
            state.paint(u, v, base + c)
    _assert_same_fans(fans, ref)
    rest, todo = g, sorted(g.edges - start.keys())
    for _ in range(4):
        fans.fan(todo)
        ref.fan(todo)
        _assert_same_fans(fans, ref)
        low = fans.take_low()
        assert low == ref.edges_upto(3)
        if not rest.edges:
            break
        # Drop some of classes 1..3 and add other edges while both ends
        # stay within degree 3, as the engine's moves do.
        deg = dict.fromkeys(rest.vertices, 0)
        part = set()
        for u, v in low + sorted(rest.edges - set(low)):
            if deg[u] < 3 and deg[v] < 3 and rng.random() < 0.7:
                part.add((u, v))
                deg[u] += 1
                deg[v] += 1
        part = frozenset(part)
        rest = edge_induced(g, rest.edges - part)
        todo = fans.peel(part, rest)
        assert todo == ref.peel(part, rest)
        _assert_same_fans(fans, ref)


@settings(max_examples=100, deadline=None)
@given(_fan_runs())
def test_take_low_leaves_the_state_the_reference_uncolors(case):
    # The take against the reference at the step where it changes the
    # state: on each level, after the same fans, ``take_low`` leaves col,
    # at and used as the reference does after uncoloring each edge of
    # classes 1..3 in turn.  The copy keeps the host, which it shares.
    g, base, start, rng = case
    fans, ref = _Fans(g), FansReference(g)
    floor = (1 << base + 1) - 1
    for state in (fans, ref):
        state.base = base
        for v in g.vertices:
            state.used[v] |= floor
        for (u, v), c in start.items():
            state.paint(u, v, base + c)
    rest, todo = g, sorted(g.edges - start.keys())
    for _ in range(4):
        fans.fan(todo)
        ref.fan(todo)
        low = fans.take_low()
        taken = copy.deepcopy(ref, {id(ref.host): ref.host})
        for u, v in ref.edges_upto(3):
            taken.uncolor(u, v)
        _assert_same_fans(fans, taken)
        assert low == ref.edges_upto(3)
        assert fans.taken == frozenset(low)
        if not rest.edges:
            break
        # Peel a part grown as in test_fans_match_their_reference.
        deg = dict.fromkeys(rest.vertices, 0)
        part = set()
        for u, v in low + sorted(rest.edges - set(low)):
            if deg[u] < 3 and deg[v] < 3 and rng.random() < 0.7:
                part.add((u, v))
                deg[u] += 1
                deg[v] += 1
        part = frozenset(part)
        rest = edge_induced(g, rest.edges - part)
        todo = fans.peel(part, rest)
        assert todo == ref.peel(part, rest)
