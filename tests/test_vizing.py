import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from avdcolor import (Graph, check_proper, color_classes, complete, cycle,
                      edge_induced, exact_chromatic_index, gnp, misra_gries,
                      petersen, random_regular)


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
    mg = misra_gries(g)
    for v in g.vertices:
        assert len(mg.colors_at(v)) == g.degree(v)


def test_color_classes_c5():
    mg = misra_gries(cycle(5))
    classes = color_classes(mg, 3)
    assert sorted(len(c) for c in classes) == [1, 2, 2]
    assert frozenset().union(*classes) == cycle(5).edges


def test_color_classes_padding_and_matching():
    g = complete(4)
    mg = misra_gries(g)
    # chi'(K4) = 3 by the oracle, so a 4th padded class is empty
    assert exact_chromatic_index(g) == 3
    if mg.colors_used == 3:
        classes = color_classes(mg, 4)
        assert classes[3] == frozenset()
    classes = color_classes(mg, mg.colors_used)
    for cl in classes:
        seen = set()
        for u, v in cl:
            assert u not in seen and v not in seen
            seen.update((u, v))
    with pytest.raises(ValueError):
        color_classes(mg, mg.colors_used - 1)


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
    # every tie-break (lowest fan extension, smallest free colors, first
    # rotatable prefix), or the partitions built on it change.
    digests = {name: hashlib.sha256(json.dumps(sorted(
        [u, v, c] for (u, v), c in misra_gries(g).assignment.items()
    )).encode()).hexdigest() for name, g in _golden_graphs()}
    assert digests == {
        "complete(20)":
            "23a4d15af44e8c816a79d2dd30dd96c90b7fd457544caf766aac461048e7abd4",
        "petersen()":
            "2d754c1c41ffab7990c21824be49cabdeb18e40c22295a36eaf3ce48b80a7883",
        "random_regular(40,7,1)":
            "c57692063451395fbe42c1983be525644e2cc39939226a44de031a73b9c3735f",
        "gnp(150,0.12,1)":
            "fe6284d4d3e8df8baf676928d2abcb2989f6b05b6f7b82c356499659650686d5",
        "random_regular(40,7,2)":
            "7b735ba44823dbc016dd92415b1b1062bdba602e45cac1308bfdb28b02fbf1f6",
        "gnp(150,0.12,2)":
            "c9f0b31c6369bc49cac91872ebd9144ccaf91c97a50c1bbe6f2f04353045456a",
        "random_regular(40,7,3)":
            "3ff03e587c98cec3c0b85ed8a63ffbd3dfaba75153c8fdb2ea71292e481961ac",
        "gnp(150,0.12,3)":
            "be7fb8d2475b0943d6d1e6ce9ea5b4d6ac36fc48c165d4121f310d79457f4c52",
        "gnp(300,0.1,1)":
            "62f140066e668017974590eec204747ee54e79c0bf9b8cad940220f52336e23a",
        "gnp(90,0.2,4) off multiples of 3":
            "9093d15878f2d4350273d29baabb7277db813c744e5cab61c2f5fc235fd03f17",
    }


def test_misra_gries_warm_outputs_golden():
    # Pins the warm-start path edge by edge, as above: the start is a
    # seeded half of the cold coloring under a seeded palette permutation,
    # so fans, path swaps and rotations all run against carried colors.
    wanted = {
        "petersen()":
            "9a977659f1ea9c6cfce9db5d8bc22d6da3d959e4c4022b1b45478758b6f20ab3",
        "random_regular(40,7,2)":
            "45f7ad2aaf7a40270376843faa53abbd0763b72c20ac9bcb5a9b01bc516b6cd3",
        "gnp(150,0.12,3)":
            "143b45308b6c9d651b4d386567b6a88b88b67bd787a660897acc7f2eaca3a777",
        "gnp(90,0.2,4) off multiples of 3":
            "d6c3d4cd691c3bf8abe9140ad1bfc3848f1150b3d39449e5a19c3b8d6e67b047",
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
            [u, v, c] for (u, v), c in misra_gries(g, start).assignment.items()
        )).encode()).hexdigest()
    assert digests == wanted


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
    for v in g.vertices:
        assert len(mg.colors_at(v)) == g.degree(v)
    assert misra_gries(g).assignment == mg.assignment


@settings(max_examples=100, deadline=None)
@given(_small_graphs(), st.randoms(use_true_random=False))
def test_misra_gries_extends_a_start(g, rng):
    full = misra_gries(g).assignment
    # A complete start is kept, relabeled in order onto 1..K.
    assert misra_gries(g, full).assignment == full
    shifted = {e: c + g.max_degree + 1 - max(full.values(), default=0)
               for e, c in full.items()}
    assert misra_gries(g, shifted).assignment == full
    # A partial start is extended.  Path swaps and fan rotations may
    # recolor its edges, so only the coloring's own guarantees are checked.
    start = {e: c for e, c in full.items() if rng.random() < 0.5}
    mg = misra_gries(g, start)
    assert check_proper(g, mg) == (True, None)
    assert mg.colors_used <= g.max_degree + 1
    assert mg.assignment.keys() == g.edges
    assert misra_gries(g, start).assignment == mg.assignment


@pytest.mark.parametrize("start, message", [
    ({(0, 1): 1, (1, 2): 1}, "not proper"),
    ({(0, 2): 1}, "not an edge"),
    ({(0, 1): 4}, "outside 1..3"),  # cycle(5): Delta + 1 = 3
    ({(0, 1): 0}, "outside 1..3"),
])
def test_misra_gries_rejects_bad_start(start, message):
    with pytest.raises(ValueError, match=message):
        misra_gries(cycle(5), start)
