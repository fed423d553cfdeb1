import dataclasses
import hashlib
import json
import random
import types

import pytest
from hypothesis import assume, given, settings, strategies as st

from avdcolor import (EdgeColoring, EdgePartition, Graph, NotNormalError,
                      avd_color, avd_color_budget, avd_color_regular,
                      avd_subcubic, check_avd, check_proper, complete, compose,
                      cycle, edge_induced, gnp, main_bound, misra_gries,
                      partition_p2, partition_regular, petersen,
                      random_regular, regular_bound)
from avdcolor import (InternalBoundViolationError, SearchCapExceededError,
                      audit, check_certificate, coloring, emit_graph,
                      exact_chi_a, is_normal, parse_graph)
from avdcolor.coloring import certificate_from_dict, certificate_to_dict
from helpers import (exhaust_searches, isolated_edge_block,
                     normal_gnp_corpus, repair_reference, search_reference,
                     vertex_major_order_reference)


def _checked(g, cert):
    assert check_proper(g, cert.coloring) == (True, None)
    assert check_avd(g, cert.coloring) == (True, None)
    assert cert.colors_used == cert.coloring.colors_used <= cert.bound_claimed
    return cert


def test_budget_p3():
    g = Graph(3, [(0, 1), (1, 2)])
    cert = avd_color_budget(g, 2)
    assert cert is not None and cert.colors_used == 2
    _checked(g, cert)


def test_budget_c5_exactly_five():
    c5 = cycle(5)
    assert avd_color_budget(c5, 4) is None
    cert = avd_color_budget(c5, 5)
    assert cert is not None
    _checked(c5, cert)


def test_budget_k4_exactly_five():
    k4 = complete(4)
    assert avd_color_budget(k4, 4) is None
    assert avd_color_budget(k4, 3) is None
    cert = avd_color_budget(k4, 5)
    assert cert is not None
    _checked(k4, cert)


def test_budget_preconditions():
    with pytest.raises(NotNormalError):
        avd_color_budget(Graph(2, [(0, 1)]), 3)
    with pytest.raises(ValueError):
        avd_color_budget(cycle(5), 1)
    # The edgeless graph is normal, and its certificate is empty.
    empty = avd_color_budget(Graph(0), 0)
    assert (empty.colors_used, empty.coloring.assignment) == (0, {})


def test_budget_monotone():
    rng = random.Random(1)
    graphs = normal_gnp_corpus(10, 40, 4, 7, 1, 6, p_lo=0.3, p_hi=0.9)
    for g in graphs:
        sat = [b for b in range(g.max_degree, g.max_degree + 5)
               if avd_color_budget(g, b) is not None]
        if sat:
            lo = sat[0]
            assert sat == list(range(lo, g.max_degree + 5))


def test_subcubic_petersen():
    cert = avd_subcubic(petersen())
    assert cert.bound_claimed == 5 and cert.colors_used <= 5
    _checked(petersen(), cert)


def test_subcubic_c6_three_colors():
    cert = avd_subcubic(cycle(6))
    assert cert.colors_used == 3
    _checked(cycle(6), cert)


def test_subcubic_rejects():
    with pytest.raises(NotNormalError):
        avd_subcubic(Graph(2, [(0, 1)]))
    with pytest.raises(ValueError):
        avd_subcubic(complete(5))


def test_compose_single_part_relabels_from_one():
    g = cycle(6)
    cert = avd_subcubic(g)
    out = compose([cert], host=g)
    assert out.colors_used == cert.colors_used
    assert sorted(set(out.coloring.assignment.values())) == list(
        range(1, out.colors_used + 1))
    _checked(g, out)


def test_compose_two_parts_disjoint_palettes():
    g = complete(7)
    part = partition_p2(g)
    pieces = [avd_subcubic(sub) if sub.max_degree <= 3
              else avd_color_budget(sub, 3 * sub.max_degree)
              for sub in part.part_graphs()]
    out = compose(pieces, host=g)
    assert out.colors_used == sum(c.colors_used for c in pieces)
    assert out.colors_used <= sum(c.bound_claimed for c in pieces)
    _checked(g, out)


def test_compose_rejects_bad_partition():
    g = cycle(6)
    half = edge_induced(g, [(0, 1), (1, 2), (2, 3)])
    half_cert = avd_subcubic(half)
    with pytest.raises(ValueError):
        compose([half_cert], host=g)  # does not cover the host
    full_cert = avd_subcubic(g)
    clash = dict(full_cert.coloring.assignment)
    clash[(0, 1)] = clash[(1, 2)]
    bad_cert = dataclasses.replace(full_cert,
                                   coloring=EdgeColoring(g, clash))
    with pytest.raises(ValueError):
        compose([bad_cert], host=g)  # improper part certificate
    with pytest.raises(ValueError, match="nothing to compose"):
        compose([], host=g)
    one_edge = dataclasses.replace(half_cert, coloring=EdgeColoring(
        edge_induced(g, [(0, 1)]), {(0, 1): 1}))
    with pytest.raises(NotNormalError, match="must be normal"):
        compose([one_edge], host=g)
    # Proper but not distinguishing: every vertex sees colors 1 and 2.
    alternating = EdgeColoring(g, {e: 1 + i % 2 for i, e in
                                   enumerate([(0, 1), (1, 2), (2, 3),
                                              (3, 4), (4, 5), (0, 5)])})
    two_colors = dataclasses.replace(full_cert, coloring=alternating)
    with pytest.raises(ValueError, match="not distinguishing"):
        compose([two_colors], host=g)
    rest = edge_induced(g, [(2, 3), (3, 4), (4, 5), (0, 5)])
    with pytest.raises(ValueError, match="part 1 overlaps an earlier part"):
        compose([half_cert, avd_subcubic(rest)], host=g)


def test_compose_property_random():
    for g in normal_gnp_corpus(8, 700, 10, 26, 6, 10, p_lo=0.3, p_hi=0.6):
        part = partition_p2(g)
        pieces = [avd_subcubic(sub) if sub.max_degree <= 3
                  else avd_color_budget(sub, 3 * sub.max_degree)
                  for sub in part.part_graphs()]
        out = compose(pieces, host=g)
        _checked(g, out)


def test_avd_color_routing_bounds():
    for g, limit in ((petersen(), 5), (complete(5), 12)):
        cert = avd_color(g)
        assert cert.colors_used <= limit
        assert cert.bound_claimed == main_bound(g.max_degree)
        _checked(g, cert)
    k7 = complete(7)
    cert = avd_color(k7)
    assert cert.bound_claimed == 20  # floor(5 * 8 / 2)
    _checked(k7, cert)


def test_avd_color_rejects_non_normal():
    with pytest.raises(NotNormalError):
        avd_color(Graph(4, [(0, 1), (2, 3)]))


def test_avd_color_random_instances():
    for g in normal_gnp_corpus(12, 2200, 8, 40, 4, 12):
        cert = avd_color(g)
        assert cert.colors_used <= main_bound(g.max_degree)
        _checked(g, cert)


def test_avd_color_disconnected_input():
    # disjoint union: K7, a 5-cycle on 7..11, a triangle on 12..14
    edges = sorted(complete(7).edges)
    edges += [(7 + i, 7 + (i + 1) % 5) for i in range(5)]
    edges += [(12, 13), (13, 14), (12, 14)]
    g = Graph(15, edges)
    cert = avd_color(g)
    assert cert.colors_used <= main_bound(g.max_degree)
    _checked(g, cert)
    part = partition_p2(g)
    graphs = part.part_graphs()
    assert graphs[0].max_degree <= 5
    assert all(p.max_degree <= 3 for p in graphs[1:])


def test_avd_color_regular_disconnected():
    # two disjoint 5-cliques form a disconnected 4-regular graph
    edges = sorted(complete(5).edges)
    edges += [(u + 5, v + 5) for u, v in complete(5).edges]
    g = Graph(10, edges)
    cert = avd_color_regular(g)
    assert cert.colors_used <= regular_bound(4)
    _checked(g, cert)


def test_avd_color_regular_examples():
    g5 = random_regular(16, 5, seed=21)
    cert = avd_color_regular(g5)
    assert cert.colors_used <= 10  # avd_color's one bounded part
    _checked(g5, cert)

    g7 = random_regular(16, 7, seed=22)
    cert = avd_color_regular(g7)
    assert cert.colors_used <= 24 == regular_bound(7)
    _checked(g7, cert)

    g6 = random_regular(15, 6, seed=23)
    cert = avd_color_regular(g6)
    assert cert.colors_used <= 17  # avd_color's partition_p2 parts
    _checked(g6, cert)


def test_avd_color_regular_low_degree_routing():
    c5 = cycle(5)
    cert = avd_color_regular(c5)
    assert cert.bound_claimed == regular_bound(2)
    _checked(c5, cert)
    with pytest.raises(ValueError):
        avd_color_regular(gnp(12, 0.4, seed=0))
    with pytest.raises(ValueError, match="requires degree >= 2"):
        avd_color_regular(Graph(4, [(0, 1), (2, 3)]))  # 1-regular


def test_certificate_parts_are_the_colored_partition():
    k7 = complete(7)
    cert = avd_color(k7)
    assert list(cert.parts) == partition_p2(k7).parts
    assert cert.with_bound(cert.bound_claimed + 1).parts == cert.parts
    with pytest.raises(AssertionError, match="cannot claim bound"):
        cert.with_bound(cert.colors_used - 1)
    assert avd_color(petersen()).parts == (petersen().edges,)
    assert avd_color(complete(6)).parts == (complete(6).edges,)
    back = certificate_from_dict(certificate_to_dict(cert), host=k7)
    assert back.parts == ()


def test_certificate_serialization_roundtrip():
    g = complete(7)
    cert = avd_color(g)
    data = json.loads(json.dumps(certificate_to_dict(cert)))
    back = certificate_from_dict(data, host=g)
    assert back.coloring.assignment == cert.coloring.assignment
    assert back.colors_used == cert.colors_used
    assert back.bound_claimed == cert.bound_claimed
    assert set(data) == {"type", "vertex_count", "colors_used",
                         "bound_claimed", "edges"}
    # An older payload also held the witness map and the per-vertex color
    # sets; they are ignored, even when wrong.
    older = {**data, "witnesses": [[0, 1, 99], "junk"],
             "vertex_color_sets": {"0": []}}
    assert certificate_from_dict(older, host=g) == back
    with pytest.raises(ValueError):
        certificate_from_dict(data, host=cycle(5))


def _golden_cases():
    yield "petersen", avd_color(petersen())
    yield "graph0", avd_color(Graph(0))
    for n in range(3, 9):
        yield f"cycle({n})", avd_color(cycle(n))
    # Seeds 7 and 21 never reach the exact budget-4 search: their budget-4
    # repair colors them with 4 colors.  The search alone would run into
    # the ladder's node cap.
    for n, r, s in ((32, 3, 7), (32, 3, 21), (24, 4, 1), (24, 4, 2),
                    (24, 4, 3), (20, 5, 1), (30, 5, 2)):
        yield f"random_regular({n},{r},{s})", avd_color(random_regular(n, r, s))
    yield "regular K7", avd_color(complete(7))
    for n, r, s in ((24, 4, 1), (16, 5, 21)):
        yield (f"regular random_regular({n},{r},{s})",
               avd_color_regular(random_regular(n, r, s)))


def test_search_outputs_golden():
    # Pins certificates and their parts, so a rewrite of the exact search
    # or of the drivers' routing must reproduce them byte for byte.
    out = [[name, certificate_to_dict(cert),
            [sorted(map(list, p)) for p in cert.parts]]
           for name, cert in _golden_cases()]
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == (
        "4f966528847e0656db1540a193cc1904c6c2549291dfea343cd01d3b5d683715")


def _repair_golden_graphs():
    for n in (32, 36):
        for s in range(12):
            yield f"random_regular({n},3,{s})", random_regular(n, 3, s)
    # Budget-4 repairs that fail, so the ladder pays its exact rung.
    for n, s in ((12, 46), (32, 2045316809), (36, 1792540428)):
        yield f"random_regular({n},3,{s})", random_regular(n, 3, s)
    # Subcubic parts of the paper route: degrees 1 to 3 side by side.
    for i, g in enumerate(normal_gnp_corpus(8, 500, 20, 40, 6, 12,
                                            p_lo=0.2, p_hi=0.4)):
        for j, part in enumerate(partition_p2(g).part_graphs()):
            if part.max_degree <= 3:
                yield f"gnp {i} part {j}", part


def test_repair_outputs_golden():
    # Pins every repair outcome, so a rewrite of its loop must make the
    # same moves: the same candidates, ties, generator draws and swaps.
    out, failed = [], 0
    for name, g in _repair_golden_graphs():
        start = misra_gries(g)
        for budget in range(coloring._lower_bound(g), 6):
            cert = coloring._repair(g, budget, start)
            failed += cert is None
            out.append([name, budget, None if cert is None else sorted(
                [u, v, c] for (u, v), c in cert.coloring.assignment.items())])
    assert (len(out), failed) == (101, 3)
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == (
        "78c580cf121a9bd8abb22f7c8398f7a5875d323c46d54a21c9f6acb335dded6a")


def _least_cap(g, budget, order):
    # The smallest node_cap under which avd_color_budget returns, and what
    # it returns: the caps that raise are exactly those below it.
    lo, hi = -1, 1
    while True:
        try:
            avd_color_budget(g, budget, node_cap=hi, order=order)
            break
        except SearchCapExceededError:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            avd_color_budget(g, budget, node_cap=mid, order=order)
            hi = mid
        except SearchCapExceededError:
            lo = mid
    return hi, avd_color_budget(g, budget, node_cap=hi, order=order)


def test_search_node_counts_golden():
    # Pins the node count of every search (the least cap that does not
    # raise) and its outcome, in the breadth-first and two shuffled orders,
    # at budgets Delta to lb + 1: refutations and colorings alike.
    graphs = [("petersen", petersen()), ("cycle(5)", cycle(5)),
              ("cycle(7)", cycle(7)), ("complete(4)", complete(4)),
              ("complete(5)", complete(5)), ("complete(6)", complete(6))]
    graphs += [(f"random_regular({n},{r},{s})", random_regular(n, r, s))
               for n, r, s in ((10, 3, 1), (10, 3, 2), (12, 4, 1), (12, 4, 2),
                               (10, 5, 1))]
    graphs += [(f"gnp {i}", g)
               for i, g in enumerate(normal_gnp_corpus(6, 700, 6, 11, 3, 5))]
    out, refuted = [], 0
    for name, g in graphs:
        for budget in range(g.max_degree, coloring._lower_bound(g) + 2):
            for seed in (0, 1, 2):
                order = coloring._shuffled_order(g, seed) if seed else None
                cap, cert = _least_cap(g, budget, order)
                refuted += cert is None
                out.append([name, budget, seed, cap, None if cert is None
                            else sorted([u, v, c] for (u, v), c
                                        in cert.coloring.assignment.items())])
    assert (len(out), refuted) == (147, 63)
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == (
        "67a69bec639cb44bfdb5ac093ef7f527049e2bc6330be371a57b4a3ccd32e48b")


def test_subcubic_budget_four_exact_rung_lowers_the_palette(monkeypatch):
    # The budget-4 repair fails on this cubic graph, so without the exact
    # budget-4 rung the ladder would end at the guaranteed budget 5.  Its
    # adjacent degree-3 vertices put the lower bound, and the first rung,
    # at 4.
    g = random_regular(12, 3, 46)
    assert coloring._repair(g, 4, misra_gries(g)) is None
    found = []
    search = coloring.avd_color_budget

    def spy(graph, budget, **kw):
        cert = search(graph, budget, **kw)
        found.append((budget, cert is not None))
        return cert

    monkeypatch.setattr(coloring, "avd_color_budget", spy)
    cert = avd_color(g)
    assert cert.colors_used == 4
    assert found == [(4, True)]
    assert all(ok for _, ok, _ in check_certificate(g, cert))


def test_long_cycles_color_without_recursion():
    # C_30002 has more than LADDER_NODE_CAP edges: its budget-4 rung
    # finishes only under a cap of at least m nodes.
    for n, colors in ((1200, 3), (3001, 4), (30002, 4)):
        g = cycle(n)
        cert = avd_color(g)
        assert cert.colors_used == colors
        assert all(ok for _, ok, _ in check_certificate(g, cert))


def test_guaranteed_search_restarts_after_cap(monkeypatch):
    caps = []
    search = coloring.avd_color_budget

    def spy(g, budget, **kw):
        if budget == 5:
            caps.append(kw["node_cap"])
        return search(g, budget, **kw)

    monkeypatch.setattr(coloring, "avd_color_budget", spy)
    monkeypatch.setattr(coloring, "LADDER_NODE_CAP", 4)
    monkeypatch.setattr(coloring, "_repair", lambda *a: None)
    g = random_regular(24, 3, 14)
    cert = avd_subcubic(g)
    # A unit is 2m = 72 nodes, above twice the patched LADDER_NODE_CAP:
    # three attempts hit Luby caps of 1, 1 and 2 units, and the fourth
    # finishes.
    assert caps == [72, 72, 144, 72]
    assert cert.colors_used <= 5 == cert.bound_claimed
    _checked(g, cert)


def test_guaranteed_search_spends_one_node_budget(monkeypatch):
    calls = exhaust_searches(monkeypatch)
    with pytest.raises(SearchCapExceededError) as info:
        avd_subcubic(petersen())
    caps = [cap for budget, cap in calls if budget == 5]
    # A unit is 2m = 30 nodes; the budget is still GUARANTEED_UNITS times
    # twice LADDER_NODE_CAP.
    assert caps[:7] == [30, 30, 60, 30, 30, 60, 120]
    assert None not in caps
    assert (sum(caps) == coloring.GUARANTEED_UNITS * 2
            * coloring.LADDER_NODE_CAP == 60_000)
    assert info.value.payload == {
        "edgelist": emit_graph(petersen(), "edgelist").decode("ascii"),
        "budget": 5, "nodes": sum(caps), "attempts": len(caps)}


def test_guaranteed_search_clips_the_last_cap(monkeypatch):
    calls = exhaust_searches(monkeypatch)
    monkeypatch.setattr(coloring, "GUARANTEED_UNITS", 2)
    with pytest.raises(SearchCapExceededError) as info:
        # A part of max degree 4 at its guaranteed budget 3 Delta.
        coloring._guaranteed_search(complete(5), 12, "K_5")
    # A unit is 2m = 20 nodes.  Two times 2 * LADDER_NODE_CAP is 6000 units,
    # which ends inside attempt 1277's Luby term of 64 units, so that cap
    # is clipped to 48 units.
    caps = [cap for _, cap in calls]
    assert {budget for budget, _ in calls} == {12}
    assert caps[:3] == [20, 20, 40]
    assert len(caps) == 1277
    assert caps[-1] == 20 * 48 < 20 * coloring._luby(len(caps))
    assert sum(caps) == 2 * 2 * coloring.LADDER_NODE_CAP == 120_000
    assert info.value.payload["nodes"] == 120_000


def test_guaranteed_search_unit_covers_the_part(monkeypatch):
    # The state of a spent search on a large sparse part costs O(m).  One
    # budget unit is max(2 * LADDER_NODE_CAP, 2m) nodes: 60,000 on a small
    # part, which takes many 2m-node attempts, and 2m on C_60001.
    calls = exhaust_searches(monkeypatch)
    monkeypatch.setattr(coloring, "GUARANTEED_UNITS", 1)
    for n in (15, 60001):
        g = cycle(n)
        calls.clear()
        with pytest.raises(SearchCapExceededError) as info:
            avd_subcubic(g)
        caps = [cap for budget, cap in calls if budget == 5]
        assert caps[0] == 2 * g.edge_count
        assert (sum(caps) == info.value.payload["nodes"]
                == max(60_000, 2 * g.edge_count))
        assert (info.value.payload["edgelist"].encode("ascii")
                == emit_graph(g, "edgelist"))
    assert caps == [2 * g.edge_count]


def _guaranteed_caps(monkeypatch) -> list[int]:
    """Node caps given to searches at budgets of 5 or more.

    These are a guaranteed search's attempts (at 5, or 3 Delta), the
    2m-node attempt at 3 Delta that a part of max degree 4-5 makes first,
    and the exact rungs of that part's ladder.  The subcubic ladder's exact
    rungs, at budgets below 5, have their own cap and are not counted.
    """
    caps = []
    search = coloring.avd_color_budget

    def spy(g, budget, **kw):
        if budget >= 5:
            caps.append(kw["node_cap"])
        return search(g, budget, **kw)

    monkeypatch.setattr(coloring, "avd_color_budget", spy)
    return caps


@pytest.mark.parametrize("n, seed", [(40, 63), (24, 1735927368)])
def test_quartic_heavy_tail_restarts_within_its_part(monkeypatch, n, seed):
    # Breadth-first order runs into a long dead end on these graphs, while
    # a shuffled order colors them in about m nodes.
    caps = _guaranteed_caps(monkeypatch)
    g = random_regular(n, 4, seed)
    cert = coloring._guaranteed_search(g, 12, "a quartic graph")
    assert sum(caps) < 20 * g.edge_count
    assert cert.colors_used == 7
    assert all(ok for _, ok, _ in check_certificate(g, cert))
    # The first 2m-node attempt reaches its cap, and the ladder's repair
    # colors the graph at its lower bound.
    cert = avd_color(g)
    assert cert.colors_used == coloring._lower_bound(g) == 5
    assert all(ok for _, ok, _ in check_certificate(g, cert))


@pytest.mark.parametrize("n", [1000, 5000])
def test_quartic_walls_color_at_the_lower_bound(n):
    # The guaranteed search alone gave 8 colors for n = 1000 and spent its
    # node budget for n = 5000.
    g = random_regular(n, 4, 1)
    cert = avd_color(g)
    assert cert.colors_used == coloring._lower_bound(g) == 5
    assert all(ok for _, ok, _ in check_certificate(g, cert))


def test_dense_regular_graph_colors_its_quartic_part():
    # G_0 of this graph's partition has max degree 4; the guaranteed search
    # alone spent its node budget on it.
    g = random_regular(2000, 30, 1)
    cert = avd_color(g)
    assert edge_induced(g, cert.parts[0]).max_degree == 4
    assert all(ok for _, ok, _ in check_certificate(g, cert))


def test_audit_heavy_tail_restarts_within_its_parts(monkeypatch):
    # G_0 of this graph's partition has the same dead end at budget 12.
    caps = _guaranteed_caps(monkeypatch)
    g = random_regular(30, 6, 851910474)
    report = audit(g)
    assert sum(caps) < 20 * g.edge_count
    assert all(ok for _, ok, _ in report.checks)


def test_spent_budget_on_a_partitioned_part_raises(monkeypatch):
    exhaust_searches(monkeypatch)
    g = gnp(10, 0.5, 2)  # Delta 8; a part keeps host labels, not all of them
    with pytest.raises(SearchCapExceededError) as info:
        avd_color(g)
    part = parse_graph(info.value.payload["edgelist"], "edgelist")
    assert part.edges <= g.edges
    assert len({v for e in part.edges for v in e}) < g.n


def test_refuted_guaranteed_budget_raises(monkeypatch):
    monkeypatch.setattr(coloring, "avd_color_budget", lambda *a, **kw: None)
    monkeypatch.setattr(coloring, "_repair", lambda *a: None)
    with pytest.raises(InternalBoundViolationError) as info:
        avd_subcubic(petersen())
    assert set(info.value.payload) == {"edgelist", "budget"}
    assert info.value.payload["budget"] == 5
    part = parse_graph(info.value.payload["edgelist"], "edgelist")
    assert part.edges == petersen().edges


def test_refuted_budget_on_a_partitioned_part_raises(monkeypatch):
    monkeypatch.setattr(coloring, "avd_color_budget", lambda *a, **kw: None)
    monkeypatch.setattr(coloring, "_repair", lambda *a: None)
    g = gnp(10, 0.5, 2)  # Delta 8; a part keeps host labels, not all of them
    with pytest.raises(InternalBoundViolationError) as info:
        avd_color(g)
    part = parse_graph(info.value.payload["edgelist"], "edgelist")
    assert part.edges <= g.edges
    assert len({v for e in part.edges for v in e}) < g.n


def test_low_degree_regular_driver_is_avd_color():
    # audit reuses avd_color's certificate for its regular row on this fact.
    graphs = [cycle(5), cycle(8), complete(4), complete(5), petersen(),
              random_regular(24, 3, 14), random_regular(24, 4, 2),
              complete(6), random_regular(16, 5, 21),
              random_regular(15, 6, 23), random_regular(16, 7, 22),
              random_regular(18, 8, 1), random_regular(20, 9, 1)]
    for g in graphs:
        r = g.max_degree
        assert main_bound(r) <= regular_bound(r)
        cert = avd_color_regular(g)
        assert cert.coloring.assignment == avd_color(g).coloring.assignment
        assert cert.bound_claimed == regular_bound(r)


def test_high_degree_regular_driver_colors_the_class_grouping():
    # From r = 10 the regular bound is the tighter, so the regular driver
    # colors partition_regular's blocks; one graph per residue of r mod 3.
    for g in (random_regular(22, 10, 1), random_regular(24, 11, 1),
              random_regular(26, 12, 1)):
        r = g.max_degree
        cert = avd_color_regular(g)
        assert list(cert.parts) == partition_regular(g).parts
        assert cert.colors_used <= regular_bound(r) < main_bound(r)
        assert all(ok for _, ok, _ in check_certificate(g, cert))


def test_regular_driver_rejects_a_bad_grouping(monkeypatch):
    # partition_regular does not check its blocks; the part colorers do.
    g = random_regular(22, 10, 1)
    blocks = isolated_edge_block(partition_regular(g).parts)
    monkeypatch.setattr(coloring, "partition_regular",
                        lambda g: EdgePartition(g, blocks))
    with pytest.raises(NotNormalError):
        avd_color_regular(g)


@st.composite
def _small_normal_graphs(draw):
    if draw(st.booleans()):
        r = draw(st.integers(2, 5))
        n = draw(st.sampled_from([n for n in range(r + 1, 32 // r + 1)
                                  if n * r % 2 == 0]))
        return random_regular(n, r, draw(st.integers(0, 10**6)))
    n = draw(st.integers(3, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), min_size=2, max_size=16))
    touched = sorted({v for e in edges for v in e})
    label = {v: i for i, v in enumerate(touched)}
    g = Graph(len(touched), [(label[u], label[v]) for u, v in edges])
    assume(is_normal(g))
    return g


@settings(max_examples=60, deadline=None)
@given(_small_normal_graphs())
def test_drivers_certify_within_bounds(g):
    assert g.edge_count <= 16
    chi_a = exact_chi_a(g)
    drivers = [(avd_color, main_bound)]
    if g.is_regular() and g.max_degree >= 2:
        drivers.append((avd_color_regular, regular_bound))
    for driver, bound in drivers:
        cert = driver(g)
        assert all(ok for _, ok, _ in check_certificate(g, cert))
        assert chi_a <= cert.colors_used <= cert.bound_claimed
        assert cert.bound_claimed == bound(g.max_degree)


@st.composite
def _small_normal_graphs(draw, max_degree=3):
    n = draw(st.integers(3, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    deg = [0] * n
    edges = []
    for u, v in draw(st.permutations(pairs)):
        if len(edges) < 16 and deg[u] < max_degree and deg[v] < max_degree:
            deg[u] += 1
            deg[v] += 1
            edges.append((u, v))
    edges = edges[:draw(st.integers(2, len(edges)))]
    touched = sorted({v for e in edges for v in e})
    label = {v: i for i, v in enumerate(touched)}
    g = Graph(len(touched), [(label[u], label[v]) for u, v in edges])
    assume(is_normal(g))
    return g


@settings(max_examples=80, deadline=None)
@given(_small_normal_graphs())
def test_repair_returns_only_checked_colorings(g):
    assert g.edge_count <= 16 and g.max_degree <= 3
    start = misra_gries(g)
    for budget in range(g.max_degree, 6):
        cert = coloring._repair(g, budget, start)
        if start.colors_used > budget:
            assert cert is None
        if cert is None:
            continue
        _checked(g, cert)
        assert cert.colors_used <= budget == cert.bound_claimed
        assert cert.parts == (g.edges,)
        again = coloring._repair(g, budget, start)
        assert again.coloring.assignment == cert.coloring.assignment


def _certificate_bytes(cert):
    return None if cert is None else json.dumps(
        [certificate_to_dict(cert), [sorted(map(list, p)) for p in cert.parts]])


@settings(max_examples=300, deadline=None)
@given(_small_normal_graphs(5))
def test_repair_matches_its_reference(g):
    start = misra_gries(g)
    for budget in range(g.max_degree, g.max_degree + 3):
        assert (_certificate_bytes(coloring._repair(g, budget, start))
                == _certificate_bytes(repair_reference(g, budget, start)))


def _gapped_parts(max_degrees):
    # Parts of the paper route keep their host's labels, so their labels
    # have gaps: per-vertex state indexed by label must skip the missing.
    for g in normal_gnp_corpus(30, 900, 30, 70, 6, 20, p_lo=0.15, p_hi=0.35):
        for part in partition_p2(g).part_graphs():
            if (part.max_degree in max_degrees
                    and len(part.vertices) < part.n):
                yield part


@pytest.mark.parametrize("max_degrees, budgets", [
    ((3,), lambda lb: range(lb, 6)),
    ((4, 5), lambda lb: range(lb, lb + 3))])
def test_repair_matches_its_reference_on_gapped_parts(max_degrees, budgets):
    cases = 0
    for part in _gapped_parts(max_degrees):
        start = misra_gries(part)
        for budget in budgets(coloring._lower_bound(part)):
            cases += 1
            assert (_certificate_bytes(coloring._repair(part, budget, start))
                    == _certificate_bytes(
                        repair_reference(part, budget, start)))
    assert cases >= 60


def test_vertex_major_order_matches_its_reference_on_gapped_parts():
    parts = list(_gapped_parts((3, 4, 5)))
    assert len(parts) >= 100
    for part in parts:
        assert (coloring._vertex_major_order(part)
                == vertex_major_order_reference(part))
        for seed in (1, 2):
            vseq = list(part.vertices)
            random.Random(seed).shuffle(vseq)
            assert (coloring._vertex_major_order(part, vseq)
                    == vertex_major_order_reference(part, vseq))


def test_repair_refuses_a_start_above_its_budget():
    # A proper start on colors {1, 2, 3, 5} has 4 colors but one above a
    # budget of 4, which swaps would keep: no certificate beyond its bound.
    # Under a budget of 5 the start is taken, and the palette is relabeled
    # onto 1..K if it still has a gap.
    for s in range(30):
        g = random_regular(20, 3, s)
        start = EdgeColoring(g, {e: 5 if c == 4 else c for e, c
                                 in misra_gries(g).assignment.items()})
        assert start.colors_used == 4
        assert coloring._repair(g, 4, start) is None
        cert = coloring._repair(g, 5, start)
        if cert is not None:
            assert all(ok for _, ok, _ in check_certificate(g, cert))
    # A spider has no equal-degree pair, so no step runs and the gap stays
    # until the certificate closes it: 5 becomes 4.
    spider = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
    start = EdgeColoring(spider, {(0, 1): 1, (0, 2): 2, (0, 3): 5,
                                  (1, 4): 2, (2, 5): 3, (3, 6): 1})
    assert coloring._repair(spider, 4, start) is None
    cert = coloring._repair(spider, 5, start)
    assert cert.colors_used == 4 and cert.coloring.assignment[(0, 3)] == 4
    assert all(ok for _, ok, _ in check_certificate(spider, cert))


@settings(max_examples=300, deadline=None)
@given(_small_normal_graphs(5), st.integers(0, 2), st.integers(0, 3),
       st.data())
def test_search_matches_its_reference(g, extra, seed, data):
    # Same assignment, same refutation, or a cap error at the same node.
    budget = g.max_degree + extra
    order = (coloring._shuffled_order(g, seed) if seed
             else coloring._vertex_major_order(g))
    cap = data.draw(st.one_of(st.none(), st.integers(-2, 0),
                              st.integers(1, 2 * g.edge_count)))

    def outcome(search):
        try:
            return search(g, budget, order, cap)
        except SearchCapExceededError as exc:
            return str(exc)

    assert outcome(coloring._search) == outcome(search_reference)


def test_repair_draws_among_tied_swaps(monkeypatch):
    # Line coverage cannot tell a swap drawn among several tied candidates
    # from one drawn alone, so count the tie lists the generator draws from.
    sizes = []

    class Spy(random.Random):
        def choice(self, seq):
            sizes.append(len(seq))
            return super().choice(seq)

    monkeypatch.setattr(coloring, "random", types.SimpleNamespace(Random=Spy))
    # Seed 2045316809's budget-4 repair fails after 2m steps; seed 7's works.
    for s, colored in ((2045316809, False), (7, True)):
        g = random_regular(32, 3, s)
        start = misra_gries(g)
        cert = coloring._repair(g, 4, start)
        assert (cert is not None) == colored
        assert (_certificate_bytes(cert)
                == _certificate_bytes(repair_reference(g, 4, start)))
    assert 1 in sizes and max(sizes) > 1


def test_repair_skips_a_budget_it_cannot_meet():
    # Adjacent vertices of degree 3 see every color of a budget of 3.
    k4 = complete(4)
    assert coloring._repair(k4, 3, misra_gries(k4)) is None
    # C_7 needs 4 colors: 2m steps run and none makes it distinguishing.
    c7 = cycle(7)
    start = misra_gries(c7)
    assert start.colors_used == 3
    assert coloring._repair(c7, 3, start) is None
    assert coloring._repair(c7, 4, start).colors_used == 4


def test_ladder_repairs_before_each_search(monkeypatch):
    calls = []
    search = coloring.avd_color_budget

    def spy_search(g, budget, **kw):
        calls.append(("search", budget))
        return search(g, budget, **kw)

    def failed_repair(g, budget, start):
        calls.append(("repair", budget))

    monkeypatch.setattr(coloring, "avd_color_budget", spy_search)
    monkeypatch.setattr(coloring, "_repair", failed_repair)
    # Petersen's adjacent degree-3 vertices put its lower bound at 4; the
    # theta graph's two degree-3 vertices are not adjacent, so its ladder
    # starts at 3.
    theta = Graph(8, [(0, 2), (2, 3), (1, 3), (0, 4), (4, 5), (1, 5),
                      (0, 6), (6, 7), (1, 7)])
    ladders = ((petersen(), 4), (theta, 3))
    for g, first in ladders:
        calls.clear()
        cert = avd_subcubic(g)
        assert calls == [("repair", first), ("search", first)]
        assert _checked(g, cert).colors_used == first

    def refuted(g, budget, **kw):
        calls.append(("search", budget))

    monkeypatch.setattr(coloring, "avd_color_budget", refuted)
    for g, first in ladders:
        calls.clear()
        with pytest.raises(InternalBoundViolationError):
            avd_subcubic(g)
        assert calls == [(step, b) for b in range(first, 6)
                         for step in ("repair", "search")]


def test_paths_and_cycles_skip_the_repair(monkeypatch):
    # Max degree <= 2: no Misra-Gries start and no repair; the exact search
    # colors or refutes every rung, and C_5 reaches the guaranteed budget 5.
    def unused(*args):
        raise AssertionError("a path or cycle reached misra_gries or _repair")

    calls = []
    guaranteed = coloring._guaranteed_search

    def spy(g, budget, context):
        calls.append(budget)
        return guaranteed(g, budget, context)

    monkeypatch.setattr(coloring, "misra_gries", unused)
    monkeypatch.setattr(coloring, "_repair", unused)
    monkeypatch.setattr(coloring, "_guaranteed_search", spy)
    path = Graph(7, [(i, i + 1) for i in range(6)])
    for g, colors in ((cycle(5), 5), (cycle(7), 4), (cycle(1200), 3),
                      (cycle(3001), 4), (path, exact_chi_a(path))):
        assert _checked(g, avd_subcubic(g)).colors_used == colors
    assert calls == [5]


def test_first_attempt_at_3_delta_colors_without_repair(monkeypatch):
    # A part of max degree 4-5 runs the ladder, and with it _repair, only
    # when its 2m-node attempt at 3 Delta reaches its cap.
    calls = []
    repair = coloring._repair

    def spy(g, budget, start):
        calls.append(budget)
        return repair(g, budget, start)

    monkeypatch.setattr(coloring, "_repair", spy)
    for g in (complete(5), random_regular(24, 4, 1), random_regular(20, 5, 1),
              complete(6)):
        _checked(g, avd_color(g))
    _checked(random_regular(24, 4, 1),
             avd_color_regular(random_regular(24, 4, 1)))
    assert calls == []
    # Counter-case: the attempt reaches its cap, and the repair colors the
    # graph on the ladder's first rung, at its lower bound.
    g = random_regular(40, 4, 63)
    cert = avd_color(g)
    assert calls == [5] == [coloring._lower_bound(g)]
    assert cert.colors_used == 5
    assert all(ok for _, ok, _ in check_certificate(g, cert))


def test_repair_colors_cubic_graphs_the_search_could_not():
    # random_regular(150,3,4) took 19.6 s by search alone, for 5 colors;
    # random_regular(1000,3,1) spent the guaranteed search's node budget.
    for g, most in ((random_regular(150, 3, 4), 4),
                    (random_regular(1000, 3, 1), 5)):
        cert = avd_color(g)
        assert cert.colors_used <= most
        assert all(ok for _, ok, _ in check_certificate(g, cert))
