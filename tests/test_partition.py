import random

import pytest

from avdcolor import (Graph, MoveVariant, NotNormalError, PartitionEngine,
                      SubgraphSelection, StaleMoveError, VertexType,
                      apply_move, check_membership, classify_vertex, complete,
                      cycle, enumerate_chains, find_move, gnp,
                      initial_selection, is_normal, partition_p1,
                      partition_p2, partition_regular, random_regular)
from avdcolor import ChainClosure, CounterexampleFound, partition
from helpers import normal_gnp_corpus, scramble_selection


# -- membership and typing -----------------------------------------------------


def test_check_membership_empty_on_k7():
    g = complete(7)
    sel = SubgraphSelection(g)
    report = check_membership(g, sel)
    assert not report.is_member
    assert sorted(report.violations) == [(v, 2) for v in range(7)]


def test_check_membership_overfull_vertex():
    g = complete(7)
    sel = SubgraphSelection(g, [(0, 1), (0, 2), (0, 3), (0, 4)])
    report = check_membership(g, sel)
    assert (0, 1) in report.violations


def test_initial_selection_k7():
    g = complete(7)
    sel = initial_selection(g)
    assert check_membership(g, sel).is_member
    assert all(sel.deg(v) >= 2 for v in g.vertices)


def test_initial_selection_regular():
    g = random_regular(12, 6, seed=4)
    sel = initial_selection(g)
    assert check_membership(g, sel).is_member
    assert all(sel.deg(v) in (2, 3) for v in g.vertices)


def test_initial_selection_requires_degree_six():
    with pytest.raises(ValueError):
        initial_selection(cycle(5))


def _type_one_graph():
    # 0 has one selected edge (to 1), degree Delta-1 = 5, and every
    # complement neighbor (2..5) has selection degree 3.
    edges_sel = [(0, 1)]
    for t, base in ((2, 6), (3, 9), (4, 12), (5, 15)):
        edges_sel += [(t, base), (t, base + 1), (t, base + 2)]
    edges_unsel = [(0, 2), (0, 3), (0, 4), (0, 5)]
    hub = [(18, i) for i in range(19, 25)]
    g = Graph(25, edges_sel + edges_unsel + hub)
    sel = SubgraphSelection(g, edges_sel + [(18, 19), (18, 20)])
    return g, sel


def test_classify_type_one():
    g, sel = _type_one_graph()
    assert g.max_degree == 6
    assert classify_vertex(g, sel, 0) is VertexType.TYPE_I


def _type_two_graph():
    # 0 has selection degree 3 and each selected neighbor has selection
    # degree 1 with total degree Delta-1 = 5.
    edges_sel = [(0, 1), (0, 2), (0, 3)]
    edges_unsel = []
    for t in (1, 2, 3):
        edges_unsel += [(t, 4), (t, 5), (t, 6), (t, 7)]
    hub = [(8, v) for v in (4, 5, 6, 7, 9, 10)]
    g = Graph(11, edges_sel + edges_unsel + hub)
    sel = SubgraphSelection(g, edges_sel)
    return g, sel


def test_classify_type_two():
    g, sel = _type_two_graph()
    assert g.max_degree == 6
    assert classify_vertex(g, sel, 0) is VertexType.TYPE_II


def test_classify_neither_without_selected_edges():
    g, sel = _type_one_graph()
    assert sel.deg(19) <= 1
    assert classify_vertex(g, sel, 21) is VertexType.NEITHER


def test_types_never_overlap_on_scrambled_states():
    rng = random.Random(5)
    for g in normal_gnp_corpus(12, 500, 10, 22, 6, 12, p_lo=0.3, p_hi=0.8):
        sel = initial_selection(g)
        scramble_selection(g, sel, rng, 2 * g.edge_count)
        for v in g.vertices:
            classify_vertex(g, sel, v)  # raises if both types match


# -- chains ---------------------------------------------------------------------


def test_enumerate_chains_length_two():
    g, sel = _type_two_graph()
    chains = enumerate_chains(g, sel, 0, "h")
    assert [c.vertices for c in chains] == [(0, 1), (0, 2), (0, 3)]


def test_enumerate_chains_length_three():
    # selected path 0-1-2 where 1 has degree 2 < Delta-1 and the far end 2
    # has selection degree 1 with degree Delta-1
    edges_sel = [(0, 1), (1, 2)]
    edges_unsel = [(2, 3), (2, 4), (2, 5), (2, 6)]
    hub = [(7, v) for v in (3, 4, 5, 6, 8, 9)]
    g = Graph(10, edges_sel + edges_unsel + hub)
    sel = SubgraphSelection(g, edges_sel)
    chains = enumerate_chains(g, sel, 0, "h")
    assert [c.vertices for c in chains] == [(0, 1, 2)]
    assert chains[0].edges() == frozenset({(0, 1), (1, 2)})


def test_enumerate_chains_empty():
    g, sel = _type_one_graph()
    assert enumerate_chains(g, sel, 21, "h") == []
    assert enumerate_chains(g, sel, 21, "hbar") == []


# -- direct moves ---------------------------------------------------------------


def _k7_plus(extra_edges, extra_n, selected_extra):
    base = complete(7)
    g = Graph(7 + extra_n, sorted(base.edges) + extra_edges)
    k7_sel = initial_selection(base)
    sel = SubgraphSelection(g, sorted(k7_sel.selected) + selected_extra)
    return g, sel


def test_find_move_drops_low_degree_isolated_edge():
    # K7 with a far-away path: the selected edge (7,8) is isolated and its
    # higher-degree endpoint has degree 2 <= Delta-2, so it is dropped.
    # The longer tail keeps the complement side free of isolated edges.
    g, sel = _k7_plus([(7, 8), (8, 9), (9, 10)], 4, [(7, 8)])
    assert check_membership(g, sel).is_member
    assert set(sel.isolated_selected) == {(7, 8)}
    assert not sel.isolated_unselected
    move = find_move(g, sel)
    assert move.variant is MoveVariant.DROP_ISOLATED_H_EDGE
    assert move.remove_set == frozenset({(7, 8)}) and not move.add_set
    assert move.witness == "claim1.drop"
    before = sel.potential()
    apply_move(sel, move)
    after = sel.potential()
    assert after[0] == before[0] - 1
    assert not sel.isolated_selected
    assert not sel.isolated_unselected


def test_find_move_adds_isolated_complement_edge():
    # K7 with a triangle whose edges are selected except (7,9): both its
    # endpoints have complement degree 1 and selection degree 1 <= 2.
    g, sel = _k7_plus([(7, 8), (8, 9), (7, 9)], 3, [(7, 8), (8, 9)])
    assert check_membership(g, sel).is_member
    assert set(sel.isolated_unselected) == {(7, 9)}
    move = find_move(g, sel)
    assert move.variant is MoveVariant.ADD_HBAR_EDGE
    assert move.add_set == frozenset({(7, 9)}) and not move.remove_set
    assert move.witness == "claim2.add"
    before = sel.potential()
    apply_move(sel, move)
    assert sel.potential()[0] == before[0] - 1


def test_find_move_claim1_witness_add():
    # 0 carries an isolated selected edge at degree Delta-1 but its lowest
    # complement neighbor fails all three conforming shapes, so the engine
    # adds that edge.
    edges_sel = [(0, 1)]
    for t, base in ((3, 9), (4, 12), (5, 15)):
        edges_sel += [(t, base), (t, base + 1), (t, base + 2)]
    edges_sel += [(2, 6)]
    edges_unsel = [(0, 2), (0, 3), (0, 4), (0, 5), (2, 7), (2, 8)]
    hub = [(18, i) for i in range(19, 25)]
    g = Graph(25, edges_sel + edges_unsel + hub)
    sel = SubgraphSelection(g, edges_sel + [(18, 19), (18, 20)])
    assert check_membership(g, sel).is_member
    # vertex 2: selection degree 1, complement degree 3 -> no shape fits
    move = find_move(g, sel)
    assert move.variant is MoveVariant.ADD_HBAR_EDGE
    assert move.add_set == frozenset({(0, 2)})
    assert move.witness == "claim1.add"


def test_stale_move_rejected():
    g, sel = _k7_plus([(7, 8), (8, 9)], 3, [(7, 8)])
    move = find_move(g, sel)
    sel.add((8, 9))
    with pytest.raises(StaleMoveError):
        apply_move(sel, move)


# -- closure moves ----------------------------------------------------------------


def _closure_drop_state():
    # Chain 0 => 2 reaches a selection-degree-3 end whose selected
    # neighbors are pendant, so the claims analysis drops one edge.
    edges_sel = [(0, 1), (2, 6), (2, 7), (2, 8)]
    for t, base in ((3, 9), (4, 12), (5, 15)):
        edges_sel += [(t, base), (t, base + 1), (t, base + 2)]
    edges_unsel = [(0, 2), (0, 3), (0, 4), (0, 5)]
    hub = [(18, i) for i in range(19, 25)]
    g = Graph(25, edges_sel + edges_unsel + hub)
    sel = SubgraphSelection(g, edges_sel + [(18, 19), (18, 20)])
    return g, sel


def test_closure_simple_drop_move():
    g, sel = _closure_drop_state()
    assert check_membership(g, sel).is_member
    assert classify_vertex(g, sel, 0) is VertexType.TYPE_I
    move = find_move(g, sel)
    assert move.variant is MoveVariant.DROP_H_EDGE
    assert move.witness == "claims.drop"
    assert move.remove_set == frozenset({(2, 6)}) and not move.add_set
    before = sel.potential()
    apply_move(sel, move)
    after = sel.potential()
    assert after[0] == before[0] and after[1] == before[1] - 1


def _closure_swap_state():
    # Chain 0 => 2 reaches a (2,2) end that fails its type test, forcing
    # the full path swap: the chain edge joins the selection, the witness
    # edge leaves it, and the isolated edge at the origin is healed.
    edges_sel = [(0, 1), (2, 6), (2, 7)]
    for t, base in ((3, 8), (4, 11), (5, 14)):
        edges_sel += [(t, base), (t, base + 1), (t, base + 2)]
    edges_unsel = [(0, 2), (0, 3), (0, 4), (0, 5), (2, 17)]
    hub = [(18, i) for i in range(19, 25)]
    g = Graph(25, edges_sel + edges_unsel + hub)
    sel = SubgraphSelection(g, edges_sel + [(18, 19), (18, 20)])
    return g, sel


def test_closure_chain_swap_move():
    g, sel = _closure_swap_state()
    assert check_membership(g, sel).is_member
    move = find_move(g, sel)
    assert move.variant is MoveVariant.CHAIN_SWAP
    assert move.witness == "claims.swap"
    assert move.add_set == frozenset({(0, 2)})
    assert move.remove_set == frozenset({(2, 6)})
    before = sel.potential()
    apply_move(sel, move)
    assert sel.potential()[0] == before[0] - 1


def test_closure_swap_cleanup_move():
    # The swap state plus a pendant selected edge (6,25): the witness 6 now
    # has selection degree 2 with a pendant partner, so the swap takes the
    # partner edge out as well.
    g, sel = _closure_swap_state()
    g = Graph(26, sorted(g.edges) + [(6, 25)])
    sel = SubgraphSelection(g, sorted(sel.selected) + [(6, 25)])
    assert check_membership(g, sel).is_member
    move = find_move(g, sel)
    assert move.variant is MoveVariant.CHAIN_SWAP
    assert move.witness == "claims.swap-cleanup"
    assert move.add_set == frozenset({(0, 2)})
    assert move.remove_set == frozenset({(2, 6), (6, 25)})
    assert sel.potential() == (1, 15)
    apply_move(sel, move)
    assert sel.potential() == (0, 14)


def _closure_revisit_state():
    # Type-II origin 0 (isolated complement edge (0,1)) with conforming
    # selected neighbors 2 and 4 and the (2,2) vertex 3, whose partner 5 has
    # selection degree 1.  The closure grows 0 => 2 => 3, and 3 fails its
    # type-II test with the origin as witness.  The p-vertices 6..9 carry
    # three pendant selected edges each.
    edges_sel = [(0, 2), (0, 3), (0, 4), (3, 5)]
    for p, base in ((6, 10), (7, 13), (8, 16), (9, 19)):
        edges_sel += [(p, base), (p, base + 1), (p, base + 2)]
    edges_unsel = [(0, 1), (2, 3), (3, 4), (5, 9)]
    edges_unsel += [(v, p) for v in (2, 4, 5) for p in (6, 7, 8)]
    g = Graph(22, edges_sel + edges_unsel)
    return g, SubgraphSelection(g, edges_sel)


def test_closure_revisit_rejected_at_depth_two(monkeypatch):
    g, sel = _closure_revisit_state()
    assert g.max_degree == 6
    assert check_membership(g, sel).is_member
    assert classify_vertex(g, sel, 0) is VertexType.TYPE_II
    assert classify_vertex(g, sel, 2) is VertexType.TYPE_I
    assert classify_vertex(g, sel, 3) is VertexType.NEITHER
    evaluated = []
    real = partition._evaluate_move

    def spy(g, sel, add, remove):
        result = real(g, sel, add, remove)
        evaluated.append((add, remove, result))
        return result

    monkeypatch.setattr(partition, "_evaluate_move", spy)
    move = find_move(g, sel)
    # The revisit rewrite would leave 5 (degree Delta-1) with no selected
    # edge, so it is rejected and the closure moves on to the depth-two end
    # 6, which fails type II and drops one pendant edge.
    assert evaluated[0] == (frozenset(), frozenset({(0, 3), (3, 5)}), None)
    assert move.variant is MoveVariant.DROP_H_EDGE
    assert move.witness == "claims.drop"
    assert move.remove_set == frozenset({(6, 10)}) and not move.add_set


def _closure_iswap_state():
    # Case with an isolated complement edge: the selection chain 0 => 2
    # reaches a type-I candidate whose complement neighbor 7 conforms to
    # none of the shapes, swapping (2,7) in and the chain edge (0,2) out.
    edges_sel = [(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (7, 11), (11, 12),
                 (13, 14), (13, 15)]
    edges_unsel = [(0, 1),
                   (2, 7), (2, 8), (2, 9), (2, 10),
                   (3, 8), (3, 9), (3, 10), (3, 16),
                   (4, 8), (4, 9), (4, 10), (4, 16),
                   (7, 17), (7, 18),
                   (13, 16), (13, 17), (13, 18), (13, 19)]
    g = Graph(20, edges_sel + edges_unsel)
    sel = SubgraphSelection(g, edges_sel)
    return g, sel


def test_closure_inverse_swap_move():
    g, sel = _closure_iswap_state()
    assert g.max_degree == 6
    assert check_membership(g, sel).is_member
    assert set(sel.isolated_unselected) == {(0, 1)}
    assert not sel.isolated_selected
    move = find_move(g, sel)
    assert move.variant is MoveVariant.CHAIN_SWAP
    assert move.witness == "claims.iswap"
    assert move.add_set == frozenset({(2, 7)})
    assert move.remove_set == frozenset({(0, 2)})
    before = sel.potential()
    apply_move(sel, move)
    assert sel.potential()[0] == before[0] - 1
    assert check_membership(g, sel).is_member


def test_find_move_requires_positive_potential():
    g = complete(7)
    part = partition_p1(g)
    sel = SubgraphSelection(g, part.parts[0])
    with pytest.raises(ValueError):
        find_move(g, sel)


# -- partitions -------------------------------------------------------------------


def test_partition_p1_k7():
    g = complete(7)
    part = partition_p1(g)
    h, hbar = part.part_graphs()
    assert h.max_degree <= 3
    assert hbar.max_degree <= g.max_degree - 2
    assert is_normal(h) and is_normal(hbar)


def test_partition_p1_random_and_delta_vertex_arithmetic():
    for g in normal_gnp_corpus(10, 900, 12, 32, 6, 12, p_lo=0.25, p_hi=0.6):
        part = partition_p1(g)
        h, hbar = part.part_graphs()
        delta = g.max_degree
        assert h.max_degree <= 3 and hbar.max_degree <= delta - 2
        assert is_normal(h) and is_normal(hbar)
        sel = SubgraphSelection(g, part.parts[0])
        for v in g.vertices:
            if g.degree(v) == delta:
                assert sel.codeg(v) >= delta - 3 >= 3


def test_partition_p1_rejects_bad_inputs():
    with pytest.raises(ValueError):
        partition_p1(cycle(5))
    with pytest.raises(NotNormalError):
        partition_p1(Graph(9, sorted(complete(7).edges) + [(7, 8)]))


def test_partition_p2_base_case():
    g = complete(6)  # max degree 5
    part = partition_p2(g)
    assert len(part) == 1 and part.k == 0
    assert part.parts[0] == g.edges


def test_partition_p2_degree_six():
    g = complete(7)
    part = partition_p2(g)
    assert part.k == 1
    graphs = part.part_graphs()
    assert graphs[0].max_degree <= 5
    assert all(p.max_degree <= 3 for p in graphs[1:])
    assert all(is_normal(p) for p in graphs)
    assert partition_p2(g).parts[-1] == partition_p1(g).parts[0]


def test_partition_p2_degree_ten():
    g = random_regular(24, 10, seed=17)
    part = partition_p2(g)
    assert part.k <= 10 // 2 - 2
    graphs = part.part_graphs()
    assert graphs[0].max_degree <= 5
    assert all(p.max_degree <= 3 for p in graphs[1:])
    assert all(is_normal(p) for p in graphs)
    assert partition_p2(g).parts[-1] == partition_p1(g).parts[0]


def test_partition_regular_case_table_small():
    for r, sizes in ((5, [3, 3]), (6, [4, 3]), (7, [4, 4])):
        n = 14 if (14 * r) % 2 == 0 else 15
        g = random_regular(n, r, seed=r + 30)
        part = partition_regular(g)
        graphs = part.part_graphs()
        assert len(graphs) == len(sizes)
        for sub, cap in zip(graphs, sizes):
            assert sub.max_degree <= cap
            assert is_normal(sub)


def test_partition_regular_rejects():
    with pytest.raises(ValueError):
        partition_regular(gnp(10, 0.4, seed=2))
    with pytest.raises(ValueError):
        partition_regular(random_regular(10, 4, seed=3))


# -- engine instrumentation --------------------------------------------------------


def test_engine_steps_decrease_potential_and_keep_membership():
    rng = random.Random(11)
    for g in normal_gnp_corpus(8, 1500, 10, 24, 6, 11, p_lo=0.3, p_hi=0.8):
        sel = initial_selection(g)
        scramble_selection(g, sel, rng, 2 * g.edge_count)
        engine = PartitionEngine(g, sel)
        pots = [sel.potential()]
        while engine.step() is not None:
            assert check_membership(g, sel).is_member
            pots.append(sel.potential())
        assert all(b < a for a, b in zip(pots, pots[1:]))
        assert pots[-1][0] == 0


def test_engine_stall_raises_counterexample(monkeypatch):
    g = gnp(10, 0.5, 1)  # initial selection has positive potential
    assert initial_selection(g).potential()[0] > 0
    closure = ChainClosure(frozenset({0}), frozenset({1}), (2,))
    monkeypatch.setattr(partition, "find_move", lambda g, sel: closure)
    with pytest.raises(CounterexampleFound) as info:
        partition_p1(g)
    payload = info.value.payload
    assert set(payload) == {"graph6", "selection", "potential", "v1_set",
                            "v2_set", "unresolved", "move_log"}
    assert payload["potential"][0] > 0
    assert (payload["v1_set"], payload["v2_set"]) == ([0], [1])
    assert payload["unresolved"] == [2] and payload["move_log"] == []


def test_engine_trace_entries():
    g, sel = _k7_plus([(7, 8), (8, 9)], 3, [(7, 8)])
    entries = []
    engine = PartitionEngine(g, sel, trace=entries.append)
    engine.run()
    assert entries and entries == engine.move_log
    first = entries[0]
    assert set(first) == {"variant", "witness", "add", "remove",
                          "potential_before", "potential_after"}
    assert first["potential_after"] < first["potential_before"]
