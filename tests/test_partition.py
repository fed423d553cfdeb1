import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from avdcolor import (EdgePartition, Graph, NotNormalError,
                      SubgraphSelection, check_membership, complete, cycle,
                      find_move, gnp, initial_selection, is_normal,
                      partition_p1, partition_p2, partition_regular,
                      random_regular, run_engine)
from avdcolor import canon_edge, edge_induced, misra_gries, parse_graph
from avdcolor import (CounterexampleFound, InternalBoundViolationError,
                      graphs, partition, vizing)
from helpers import (assert_same_selection, chains_reference,
                     closure_revisit_state, dense_normal_graph,
                     isolated_edges, normal_gnp_corpus,
                     partition_p2_by_levels, recompute_selection_state,
                     scramble_selection, step_to_zero, vertex_type_reference)


# -- membership and typing -----------------------------------------------------


def test_check_membership_empty_on_k7():
    g = complete(7)
    sel = SubgraphSelection(g)
    report = check_membership(g, sel)
    assert report
    assert sorted(report) == [(v, 2) for v in range(7)]


def test_check_membership_overfull_vertex():
    g = complete(7)
    sel = SubgraphSelection(g, [(0, 1), (0, 2), (0, 3), (0, 4)])
    report = check_membership(g, sel)
    assert (0, 1) in report


def test_check_membership_matches_a_recount():
    # The violations, in vertex order, are those of the three conditions
    # recounted from their definitions: selection degrees from the selected
    # edges, degrees from the graph.  On membership-preserving walks and on
    # random selections that break every condition.
    rng = random.Random(5)
    seen = Counter()
    for g in [*normal_gnp_corpus(6, 70, 12, 40, 6, 20), complete(9)]:
        sel = initial_selection(g)
        high = [v for v in g.vertices if g.degree(v) >= g.max_degree - 1]
        for _ in range(3):
            scramble_selection(g, sel, rng, g.edge_count)
            for e in rng.sample(sorted(g.edges), 3):
                (sel.remove if sel.is_selected(e) else sel.add)(e)
            x = rng.choice(high)
            for w in sel.selected_neighbors(x):
                sel.remove(canon_edge(x, w))
            d_sel = Counter(v for e in sel.selected for v in e)
            delta = g.max_degree
            expected = tuple(
                (v, c) for v in g.vertices for c, broken in (
                    (1, d_sel[v] > 3),
                    (2, g.degree(v) == delta and d_sel[v] < 2),
                    (3, g.degree(v) == delta - 1 and d_sel[v] < 1))
                if broken)
            assert check_membership(g, sel) == expected
            seen.update(c for _, c in expected)
    assert set(seen) == {1, 2, 3}


def test_initial_selection_k7():
    g = complete(7)
    sel = initial_selection(g)
    assert not check_membership(g, sel)
    assert all(sel.deg(v) >= 2 for v in g.vertices)


def test_initial_selection_regular():
    g = random_regular(12, 6, seed=4)
    sel = initial_selection(g)
    assert not check_membership(g, sel)
    assert all(sel.deg(v) in (2, 3) for v in g.vertices)


def test_initial_selection_requires_degree_six():
    with pytest.raises(ValueError):
        initial_selection(cycle(5))


def test_a_level_with_an_empty_low_class_still_selects_a_member():
    # A level's palette is not renumbered, so class 2 can be empty.  K_7,7
    # with the Latin-square coloring, color 2 moved to 8: every vertex
    # meets classes 1 and 3, so the selection is still a member.
    # The selection takes classes 1..3 out of the state, so a second take
    # finds none, and partition_p1 gets a freshly painted state.
    g = Graph(14, [(i, 7 + j) for i in range(7) for j in range(7)])

    def painted():
        state = vizing._Fans(g)
        for i in range(7):
            for j in range(7):
                c = (i + j) % 7 + 1
                state.paint(i, 7 + j, 8 if c == 2 else c)
        return state

    state = painted()
    sel = initial_selection(g, state)
    assert not check_membership(g, sel)
    assert len(sel.selected) == 14
    assert state.take_low() == []
    h = partition_p1(g, coloring=painted())
    parts = EdgePartition(g, [h, g.edges - h]).parts
    assert [len(p) for p in parts] == [14, 35]


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
    assert vertex_type_reference(g, sel, 0) == "type-I"


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
    assert vertex_type_reference(g, sel, 0) == "type-II"


def test_classify_neither_without_selected_edges():
    g, sel = _type_one_graph()
    assert sel.deg(19) <= 1
    assert vertex_type_reference(g, sel, 21) == "neither"


def test_types_never_overlap_on_scrambled_states():
    rng = random.Random(5)
    for g in normal_gnp_corpus(12, 500, 10, 22, 6, 12, p_lo=0.3, p_hi=0.8):
        sel = initial_selection(g)
        scramble_selection(g, sel, rng, 2 * g.edge_count)
        for v in g.vertices:
            vertex_type_reference(g, sel, v)  # asserts the types are apart


# -- chains ---------------------------------------------------------------------


def test_enumerate_chains_length_two():
    g, sel = _type_two_graph()
    assert chains_reference(g, sel, 0, False) == [(0, 1), (0, 2), (0, 3)]


def _selected_chain_state():
    # selected path 0-1-2 where 1 has degree 2 < Delta-1 and the far end 2
    # has selection degree 1 with degree Delta-1
    edges_sel = [(0, 1), (1, 2)]
    edges_unsel = [(2, 3), (2, 4), (2, 5), (2, 6)]
    hub = [(7, v) for v in (3, 4, 5, 6, 8, 9)]
    g = Graph(10, edges_sel + edges_unsel + hub)
    return g, SubgraphSelection(g, edges_sel)


def test_enumerate_chains_length_three():
    g, sel = _selected_chain_state()
    assert chains_reference(g, sel, 0, False) == [(0, 1, 2)]


def _complement_chain_state():
    # complement path 0-1-2 where 1 has selection degree 1 and complement
    # degree 2, and the far end 2 has complement degree 1 with selection
    # degree 3
    edges_sel = [(1, 3), (2, 4), (2, 5), (2, 6)]
    edges_unsel = [(0, 1), (1, 2)]
    g = Graph(7, edges_sel + edges_unsel)
    return g, SubgraphSelection(g, edges_sel)


def test_enumerate_chains_length_three_complement():
    g, sel = _complement_chain_state()
    assert chains_reference(g, sel, 0, True) == [(0, 1, 2)]


def test_enumerate_chains_empty():
    g, sel = _type_one_graph()
    assert chains_reference(g, sel, 21, False) == []
    assert chains_reference(g, sel, 21, True) == []


def _typing_states():
    # The hand-built states, every state of the closure walks on their way
    # to zero potential, then scrambled selections of dense G(n,p) graphs.
    yield from (_type_one_graph(), _type_two_graph(), _selected_chain_state(),
                _complement_chain_state())
    for g, sel in _closure_walk_states():
        yield g, sel
        while sel.potential()[0]:
            find_move(g, sel)
            yield g, sel
    rng = random.Random(5)
    for g in normal_gnp_corpus(12, 500, 10, 22, 6, 12, p_lo=0.3, p_hi=0.8):
        sel = initial_selection(g)
        scramble_selection(g, sel, rng, 2 * g.edge_count)
        yield g, sel


def test_vertex_typing_matches_the_references():
    # The closure's one scan per vertex, in both roles: its pass flag is
    # the type test, its chains are the references' as (far end, edges),
    # and its failing witnesses are the neighbors on the role's side that
    # start no chain.
    seen = Counter()
    for g, sel in _typing_states():
        for v in g.vertices:
            kind = vertex_type_reference(g, sel, v)
            seen[kind] += 1
            for type_i, side in ((True, "hbar"), (False, "h")):
                passes, chains, witnesses = partition._scan(g, sel, v, type_i)
                assert passes == (kind == ("type-I" if type_i else "type-II"))
                ref = chains_reference(g, sel, v, type_i)
                assert chains == [
                    (c[-1], tuple(canon_edge(a, b) for a, b in zip(c, c[1:])))
                    for c in ref]
                starts = {c[1] for c in ref}
                assert witnesses == [
                    u for u in (sel.unselected_neighbors(v) if type_i
                                else sel.selected_neighbors(v))
                    if u not in starts]
                seen.update((side, len(c)) for c in ref)
                seen["witness"] += len(witnesses)
    assert set(seen) == {"type-I", "type-II", "neither", ("h", 2), ("h", 3),
                         ("hbar", 2), ("hbar", 3), "witness"}


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
    assert not check_membership(g, sel)
    assert isolated_edges(sel) == ({(7, 8)}, set())
    before = sel.potential()
    move = find_move(g, sel)
    assert move.remove_set == frozenset({(7, 8)}) and not move.add_set
    assert move.witness == "claim1.drop"
    after = sel.potential()
    assert after[0] == before[0] - 1
    assert isolated_edges(sel) == (set(), set())


def test_find_move_adds_isolated_complement_edge():
    # K7 with a triangle whose edges are selected except (7,9): both its
    # endpoints have complement degree 1 and selection degree 1 <= 2.
    g, sel = _k7_plus([(7, 8), (8, 9), (7, 9)], 3, [(7, 8), (8, 9)])
    assert not check_membership(g, sel)
    assert isolated_edges(sel)[1] == {(7, 9)}
    before = sel.potential()
    move = find_move(g, sel)
    assert move.add_set == frozenset({(7, 9)}) and not move.remove_set
    assert move.witness == "claim2.add"
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
    assert not check_membership(g, sel)
    # vertex 2: selection degree 1, complement degree 3 -> no shape fits
    move = find_move(g, sel)
    assert move.add_set == frozenset({(0, 2)})
    assert move.witness == "claim1.add"


def _claim1_two_edge_state():
    # The claim1.add graph with vertex 2's only other complement edge going
    # to 7, whose two selected edges leave it complement degree 1: adding
    # (0,2) alone would isolate (2,7), so the rewrite adds both edges.
    edges_sel = [(0, 1)]
    for t, base in ((3, 9), (4, 12), (5, 15)):
        edges_sel += [(t, base), (t, base + 1), (t, base + 2)]
    edges_sel += [(2, 6), (7, 25), (7, 26)]
    edges_unsel = [(0, 2), (0, 3), (0, 4), (0, 5), (2, 7)]
    hub = [(18, i) for i in range(19, 25)]
    g = Graph(27, edges_sel + edges_unsel + hub)
    sel = SubgraphSelection(g, edges_sel + [(18, 19), (18, 20)])
    return g, sel


def test_find_move_claim1_two_edge_add():
    g, sel = _claim1_two_edge_state()
    assert not check_membership(g, sel)
    assert sel.potential() == (2, 15)
    move = find_move(g, sel)
    assert move.witness == "claim1.add"
    assert move.add_set == frozenset({(0, 2), (2, 7)}) and not move.remove_set
    assert sel.potential() == (0, 17)


def _selection_state(g, sel):
    # The incremental bookkeeping, checked against a recount.
    deg, iso_sel, iso_unsel = recompute_selection_state(sel)
    assert ({v: sel.deg(v) for v in g.vertices},
            *isolated_edges(sel)) == (deg, iso_sel, iso_unsel)
    return sel.selected, deg, iso_sel, iso_unsel


def test_try_move_undoes_illegal_moves_and_keeps_legal_ones():
    g, sel = _claim1_two_edge_state()
    before = _selection_state(g, sel)
    illegal = [
        (set(), {(0, 1)}),  # 0 has degree Delta-1 and would lose H
        ({(18, 21)}, set()),  # potential would grow
        ({(0, 1)}, set()),  # already selected
        (set(), {(0, 2)}),  # not selected
    ]
    for add, remove in illegal:
        assert not partition._try_move(g, sel, frozenset(add),
                                       frozenset(remove))
        assert _selection_state(g, sel) == before
    assert partition._try_move(g, sel, frozenset({(0, 2), (2, 7)}),
                               frozenset())
    assert sel.potential() == (0, 17)
    _selection_state(g, sel)


def test_first_valid_skips_rejected_candidates():
    # Every candidate goes through _try_move, so a wrong rewrite is passed
    # over rather than returned, and a list with none legal changes nothing.
    g, sel = _claim1_two_edge_state()
    cands = [(set(), {(0, 1)}, "bad"), ({(0, 2), (2, 7)}, set(), "good")]
    before = _selection_state(g, sel)
    assert partition._first_valid(g, sel, iter(cands[:1])) is None
    assert _selection_state(g, sel) == before
    move = partition._first_valid(g, sel, iter(cands))
    assert move.witness == "good"
    assert move.add_set == frozenset({(0, 2), (2, 7)})
    assert sel.potential() == (0, 17)


def test_engine_step_applies_its_move_once(monkeypatch):
    # The trial that validates the move is the one that applies it.
    g, sel = _claim1_two_edge_state()
    calls = Counter()
    for name in ("add", "remove"):
        real = getattr(SubgraphSelection, name)

        def counted(self, e, real=real, name=name):
            calls[name] += 1
            return real(self, e)

        monkeypatch.setattr(SubgraphSelection, name, counted)
    move = find_move(g, sel)
    assert move.add_set == frozenset({(0, 2), (2, 7)})
    assert calls == {"add": 2}


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
    assert not check_membership(g, sel)
    assert vertex_type_reference(g, sel, 0) == "type-I"
    before = sel.potential()
    move = find_move(g, sel)
    assert move.witness == "claims.drop"
    assert move.remove_set == frozenset({(2, 6)}) and not move.add_set
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
    assert not check_membership(g, sel)
    before = sel.potential()
    move = find_move(g, sel)
    assert move.witness == "claims.swap"
    assert move.add_set == frozenset({(0, 2)})
    assert move.remove_set == frozenset({(2, 6)})
    assert sel.potential()[0] == before[0] - 1


def _closure_swap_cleanup_state():
    # The swap state plus a pendant selected edge (6,25): the witness 6 now
    # has selection degree 2 with a pendant partner, so the swap takes the
    # partner edge out as well.
    g, sel = _closure_swap_state()
    g = Graph(26, sorted(g.edges) + [(6, 25)])
    return g, SubgraphSelection(g, sorted(sel.selected) + [(6, 25)])


def test_closure_swap_cleanup_move():
    g, sel = _closure_swap_cleanup_state()
    assert not check_membership(g, sel)
    assert sel.potential() == (1, 15)
    move = find_move(g, sel)
    assert move.witness == "claims.swap-cleanup"
    assert move.add_set == frozenset({(0, 2)})
    assert move.remove_set == frozenset({(2, 6), (6, 25)})
    assert sel.potential() == (0, 14)


def test_closure_revisit_rejected_at_depth_two(monkeypatch):
    g, sel = closure_revisit_state()
    assert g.max_degree == 6
    assert not check_membership(g, sel)
    assert vertex_type_reference(g, sel, 0) == "type-II"
    assert vertex_type_reference(g, sel, 2) == "type-I"
    assert vertex_type_reference(g, sel, 3) == "neither"
    evaluated = []
    real = partition._try_move

    def spy(g, sel, add, remove):
        result = real(g, sel, add, remove)
        evaluated.append((add, remove, result, sel.potential()))
        return result

    monkeypatch.setattr(partition, "_try_move", spy)
    move = find_move(g, sel)
    # The revisit rewrite at 3 would leave 5 (degree Delta-1) with no
    # selected edge, so it is never offered: the first and only candidate
    # tried is the drop at the depth-two end 6, which fails type II.
    assert evaluated == [(frozenset(), frozenset({(6, 10)}), True, (1, 15))]
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
    assert not check_membership(g, sel)
    assert isolated_edges(sel) == (set(), {(0, 1)})
    before = sel.potential()
    move = find_move(g, sel)
    assert move.witness == "claims.iswap"
    assert move.add_set == frozenset({(2, 7)})
    assert move.remove_set == frozenset({(0, 2)})
    assert sel.potential()[0] == before[0] - 1
    assert not check_membership(g, sel)


def test_closure_inverse_swap_two_edge_move():
    # The inverse-swap state without (7,18) and with (13,17) selected: the
    # failing neighbor 7 has complement degree 2, and its other complement
    # neighbor 17 has complement degree 1 but selection degree 1, not 3.
    # Adding (2,7) alone would isolate (7,17), so the depth-one rewrite at
    # the type-I end 2 adds both edges.
    g, sel = _closure_iswap_state()
    g = Graph(20, sorted(g.edges - {(7, 18)}))
    sel = SubgraphSelection(g, sorted(sel.selected) + [(13, 17)])
    assert g.max_degree == 6
    assert not check_membership(g, sel)
    assert isolated_edges(sel)[1] == {(0, 1)}
    assert vertex_type_reference(g, sel, 0) == "type-II"
    assert vertex_type_reference(g, sel, 2) == "neither"
    assert sel.potential() == (1, 10)
    move = find_move(g, sel)
    assert move.witness == "claims.iswap"
    assert move.add_set == frozenset({(2, 7), (7, 17)})
    assert move.remove_set == frozenset({(0, 2)})
    assert sel.potential() == (0, 11)
    assert not check_membership(g, sel)


def test_find_move_requires_max_degree_six():
    # Below Delta = 6 the type-I and type-II prerequisites can overlap and
    # the counting argument does not hold: on this Delta = 5 state the
    # closure saturates, which would be reported as a counterexample.
    selected = [(1, 2), (1, 9), (2, 3), (2, 6), (3, 4), (4, 6), (5, 8),
                (6, 9)]
    g = Graph(10, selected + [(0, 2), (0, 7), (0, 9), (1, 3), (1, 7), (1, 8),
                              (2, 7), (3, 7), (5, 6), (5, 7), (5, 9)])
    sel = SubgraphSelection(g, selected)
    assert g.max_degree == 5 and sel.potential() == (1, 8)
    for search in (find_move, run_engine):
        with pytest.raises(ValueError, match="requires max degree >= 6"):
            search(g, sel)
    assert sel.selected == frozenset(selected)


def test_find_move_requires_positive_potential():
    g = complete(7)
    h = partition_p1(g)
    sel = SubgraphSelection(g, h)
    with pytest.raises(ValueError):
        find_move(g, sel)


# -- partitions -------------------------------------------------------------------


def test_partition_p1_k7():
    g = complete(7)
    h = partition_p1(g)
    part = EdgePartition(g, [h, g.edges - h])
    h, hbar = part.part_graphs()
    assert h.max_degree <= 3
    assert hbar.max_degree <= g.max_degree - 2
    assert is_normal(h) and is_normal(hbar)


def test_partition_p1_random_and_delta_vertex_arithmetic():
    for g in normal_gnp_corpus(10, 900, 12, 32, 6, 12, p_lo=0.25, p_hi=0.6):
        h = partition_p1(g)
        part = EdgePartition(g, [h, g.edges - h])
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


def test_partition_p2_rejects_non_normal_input():
    with pytest.raises(NotNormalError):
        partition_p2(Graph(9, sorted(complete(7).edges) + [(7, 8)]))


def test_partition_p2_degree_six():
    g = complete(7)
    part = partition_p2(g)
    assert part.k == 1
    graphs = part.part_graphs()
    assert graphs[0].max_degree <= 5
    assert all(p.max_degree <= 3 for p in graphs[1:])
    assert all(is_normal(p) for p in graphs)
    # partition_p1 builds its own cold coloring state; partition_p2 keeps one.
    for n in range(7, 13):
        g = complete(n)
        assert partition_p2(g).parts[-1] == partition_p1(g)


def test_partition_p2_degree_ten():
    g = random_regular(24, 10, seed=17)
    part = partition_p2(g)
    assert part.k <= 10 // 2 - 2
    graphs = part.part_graphs()
    assert graphs[0].max_degree <= 5
    assert all(p.max_degree <= 3 for p in graphs[1:])
    assert all(is_normal(p) for p in graphs)
    more = [random_regular(n, r, seed=s)
            for n, r, s in ((20, 6, 1), (30, 7, 2), (16, 8, 3), (40, 12, 4))]
    for h in [g, *more, *normal_gnp_corpus(6, 40, 20, 60, 6, 30)]:
        assert partition_p2(h).parts[-1] == partition_p1(h)


def test_partition_p2_checks_and_builds_each_level_once(monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (graphs, partition):
        monkeypatch.setattr(module, "is_normal",
                            counted("is_normal", module.is_normal))
    # partition imports no edge_induced; a part graph is built in graphs.
    monkeypatch.setattr(graphs, "edge_induced",
                        counted("edge_induced", graphs.edge_induced))
    monkeypatch.setattr(partition, "partition_p1",
                        counted("levels", partition.partition_p1))
    part = partition_p2(complete(16))
    levels = counts["levels"]
    assert levels == part.k == 4
    # The entry check, one per level (initial_selection) and one for G_0.
    assert counts["is_normal"] <= levels + 2
    # The remainder is trimmed in place: no level builds a part graph.
    assert counts["edge_induced"] == 0


def test_partition_p2_checks_one_edge_partition(monkeypatch):
    # A level returns its selection side, and the remainder takes the rest
    # in place, so the result is the only EdgePartition built.
    built = []

    def counted(host, parts):
        built.append(host)
        return EdgePartition(host, parts)

    monkeypatch.setattr(partition, "EdgePartition", counted)
    for g in (complete(16), gnp(200, 0.1, 1)):
        built.clear()
        part = partition_p2(g)
        assert part.k >= 4 and built == [g]


def test_partition_p2_leaves_its_input_as_it_was():
    for g in (complete(16), gnp(80, 0.15, 2), random_regular(24, 10, 17)):
        edges, adj, delta = g.edges, dict(g.adjacency), g.max_degree
        copy = set(edges)
        part = partition_p2(g)
        assert part.host is g and g.edges is edges and edges == copy
        assert dict(g.adjacency) == adj and g.max_degree == delta


def test_partition_p1_returns_the_final_selection(monkeypatch):
    # The selection side as a frozenset; g.edges - H is the other part,
    # within criterion 2's bounds.
    finals = []
    real = partition.run_engine

    def kept(g, sel, trace=None):
        finals.append(sel)
        return real(g, sel, trace)

    monkeypatch.setattr(partition, "run_engine", kept)
    for g in normal_gnp_corpus(8, 901, 12, 32, 6, 12, p_lo=0.25, p_hi=0.6):
        h = partition_p1(g)
        sel = finals.pop()
        assert type(h) is frozenset and h == sel.selected
        side, rest = edge_induced(g, h), edge_induced(g, g.edges - h)
        assert side.max_degree <= 3 and rest.max_degree <= g.max_degree - 2
        assert is_normal(side) and is_normal(rest)


def test_partition_p2_colors_each_edge_about_once(monkeypatch):
    # One coloring state lives through every level: the first level's fans
    # color every edge, and each level below colors only what the peel left
    # uncolored, so fans color the first level's edges and few more.
    calls = []
    fan = vizing._Fans.fan

    def counted(self, edges):
        edges = list(edges)
        cold = not any(self.col[v] for v in self.host.vertices)
        calls.append((cold, len(edges)))
        return fan(self, edges)

    def no_call(*args, **kwargs):
        raise AssertionError("partition_p2 called misra_gries")

    monkeypatch.setattr(vizing._Fans, "fan", counted)
    monkeypatch.setattr(partition, "misra_gries", no_call)
    g = complete(16)
    part = partition_p2(g)
    assert calls[0] == (True, g.edge_count)
    assert [cold for cold, _ in calls] == [True] + [False] * (part.k - 1)
    assert sum(fans for _, fans in calls) < 2 * g.edge_count


def _reference_graphs():
    # 35 graphs: G(n,p), r-regular with r >= 6, complete graphs, one whose
    # lower levels lose host vertices (gnp(80,0.15,2) keeps 69 of its 80
    # vertices at level 4), and one of the partition bench's size
    # (gnp(1000,0.03,1): m = 15081, 17 parts).
    yield from normal_gnp_corpus(12, 500, 20, 90, 6, 40, p_lo=0.1, p_hi=0.5)
    for r, n, seed in ((6, 20, 1), (6, 62, 2), (7, 24, 3), (8, 30, 4),
                       (9, 40, 5), (10, 24, 17), (12, 50, 6), (15, 60, 7),
                       (20, 64, 8), (6, 100, 9)):
        yield random_regular(n, r, seed)
    for n in (7, 8, 9, 12, 16, 21, 25, 30):
        yield complete(n)
    yield gnp(80, 0.15, 2)
    yield gnp(150, 0.2, 3)
    yield gnp(200, 0.1, 1)
    yield gnp(300, 0.05, 4)
    yield gnp(1000, 0.03, 1)


def test_partition_p2_matches_the_per_level_route():
    # The one coloring state and the incremental level graphs give the
    # parts and move logs of the per-level rebuild, level by level.
    graphs_seen = 0
    shrinking = False
    for g in _reference_graphs():
        assert is_normal(g) and g.max_degree >= 6
        logs, ref_logs = [], []
        part = partition_p2(g, trace=logs.append)
        ref = partition_p2_by_levels(g, trace=ref_logs.append)
        assert part.parts == ref.parts, g
        assert logs == ref_logs, g
        graphs_seen += 1
        # A level below the first whose remainder, still fanned, has lost
        # vertices of the host.
        shrinking |= any(
            len(edge_induced(g, frozenset().union(*part.parts[:i])).vertices)
            < len(g.vertices) for i in range(2, len(part.parts)))
    assert graphs_seen >= 30 and shrinking


def test_partition_p2_peels_leave_no_color_above_the_next_delta(
        monkeypatch):
    # A subcubic peel leaves a remainder of max degree Delta' >= Delta-3,
    # so the colors 4..Delta+1 it keeps, moved down by 3, are within
    # Delta'+1: no peel needs to cut a color.
    peel = vizing._Fans.peel
    levels = 0

    def checked(self, part, host):
        nonlocal levels
        todo = peel(self, part, host)
        top = self.base + host.max_degree + 1
        assert all(self.used[v].bit_length() - 1 <= top
                   for v in host.vertices)
        levels += 1
        return todo

    monkeypatch.setattr(vizing._Fans, "peel", checked)
    for g in _reference_graphs():
        partition_p2(g)
    assert levels > 100


def test_partition_p2_rejects_a_peel_above_max_degree_3(monkeypatch):
    # A peel of max degree 8 off K_16 leaves the 7-regular circulant with
    # offsets 5..8, so colors 12..16 of the level above stay above its
    # Delta'+1 = 8: the peel cuts no color, and the next level's
    # membership check rejects classes 1..3 of that coloring.
    g = complete(16)
    real = partition.partition_p1

    def peel_offsets_1_to_4(h, trace=None, coloring=None):
        if h.max_degree < 15:
            return real(h, trace=trace, coloring=coloring)
        return frozenset(e for e in h.edges if (e[1] - e[0]) % 16 in
                         (1, 2, 3, 4, 12, 13, 14, 15))

    monkeypatch.setattr(partition, "partition_p1", peel_offsets_1_to_4)
    rest = {e for e in g.edges if (e[1] - e[0]) % 16 in (5, 6, 7, 8, 9, 10,
                                                          11)}
    assert max(c for e, c in misra_gries(g).assignment.items()
               if e in rest) > 7 + 4
    with pytest.raises(InternalBoundViolationError,
                       match="initial selection is not a member"):
        partition_p2(g)


def test_partition_p1_refuses_a_coloring_of_another_host():
    # Classes 1..3 of K_9's coloring hold edges at vertex 8, which K_8 does
    # not have: the selection's host check refuses them.
    with pytest.raises(ValueError, match="not in host graph"):
        partition_p1(complete(8), coloring=vizing._Fans.cold(complete(9)))


def test_initial_selection_refuses_a_state_already_taken():
    # The second take finds classes 1..3 uncolored and selects no edge, so
    # no Delta-vertex has its two selected edges.
    g = complete(8)
    state = vizing._Fans.cold(g)
    assert not check_membership(g, initial_selection(g, state))
    with pytest.raises(InternalBoundViolationError,
                       match="initial selection is not a member"):
        initial_selection(g, state)


def test_take_built_selection_matches_the_recount_on_every_level(
        monkeypatch):
    # At every level of partition_p2, and from the cold state of
    # initial_selection(g), the selection built from the take holds the
    # degrees and isolated edges SubgraphSelection counts from the edges
    # taken, checked as it is built, before the engine moves.
    real = SubgraphSelection._from_take
    seen = []

    def from_take(host, fans):
        sel = real(host, fans)
        assert_same_selection(sel, SubgraphSelection(host, fans.taken))
        seen.append((host.edge_count, len(sel._iso_sel), len(sel._iso_unsel)))
        return sel

    monkeypatch.setattr(SubgraphSelection, "_from_take",
                        staticmethod(from_take))
    for g in [*normal_gnp_corpus(10, 2100, 16, 60, 6, 30, p_lo=0.1,
                                 p_hi=0.5),
              *(complete(n) for n in range(7, 13))]:
        start = len(seen)
        k = partition_p2(g).k
        assert len(seen) == start + k and seen[start][0] == g.edge_count
        initial_selection(g)
        assert len(seen) == start + k + 1 and seen[-1][0] == g.edge_count
    # Both sides had isolated edges to compare.
    assert sum(s for _, s, _ in seen) > 0 and sum(u for _, _, u in seen) > 0


def test_initial_selection_refuses_a_state_that_left_an_edge_uncolored():
    # The complement's isolated edges are read off the edges left colored,
    # so a state fanned over all but one edge would give a wrong potential:
    # the count of edges taken and left colored refuses it.
    g = complete(8)
    state = vizing._Fans(g)
    state.fan(sorted(g.edges)[:-1])
    with pytest.raises(ValueError, match="does not color every edge"):
        initial_selection(g, state)
    state = vizing._Fans(g)
    state.fan(sorted(g.edges))
    assert not check_membership(g, initial_selection(g, state))


def test_partition_p1_rejects_peel_over_degree_bound(monkeypatch):
    # Checked from the selection's degree counts, independently of the engine.
    # Every edge selected: potential zero, so the engine makes no move.
    monkeypatch.setattr(partition, "initial_selection",
                        lambda g, coloring=None: SubgraphSelection(g, g.edges))
    with pytest.raises(AssertionError, match="degree bounds"):
        partition_p1(complete(7))


def test_partition_p1_rejects_peel_with_isolated_edge(monkeypatch):
    # The selected edge (7,8) is isolated while every degree bound holds.
    g, sel = _k7_plus([(7, 8), (8, 9), (9, 10)], 4, [(7, 8)])
    monkeypatch.setattr(partition, "initial_selection",
                        lambda g, coloring=None: sel)
    monkeypatch.setattr(partition, "run_engine",
                        lambda g, sel, trace=None: [])
    with pytest.raises(AssertionError, match="isolated edge"):
        partition_p1(g)


def test_partition_p2_rejects_non_normal_remainder(monkeypatch):
    # A peel that leaves the isolated edge (8,9) behind as G_0.
    g = Graph(10, sorted(complete(7).edges) + [(7, 8), (8, 9)])
    monkeypatch.setattr(partition, "partition_p1",
                        lambda h, trace=None, coloring=None:
                        frozenset(h.edges - {(8, 9)}))
    with pytest.raises(AssertionError, match="G_0 is not normal"):
        partition_p2(g)


def test_partition_regular_case_table_small():
    # Every residue of r mod 3, below and from r = 10, where
    # avd_color_regular colors the grouping: each block is its run of
    # consecutive classes.
    table = {5: [3, 3], 6: [4, 3], 7: [4, 4], 8: [3, 3, 3], 9: [4, 3, 3],
             10: [4, 4, 3], 11: [3, 3, 3, 3], 12: [4, 3, 3, 3],
             13: [4, 4, 3, 3]}
    for r, sizes in table.items():
        n = 14 if (14 * r) % 2 == 0 else 15
        g = random_regular(n, r, seed=r + 30)
        classes = vizing.color_classes(misra_gries(g))
        part = partition_regular(g)
        assert len(part) == len(sizes)
        start = 0
        for block, sub, size in zip(part, part.part_graphs(), sizes):
            assert block == frozenset().union(*classes[start:start + size])
            start += size
            assert is_normal(sub)
            assert sub.max_degree <= size
        assert start == r + 1


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
        step_to_zero(g, sel)


@st.composite
def _scrambled_selections(draw):
    # Sparse graphs: low-degree vertices are where scrambling leaves
    # isolated edges for the engine to repair.
    g, = normal_gnp_corpus(1, draw(st.integers(0, 10**6)), 20, 40, 6, 12,
                           p_lo=0.12, p_hi=0.25)
    sel = initial_selection(g)
    rng = random.Random(draw(st.integers(0, 10**6)))
    scramble_selection(g, sel, rng, 2 * g.edge_count)
    return g, sel


@settings(max_examples=40, deadline=None)
@given(_scrambled_selections())
def test_engine_from_scrambled_selections(case):
    g, sel = case
    step_to_zero(g, sel)
    assert all(sel.deg(v) <= 3 and sel.codeg(v) <= g.max_degree - 2
               for v in g.vertices)
    assert is_normal(edge_induced(g, sel.selected))
    assert is_normal(edge_induced(g, g.edges - sel.selected))


# (seed, walk length) pairs from a sweep of dense_normal_graph: the engine's
# own runs grow the chain closure and apply its rewrites.
_CLOSURE_WALKS = ((125, 119), (222, 56), (1624, 45), (2331, 86))


def _closure_walk_states():
    for seed, steps in _CLOSURE_WALKS:
        rng = random.Random(seed)
        g = dense_normal_graph(rng)
        sel = initial_selection(g)
        scramble_selection(g, sel, rng, steps)
        yield g, sel


def test_engine_reaches_closure_moves_from_scrambled_selections():
    tags = set()
    for g, sel in _closure_walk_states():
        tags.update(move.witness for move in step_to_zero(g, sel))
    assert {"claims.drop", "claims.iswap", "claims.swap"} <= tags


def test_engine_stall_raises_counterexample(monkeypatch):
    # With every candidate rejected, the closure from the revisit state's
    # type-II origin saturates: its conforming ends are 0 (type II) and
    # 2, 4, 5 (type I), and 3 and the p-vertices 6..9 stay unresolved.
    g, sel = closure_revisit_state()
    monkeypatch.setattr(partition, "initial_selection",
                        lambda g, coloring=None: sel)
    monkeypatch.setattr(partition, "_first_valid", lambda g, sel, cands: None)
    with pytest.raises(CounterexampleFound) as info:
        partition_p1(g)
    assert "chain closure saturated" in str(info.value)
    payload = info.value.payload
    assert set(payload) == {"edgelist", "selection", "potential", "v1_set",
                            "v2_set", "unresolved", "move_log"}
    assert parse_graph(payload["edgelist"], "edgelist").edges == g.edges
    assert payload["potential"] == [1, 16]
    assert payload["selection"] == sorted(sel.selected)
    assert (payload["v1_set"], payload["v2_set"]) == ([2, 4, 5], [0])
    assert payload["unresolved"] == [3, 6, 7, 8, 9]
    assert payload["move_log"] == []


def test_engine_counterexample_carries_move_log(monkeypatch):
    # Any impossibility find_move reports leaves run_engine with the moves
    # applied before it.  This walk needs three moves (claim1.drop,
    # claim1.add, claim1.drop); the stub makes the third a stall.
    g, = normal_gnp_corpus(1, 29, 20, 40, 6, 12, p_lo=0.12, p_hi=0.25)
    sel = initial_selection(g)
    scramble_selection(g, sel, random.Random(23), 2 * g.edge_count)
    real, moves = partition.find_move, []

    def stall_after_two(g, sel):
        if len(moves) == 2:
            raise partition._counterexample("stalled", g, sel)
        moves.append(real(g, sel))
        return moves[-1]

    monkeypatch.setattr(partition, "find_move", stall_after_two)
    with pytest.raises(CounterexampleFound) as info:
        run_engine(g, sel)
    log = info.value.payload["move_log"]
    assert len(log) == 2
    assert [e["witness"] for e in log] == [m.witness for m in moves]
    assert info.value.payload["potential"] == log[-1]["potential_after"]


def test_engine_refuses_a_non_member_selection_on_its_failure_path():
    # Random selections break membership.  The engine still fixes most of
    # them, but a state it has no move for is reported as no member, with
    # its first violation, not as a counterexample to the argument.
    rng = random.Random(1)
    refused = 0
    for g in normal_gnp_corpus(30, 1, 12, 30, 6, 8, p_lo=0.2, p_hi=0.4):
        sel = SubgraphSelection(
            g, [e for e in sorted(g.edges) if rng.random() < 0.3])
        try:
            run_engine(g, sel)
        except ValueError as exc:
            (v, cond), *_ = check_membership(g, sel)
            assert str(exc) == (f"selection is not a member: vertex {v} "
                                f"breaks membership condition {cond}")
            refused += 1
    assert refused == 3


def test_stall_below_the_first_level_dumps_its_graph(monkeypatch):
    # Level 4 of this graph keeps the host's labels but only 69 of its 80
    # vertices, a vertex set graph6 cannot name.
    g = gnp(80, 0.15, 2)
    levels, stalled = [], []
    real_p1 = partition.partition_p1

    def counted(h, trace=None, coloring=None):
        levels.append(h)
        return real_p1(h, trace=trace, coloring=coloring)

    def stall_at_level_four(h, sel):
        if len(levels) == 4:
            stalled.append(h)
            raise partition._counterexample("stalled", h, sel)
        return find_move(h, sel)

    monkeypatch.setattr(partition, "partition_p1", counted)
    monkeypatch.setattr(partition, "find_move", stall_at_level_four)
    with pytest.raises(CounterexampleFound) as info:
        partition_p2(g)
    h, = stalled
    assert len(h.vertices) < g.n
    dumped = parse_graph(info.value.payload["edgelist"], "edgelist")
    assert dumped.edges == h.edges


def test_engine_trace_entries():
    g, sel = _k7_plus([(7, 8), (8, 9)], 3, [(7, 8)])
    entries = []
    log = run_engine(g, sel, trace=entries.append)
    assert entries and entries == log
    first = entries[0]
    assert set(first) == {"witness", "add", "remove",
                          "potential_before", "potential_after"}
    assert first["potential_after"] < first["potential_before"]


def test_partition_p1_trace_replays_to_its_selection():
    # The trace is a faithful log: replaying its edges on a fresh initial
    # selection reproduces every recorded potential and the selection side.
    tags = Counter()
    for g in normal_gnp_corpus(12, 378, 16, 40, 6, 12, p_lo=0.12, p_hi=0.3):
        entries = []
        h = partition_p1(g, trace=entries.append)
        sel = initial_selection(g)
        for entry in entries:
            assert set(entry) == {"witness", "add", "remove",
                                  "potential_before", "potential_after"}
            assert list(sel.potential()) == entry["potential_before"]
            for e in entry["add"]:
                sel.add(e)
            for e in entry["remove"]:
                sel.remove(e)
            assert list(sel.potential()) == entry["potential_after"]
        assert sel.selected == h
        tags.update(entry["witness"] for entry in entries)
    assert {"claim1.drop", "claim2.add", "claim2.drop"} <= set(tags)


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def test_engine_outputs_golden():
    # Pins the partition parts and the engine's moves, witness by witness,
    # on seeded graphs and scrambled selections: a refactor of the move
    # search must reproduce both exactly.
    graphs = normal_gnp_corpus(8, 100, 20, 50, 6, 12, p_lo=0.12, p_hi=0.35)
    parts = [[sorted(p) for p in partition_p2(g).parts] for g in graphs]
    rng = random.Random(7)
    logs = []
    for g in graphs:
        for _ in range(3):
            sel = initial_selection(g)
            scramble_selection(g, sel, rng, 2 * g.edge_count)
            logs.append([[e["witness"], e["add"], e["remove"]]
                         for e in run_engine(g, sel)])
    tags = Counter(entry[0] for log in logs for entry in log)
    assert tags == {"claim1.drop": 9, "claim1.add": 1, "claim2.add": 3}
    assert _sha256(parts) == (
        "739827f83d23c270fde71708f41568de3651d58433dfd3ca2fcf0ff0b6c67605")
    assert _sha256(logs) == (
        "b8aacae84c4604e35e0f982904ffb367e2a3b281e8f0f02c2aafc972cddb314f")


def test_closure_moves_golden():
    # Pins the moves the engine applies from the hand-built closure states
    # and the scrambled walks above, witness by witness: the closure paths
    # of one and two chains that the seeded corpora rarely reach.
    states = [_closure_swap_state(), _closure_swap_cleanup_state(),
              closure_revisit_state(), *_closure_walk_states()]
    logs = [[[m.witness, sorted(m.add_set), sorted(m.remove_set)]
             for m in step_to_zero(g, sel)] for g, sel in states]
    tags = Counter(entry[0] for log in logs for entry in log)
    assert tags == {"claims.drop": 3, "claims.swap": 2, "claims.iswap": 2,
                    "claim1.add": 2, "claims.swap-cleanup": 1}
    assert _sha256(logs) == (
        "ca941da71c497cf3028962cb3d919afbc950ba7de0ae822da257690fe503631a")
