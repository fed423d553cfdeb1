"""Shared test utilities: independent recomputations and graph corpora."""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable

from avdcolor import (EdgeColoring, EdgePartition, Graph, SubgraphSelection,
                      SearchCapExceededError, canon_edge, check_membership,
                      complete, edge_induced, find_move, gnp, is_normal,
                      partition, random_regular)
from avdcolor.coloring import AvdCertificate, Edge, _certificate
from avdcolor.vizing import _Fans, relabeled


def girth(g: Graph):
    """Shortest cycle length via BFS from every vertex; None if acyclic."""
    best = None
    for s in g.vertices:
        dist = {s: 0}
        parent = {s: None}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w:
                    cyc = dist[v] + dist[w] + 1
                    if best is None or cyc < best:
                        best = cyc
    return best


def recompute_selection_state(sel: SubgraphSelection):
    """From-scratch recomputation of the incremental bookkeeping."""
    host = sel.host
    deg = {v: 0 for v in host.vertices}
    for u, v in sel.selected:
        deg[u] += 1
        deg[v] += 1
    iso_sel = {e for e in sel.selected if deg[e[0]] == 1 and deg[e[1]] == 1}
    codeg = {v: host.degree(v) - deg[v] for v in host.vertices}
    iso_unsel = {e for e in host.edges - sel.selected
                 if codeg[e[0]] == 1 and codeg[e[1]] == 1}
    return deg, iso_sel, iso_unsel


def isolated_edges(sel: SubgraphSelection) -> tuple[set[Edge], set[Edge]]:
    """The selection's own isolated-edge sets, of H and of its complement."""
    return sel._iso_sel, sel._iso_unsel


def assert_same_selection(sel: SubgraphSelection, ref: SubgraphSelection):
    """``sel`` holds the edges, degrees and isolated-edge sets of ``ref``,
    on the same host."""
    assert sel.host is ref.host
    assert sel._selected == ref._selected
    assert sel._deg == ref._deg
    assert sel._iso_sel == ref._iso_sel
    assert sel._iso_unsel == ref._iso_unsel


class _Conditions:
    """The five conditions of the vertex typing, from their definitions:
    selection degrees recounted from the selected edges, degrees and
    neighbors from the host."""

    def __init__(self, g: Graph, sel: SubgraphSelection):
        self.g, self.h = g, sel.selected
        self.d = recompute_selection_state(sel)[0]

    def side(self, v: int, selected: bool) -> list[int]:
        return [w for w in self.g.neighbors(v)
                if (canon_edge(v, w) in self.h) == selected]

    def codeg(self, v: int) -> int:
        return self.g.degree(v) - self.d[v]

    def c1(self, u: int) -> bool:
        return self.d[u] == 3

    def c2(self, u: int) -> bool:
        return self.d[u] == 2 and self.codeg(u) == 2

    def c3(self, u: int, v: int) -> int | None:
        # The far end w of the complement path v-u-w, when u has selection
        # degree <= 1 and complement degree 2, and w has complement degree
        # 1 and selection degree 3.
        if self.d[u] > 1 or self.codeg(u) != 2:
            return None
        w, = (x for x in self.side(u, False) if x != v)
        return w if self.codeg(w) == 1 and self.d[w] == 3 else None

    def c4(self, v: int) -> bool:
        g = self.g
        return 1 <= self.d[v] <= 2 and g.degree(v) >= g.max_degree - 1

    def c5(self, v: int, u: int) -> int | None:
        # The far end w of the selected path u-v-w, when v has selection
        # degree 2 and degree < Delta-1, and w has selection degree 1 and
        # degree Delta-1.
        delta = self.g.max_degree
        if self.d[v] != 2 or self.g.degree(v) >= delta - 1:
            return None
        w, = (x for x in self.side(v, True) if x != u)
        return w if self.d[w] == 1 and self.g.degree(w) == delta - 1 else None


def chains_reference(g: Graph, sel: SubgraphSelection, v: int,
                     type_i: bool) -> list[tuple[int, ...]]:
    """The chains from ``v`` as vertex paths, in ascending order of their
    second vertex: complement chains for a type-I end (``type_i``),
    selected chains for a type-II end.  A neighbor on that side that
    starts no chain is a failing witness of ``v``'s type test."""
    c = _Conditions(g, sel)
    chains = []
    for u in c.side(v, not type_i):
        if (c.c1(u) or c.c2(u)) if type_i else c.c4(u):
            chains.append((v, u))
        elif (w := c.c3(u, v) if type_i else c.c5(u, v)) is not None:
            chains.append((v, u, w))
    return chains


def vertex_type_reference(g: Graph, sel: SubgraphSelection, v: int) -> str:
    """"type-I", "type-II" or "neither", from the definitions.

    Type I: condition 4 at ``v``, and each complement neighbor u meets
    condition 1, 2 or 3.  Type II: condition 1 or 2 at ``v``, and each
    selected neighbor meets condition 4 or 5.  The two never both hold
    for Delta >= 6; that is asserted.
    """
    c = _Conditions(g, sel)
    t1 = c.c4(v) and all(c.c1(u) or c.c2(u) or c.c3(u, v) is not None
                         for u in c.side(v, False))
    t2 = (c.c1(v) or c.c2(v)) and all(c.c4(u) or c.c5(u, v) is not None
                                      for u in c.side(v, True))
    assert not (t1 and t2), f"vertex {v} is of both types"
    return "type-I" if t1 else "type-II" if t2 else "neither"


def normal_gnp_corpus(count: int, seed0: int, n_lo: int, n_hi: int,
                      d_lo: int, d_hi: int, p_lo=0.06, p_hi=0.55):
    """Deterministic stream of normal random graphs with bounded max degree."""
    out = []
    seed = seed0
    while len(out) < count:
        rng = random.Random(seed)
        n = rng.randint(n_lo, n_hi)
        p = rng.uniform(p_lo, p_hi)
        g = gnp(n, p, seed)
        seed += 1
        if is_normal(g) and d_lo <= g.max_degree <= d_hi and g.edge_count:
            out.append(g)
    return out


def dense_normal_graph(rng: random.Random) -> Graph | None:
    """A complete(7..10) minus random edges, or a 6..8-regular graph minus a
    random matching; None unless normal with max degree >= 6.

    Both leave many vertices of degree Delta-1 next to Delta-vertices, the
    shape on which the engine's chain closure finds its moves.
    """
    if rng.random() < 0.5:
        n = rng.randint(7, 10)
        edges = sorted(complete(n).edges)
        drop = set(rng.sample(edges, rng.randint(1, n)))
        g = Graph(n, [e for e in edges if e not in drop])
    else:
        r = rng.randint(6, 8)
        n = rng.choice([n for n in range(r + 2, 17) if n * r % 2 == 0])
        g = random_regular(n, r, rng.randrange(10**6))
        edges = sorted(g.edges)
        rng.shuffle(edges)
        used: set[int] = set()
        drop = set()
        for u, v in edges[:rng.randint(1, n)]:
            if u not in used and v not in used:
                used.update((u, v))
                drop.add((u, v))
        g = Graph(n, [e for e in sorted(g.edges) if e not in drop])
    return g if is_normal(g) and g.max_degree >= 6 else None


def scramble_selection(g: Graph, sel: SubgraphSelection, rng: random.Random,
                       steps: int) -> None:
    """Random membership-preserving walk; tends to manufacture isolated edges."""
    edges = sorted(g.edges)
    delta = g.max_degree
    for _ in range(steps):
        e = rng.choice(edges)
        u, v = e
        if sel.is_selected(e) and rng.random() < 0.7:
            ok = True
            for w in (u, v):
                d_after = sel.deg(w) - 1
                if g.degree(w) == delta and d_after < 2:
                    ok = False
                if g.degree(w) == delta - 1 and d_after < 1:
                    ok = False
            if ok:
                sel.remove(e)
        elif not sel.is_selected(e):
            if sel.deg(u) <= 2 and sel.deg(v) <= 2:
                sel.add(e)


def step_to_zero(g: Graph, sel: SubgraphSelection) -> list:
    """Apply ``find_move`` until the potential's first component is zero,
    asserting membership and a strictly lower potential after every move;
    return the moves."""
    moves = []
    pot = sel.potential()
    while pot[0]:
        moves.append(find_move(g, sel))
        assert not check_membership(g, sel)
        assert sel.potential() < pot
        pot = sel.potential()
    return moves


def closure_revisit_state() -> tuple[Graph, SubgraphSelection]:
    """A member selection whose one isolated edge only the chain closure can
    fix, and whose closure has conforming ends of both types.

    Type-II origin 0 (isolated complement edge (0,1)) with conforming
    selected neighbors 2 and 4 and the (2,2) vertex 3, whose partner 5 has
    selection degree 1.  The closure grows 0 => 2 => 3, and 3 fails its
    type-II test with the origin as witness.  The p-vertices 6..9 carry
    three pendant selected edges each.
    """
    edges_sel = [(0, 2), (0, 3), (0, 4), (3, 5)]
    for p, base in ((6, 10), (7, 13), (8, 16), (9, 19)):
        edges_sel += [(p, base), (p, base + 1), (p, base + 2)]
    edges_unsel = [(0, 1), (2, 3), (3, 4), (5, 9)]
    edges_unsel += [(v, p) for v in (2, 4, 5) for p in (6, 7, 8)]
    g = Graph(22, edges_sel + edges_unsel)
    return g, SubgraphSelection(g, edges_sel)


def isolated_edge_block(blocks: list) -> list:
    """``blocks`` with the least edge of the first moved into a block of
    its own, ahead of the others: a grouping with an isolated-edge block."""
    e = min(blocks[0])
    return [{e}, blocks[0] - {e}, *blocks[1:]]


def exhaust_searches(monkeypatch,
                     armed: list | None = None) -> list[tuple[int, int | None]]:
    """Make budgeted coloring searches hit their node cap.

    Every search does, or with ``armed`` given only those made while that
    list is non-empty; the others run for real.  The repair that runs
    before each search of a part's budget ladder fails at the same times,
    so the searches are reached.  ``coloring.GUARANTEED_UNITS`` is set to
    1: a guaranteed search on a small part then spends its node budget in
    hundreds of 2m-node attempts, not tens of thousands.  Returns the list
    each capped call appends its (budget, node_cap) to.
    """
    from avdcolor import SearchCapExceededError, coloring

    calls: list[tuple[int, int | None]] = []
    search, repair = coloring.avd_color_budget, coloring._repair

    def capped(g, budget, *, node_cap=None, order=None):
        if armed is not None and not armed:
            return search(g, budget, node_cap=node_cap, order=order)
        calls.append((budget, node_cap))
        raise SearchCapExceededError(
            f"budget-{budget} search exceeded {node_cap} nodes")

    def failed(g, budget, start):
        if armed is not None and not armed:
            return repair(g, budget, start)
        return None

    monkeypatch.setattr(coloring, "avd_color_budget", capped)
    monkeypatch.setattr(coloring, "_repair", failed)
    monkeypatch.setattr(coloring, "GUARANTEED_UNITS", 1)
    return calls


def warm_fans(g: Graph, start: dict) -> _Fans:
    """A fresh coloring state of ``g`` extended from ``start``, a partial
    proper coloring (edge -> color in 1..Delta+1): the start is painted,
    and the uncolored edges are fanned in sorted order.  This is the warm
    fan path ``partition_p2`` runs on every level below the first."""
    fans = _Fans(g)
    for (u, v), c in start.items():
        fans.paint(u, v, c)
    fans.fan(sorted(g.edges - start.keys()))
    return fans


def fans_coloring(fans: _Fans) -> EdgeColoring:
    """The coloring a state of base 0 holds, as an ``EdgeColoring``."""
    return EdgeColoring(fans.host, {(v, w): c for v in fans.host.vertices
                                    for w, c in fans.col[v].items() if v < w})


def partition_p2_by_levels(g: Graph, trace=None) -> EdgePartition:
    """``partition_p2`` by its per-level route, the reference for the one
    coloring state it keeps: each level's graph is ``edge_induced`` on the
    remainder, and its coloring is a fresh state extended from a carry dict
    (``warm_fans``; colors 4..Delta'+4 on the remainder, moved down by 3).
    The normality checks are ``partition_p2``'s, left out here."""
    peels = []
    rest = g
    carry: dict = {}
    while rest.max_degree > 5:
        fans = warm_fans(rest, carry)
        h_edges = partition.partition_p1(rest, trace=trace, coloring=fans)
        h_edges, hbar_edges = EdgePartition(
            rest, [h_edges, rest.edges - h_edges]).parts
        peels.append(h_edges)
        rest = edge_induced(rest, hbar_edges)
        top = rest.max_degree + 4  # colors 4..top become 1..Delta'+1
        carry = {e: c - 3 for e, c in fans_coloring(fans).assignment.items()
                 if 3 < c <= top and e in hbar_edges}
    return EdgePartition(g, [rest.edges, *reversed(peels)])


# The Misra-Gries coloring state as it was before its per-vertex dicts
# became lists indexed by vertex label and ``fan`` gained its one-edge
# fast path, kept verbatim as the reference the rewrite must match state
# for state (tests/test_vizing.py).


class FansReference:
    """A partial proper edge coloring of ``host`` in Misra-Gries's maps.

    ``col[v][w]`` is the color of vw and ``at[v][c]`` is v's neighbor across
    color c.  Colors are stored absolute over ``base``: absolute color c is
    color c - base, so moving every color down by 3 is ``base += 3``.  Bit c
    of ``used[v]`` is set when c is at v, and bits 0..base always are, so
    the lowest clear bit of a mask is the smallest color it leaves free.

    ``cold`` builds the state of a whole coloring, ``misra_gries``'s;
    ``partition_p2`` keeps one state through every level of its peel
    (``peel``), so each level fans only the edges the level above left
    uncolored: those of classes 1..3 that it did not peel.
    """

    __slots__ = ("host", "col", "at", "used", "base")

    def __init__(self, host: Graph):
        self.host = host
        self.col: dict[int, dict[int, int]] = {v: {} for v in host.vertices}
        self.at: dict[int, dict[int, int]] = {v: {} for v in host.vertices}
        self.used = dict.fromkeys(host.vertices, 1)
        self.base = 0

    @classmethod
    def cold(cls, host: Graph) -> FansReference:
        """Every edge of ``host`` fanned in sorted order, colors on 1..K."""
        fans = cls(host)
        fans.fan(host.sorted_edges())
        fans.compact()
        return fans

    def paint(self, u: int, v: int, c: int) -> None:
        """Color the uncolored edge uv with absolute c, free at both ends."""
        self.col[u][v] = self.col[v][u] = c
        self.at[u][c] = v
        self.at[v][c] = u
        self.used[u] |= 1 << c
        self.used[v] |= 1 << c

    def uncolor(self, u: int, v: int) -> None:
        c = self.col[u].pop(v)
        del self.col[v][u], self.at[u][c], self.at[v][c]
        self.used[u] ^= 1 << c
        self.used[v] ^= 1 << c

    def fan(self, edges: Iterable[Edge]) -> None:
        """Color the uncolored ``edges`` of ``host``, in order, by fans.

        Misra-Gries fans with deterministic tie-breaking in colors
        1..Delta+1 (see ``misra_gries``).  Path swaps and rotations may
        recolor colored edges; an edge colored here stays colored.
        """
        g = self.host
        col, at, used = self.col, self.at, self.used
        k = g.max_degree + 1
        top = self.base + k
        m = g.edge_count
        paint = self.paint

        def lowest_free(mask: int) -> int:
            # The lowest clear bit: the smallest color the mask leaves free.
            return (~mask & (mask + 1)).bit_length() - 1

        def free(v: int) -> int:
            c = lowest_free(used[v])
            if c > top:
                raise AssertionError(f"no free color at {v} with k={k}")
            return c

        def recolor(batch: list[tuple[int, int, int]]) -> None:
            # Uncolor everything first: a sequential rewrite would transiently
            # give a vertex two edges of one color and corrupt ``at``.
            for u, v, _ in batch:
                if v in col[u]:
                    self.uncolor(u, v)
            for u, v, c in batch:
                paint(u, v, c)

        # Anchor at the lower endpoint.
        for x, f in edges:
            colx = col[x]
            # Fan of x from f: each step takes the lowest colored neighbor not
            # yet in the fan whose color is free at the fan's last vertex, so a
            # taken entry leaves the candidate list for good.  The fan stops at
            # its first vertex sharing a free color with x; d is the smallest.
            fan = [f]
            cands = None
            while (d := lowest_free(used[x] | used[fan[-1]])) > top:
                if cands is None:
                    cands = [(w, colx[w]) for w in g.neighbors(x) if w in colx]
                last = used[fan[-1]]
                for i, (w, cw) in enumerate(cands):
                    if not last >> cw & 1:
                        del cands[i]
                        fan.append(w)
                        break
                else:
                    # A maximal fan with no color free at both x and its last
                    # vertex: swap d and c on the maximal d/c path from x.  x
                    # misses c, so the path is no cycle and ends before it holds
                    # every edge.
                    c = free(x)
                    d = free(fan[-1])
                    path = []
                    cur, want, other = x, d, c
                    while (nxt := at[cur].get(want)) is not None:
                        path.append((cur, nxt, other))
                        if len(path) == m:
                            raise AssertionError("alternating path does not end")
                        cur, want, other = nxt, other, want
                    recolor(path)
                    break
            if len(fan) == 1:
                # A swap needs a fan of two or more, so this fan stopped at
                # once: f itself shares d with x.  Most fans do.  ``paint``,
                # inline.
                colx[f] = col[f][x] = d
                at[x][d] = f
                at[f][d] = x
                used[x] |= 1 << d
                used[f] |= 1 << d
                continue
            # d is free at x; rotate the first fan prefix ending at a vertex
            # where d is free.  After a path swap the prefix must still be a fan
            # under the swapped colors; after an early stop it is the whole fan.
            for j, w in enumerate(fan):
                if j > 0 and used[fan[j - 1]] >> colx[w] & 1:
                    raise AssertionError("path swap broke the fan prefix")
                if not used[w] >> d & 1:
                    break
            else:
                raise AssertionError("fan rotation target missing")
            # Shift each fan edge's color down, then finish with d.
            recolor([(x, fan[i], colx[fan[i + 1]]) for i in range(j)]
                    + [(x, w, d)])

    def compact(self) -> int:
        """Map the colors onto 1..K in their order, as ``relabeled`` does;
        return K.  Only a palette with a gap is rewritten."""
        base, col, at, used = self.base, self.col, self.at, self.used
        vertices = self.host.vertices
        palette = 0
        for v in vertices:
            palette |= used[v]
        palette >>= base + 1
        k = palette.bit_length()
        if palette == (1 << k) - 1:
            return k
        rank: dict[int, int] = {}
        for i in range(k):
            if palette >> i & 1:
                rank[base + 1 + i] = base + 1 + len(rank)
        floor = (1 << base + 1) - 1
        for v in vertices:
            col[v] = {w: rank[c] for w, c in col[v].items()}
            at[v] = {rank[c]: w for c, w in at[v].items()}
            used[v] = floor | sum(1 << c for c in at[v])
        return len(rank)

    def edges_upto(self, k: int) -> list[Edge]:
        """The edges of colors 1..k, in order, read from ``at`` in O(nk)."""
        out = []
        at, used = self.at, self.used
        lo = self.base + 1
        bits = (1 << k) - 1
        for v in self.host.vertices:
            if used[v] >> lo & bits:
                at_v = at[v]
                for c in range(lo, lo + k):
                    w = at_v.get(c)
                    if w is not None and v < w:
                        out.append((v, w))
        return out

    def peel(self, part: frozenset[Edge], host: Graph) -> list[Edge]:
        """Move to ``host``, the host less the edges of ``part``.

        Uncolors ``part`` and what is left of classes 1..3 and moves every
        color down by 3.  What stays colored is a partial proper coloring of
        ``host``; returns its uncolored edges in order, the ones ``fan`` is
        to color.  A part of max degree at most 3, as ``partition_p1``
        peels, leaves ``host`` a Delta' of at least Delta-3, so colors
        1..Delta+1 move down to at most Delta-2 <= Delta'+1: no color is
        left above ``host``'s Delta'+1.
        """
        col, at, used = self.col, self.at, self.used
        # Both loops are ``uncolor``, inline.
        for u, v in part:
            c = col[u].pop(v)
            del col[v][u], at[u][c], at[v][c]
            used[u] ^= 1 << c
            used[v] ^= 1 << c
        self.host = host
        todo = self.edges_upto(3)
        for u, v in todo:
            c = col[u].pop(v)
            del col[v][u], at[u][c], at[v][c]
            used[u] ^= 1 << c
            used[v] ^= 1 << c
        self.base += 3
        floor = (1 << self.base + 1) - 1
        for v in host.vertices:
            used[v] |= floor
        todo.sort()
        return todo


# The two part-coloring kernels as they were before their inner loops were
# rewritten for speed, kept verbatim as the reference the rewrite must match
# decision for decision (tests/test_coloring.py).


def search_reference(g: Graph, budget: int, order: list[Edge],
                     node_cap: int | None) -> dict[Edge, int] | None:
    """Complete backtracking for an AVD coloring within a color budget.

    Edges are colored in ``order``; ``color[i]`` is the color edge i holds
    and ``used[i]`` the largest color on the edges before it, so a new
    color is only ever the next unused one.  An edge whose color completes
    an undistinguished pair, or an edge that is backtracked to, resumes at
    the color after the one it held.  Every color placed counts as a node.
    """
    masks = {v: 0 for v in g.vertices}
    remaining = {v: g.degree(v) for v in g.vertices}
    eq_adj = {v: [w for w in g.neighbors(v) if g.degree(w) == g.degree(v)]
              for v in g.vertices}

    def complete_ok(w: int) -> bool:
        # A plain loop: any() over a generator is measurably slower here.
        if remaining[w] != 0:
            return True
        mw = masks[w]
        for x in eq_adj[w]:
            if remaining[x] == 0 and masks[x] == mw:
                return False
        return True

    m = len(order)
    color = [0] * m
    used = [0] * (m + 1)
    nodes = 0
    i = 0
    while 0 <= i < m:
        u, v = order[i]
        c = color[i]
        if c:
            bit = 1 << c
            masks[u] &= ~bit
            masks[v] &= ~bit
            remaining[u] += 1
            remaining[v] += 1
        forbidden = masks[u] | masks[v]
        limit = min(budget, used[i] + 1)
        c += 1
        while c <= limit and forbidden >> c & 1:
            c += 1
        if c > limit:
            color[i] = 0
            i -= 1
            continue
        nodes += 1
        if node_cap is not None and nodes > node_cap:
            raise SearchCapExceededError(
                f"budget-{budget} search exceeded {node_cap} nodes")
        bit = 1 << c
        masks[u] |= bit
        masks[v] |= bit
        remaining[u] -= 1
        remaining[v] -= 1
        color[i] = c
        if complete_ok(u) and complete_ok(v):
            used[i + 1] = max(used[i], c)
            i += 1
    return dict(zip(order, color)) if i == m else None


def vertex_major_order_reference(g: Graph,
                                 vertex_seq: list[int] | None = None
                                 ) -> list[Edge]:
    """Edges grouped per vertex, vertices breadth-first from the lowest;
    the set-and-deque version the list-indexed one must match."""
    adj = g.adjacency
    if vertex_seq is None:
        vertex_seq = []
        seen: set[int] = set()
        for s in adj:
            if s in seen:
                continue
            seen.add(s)
            queue = deque([s])
            while queue:
                v = queue.popleft()
                vertex_seq.append(v)
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
    # An edge is listed at whichever of its ends comes first.
    order: list[Edge] = []
    done: set[int] = set()
    for v in vertex_seq:
        done.add(v)
        order += [(v, w) if v < w else (w, v) for w in adj[v]
                  if w not in done]
    return order


def repair_reference(g: Graph, budget: int,
                     start: EdgeColoring) -> AvdCertificate | None:
    """Min-conflicts repair of a proper coloring into an AVD one.

    Starts from ``start`` when it uses at most ``budget`` colors.  A
    conflict is an adjacent equal-degree pair with equal color sets.  Each
    step takes a random conflict and, at either of its ends x, considers
    every swap of the a/b Kempe chain from x, for a color a at x and a
    color b <= budget missing there (Minton et al. 1992).  The chain is a
    path from x to some y, so the swap keeps the coloring proper and
    changes only the color sets of x and y; the swap that lowers the
    conflicts at x and y the most is made, ties broken by a fixed-seed
    generator, and the a/b swaps at x and y are then tabu for 7 steps.
    Returns None after 2m steps without an AVD coloring.  Callers start at
    ``_lower_bound(g)``, so no budget is one that two adjacent vertices of
    degree ``budget`` make impossible.
    """
    if start.colors_used > budget:
        return None
    # at[v][c] is v's neighbor across color c; mask[v] has bit c for c at v.
    at: dict[int, dict[int, int]] = {v: {} for v in g.vertices}
    mask = {v: 0 for v in g.vertices}
    for (u, v), c in start.assignment.items():
        at[u][c], at[v][c] = v, u
        mask[u] |= 1 << c
        mask[v] |= 1 << c
    eq = {v: [w for w in g.neighbors(v) if g.degree(w) == g.degree(v)]
          for v in g.vertices}
    conflicts: list[Edge] = []
    slot: dict[Edge, int] = {}

    def mark(x: int) -> None:
        # Bring the conflicts on x's equal-degree pairs up to date.
        for w in eq[x]:
            e = canon_edge(x, w)
            if mask[x] == mask[w]:
                if e not in slot:
                    slot[e] = len(conflicts)
                    conflicts.append(e)
            elif e in slot:
                last = conflicts.pop()
                i = slot.pop(e)
                if last != e:
                    conflicts[i] = last
                    slot[last] = i

    def clashes(x: int, mx: int, y: int, my: int) -> int:
        # Conflicts on the pairs at x or y, were their masks mx and my.
        n = 0
        for w in eq[x]:
            n += (my if w == y else mask[w]) == mx
        for w in eq[y]:
            n += w != x and mask[w] == my
        return n

    def chain(x: int, a: int, b: int) -> list[int]:
        # x has a and misses b, so its a/b chain is a path, never a cycle.
        path = [x]
        while (nxt := at[path[-1]].get(a)) is not None:
            path.append(nxt)
            a, b = b, a
        return path

    for v in g.vertices:
        mark(v)
    rng = random.Random(budget)
    tabu: dict[tuple[int, int], int] = {}
    for step in range(2 * g.edge_count):
        if not conflicts:
            break
        best, ties = None, []
        for x in conflicts[rng.randrange(len(conflicts))]:
            for a in at[x]:
                for b in range(1, budget + 1):
                    ab = 1 << a | 1 << b
                    if mask[x] >> b & 1 or tabu.get((x, ab), -1) > step:
                        continue
                    path = chain(x, a, b)
                    y = path[-1]
                    score = (clashes(x, mask[x] ^ ab, y, mask[y] ^ ab)
                             - clashes(x, mask[x], y, mask[y]))
                    if best is None or score < best:
                        best, ties = score, []
                    if score == best:
                        ties.append((path, a, b, ab))
        if not ties:
            continue
        path, a, b, ab = rng.choice(ties)
        for v in path:
            ta, tb = at[v].pop(a, None), at[v].pop(b, None)
            if ta is not None:
                at[v][b] = ta
            if tb is not None:
                at[v][a] = tb
        for v in (path[0], path[-1]):
            mask[v] ^= ab
            tabu[v, ab] = step + 7
        mark(path[0])
        mark(path[-1])
    if conflicts:
        return None
    return _certificate(g, relabeled({(u, v): c for u in g.vertices
                                      for c, v in at[u].items() if u < v}),
                        budget, (g.edges,))


# The independent checkers as they were before their one-pass bitmask
# rewrite, kept verbatim as the reference the rewrite must match row for
# row, detail for detail and exception for exception (tests/test_verify.py).


def check_proper_reference(g: Graph, coloring: EdgeColoring):
    """True iff incident edges never share a color; else a violating pair."""
    if set(coloring.assignment) != set(g.edges):
        raise ValueError("coloring does not assign exactly the graph's edges")
    for v in g.vertices:
        seen: dict[int, tuple[int, int]] = {}
        for w in g.neighbors(v):
            e = canon_edge(v, w)
            c = coloring.assignment[e]
            if c in seen:
                return False, (seen[c], e)
            seen[c] = e
    return True, None


def check_avd_reference(g: Graph, coloring: EdgeColoring):
    """True iff adjacent vertices carry distinct incident color sets."""
    ok, detail = check_proper_reference(g, coloring)
    if not ok:
        raise ValueError(f"input coloring is not proper: {detail}")
    return distinguishing_reference(g, color_sets_reference(g, coloring))


def color_sets_reference(g: Graph, coloring: EdgeColoring) -> dict:
    """C(v) at every vertex: the colors of the edges at v, read off the
    assignment."""
    sets: dict[int, set[int]] = {v: set() for v in g.vertices}
    for (u, v), c in coloring.assignment.items():
        sets[u].add(c)
        sets[v].add(c)
    return {v: frozenset(cs) for v, cs in sets.items()}


def distinguishing_reference(g: Graph, sets: dict):
    """``check_avd`` on the color sets of a coloring already found proper."""
    for u, v in g.sorted_edges():
        if sets[u] == sets[v]:
            return False, (u, v, sets[u])
    return True, None


def check_certificate_reference(g: Graph,
                                cert) -> list[tuple[str, bool, object]]:
    """Re-validate a certificate for ``g``: one (name, ok, detail) row per check.

    The coloring must be proper and distinguishing, and ``colors_used``
    must be its palette size and within ``bound_claimed``.
    """
    rows = []
    ok, detail = check_proper_reference(g, cert.coloring)
    rows.append(("proper", ok, detail))
    if ok:
        avd_ok, avd_detail = distinguishing_reference(
            g, color_sets_reference(g, cert.coloring))
    else:
        avd_ok, avd_detail = False, "skipped (not proper)"
    rows.append(("adjacent-vertex-distinguishing", avd_ok, avd_detail))
    rows.append(("colors_used matches palette",
                 cert.colors_used == cert.coloring.colors_used, ""))
    rows.append(("colors_used within bound",
                 cert.colors_used <= cert.bound_claimed, ""))
    return rows


def check_partition_reference(g: Graph, parts) -> list[tuple[str, bool, str]]:
    """Check an edge partition as ``partition_p2`` builds it: one row per check.

    The parts must cover the edges of ``g`` disjointly, G_0 must have max
    degree at most 5, the later parts at most 3, every part must be normal,
    and k (the index of the last part) at most floor(Delta/2) - 2.  For
    Delta >= 6 the last part is the peel H of the first two-part split and
    the other parts together are its complement.
    """
    delta = g.max_degree
    union = frozenset().union(*parts)
    covered = (all(parts) and union == g.edges
               and sum(map(len, parts)) == len(union))
    rows = [("parts partition the edge set", covered, f"{len(parts)} parts")]
    if not covered:
        return rows
    graphs = [edge_induced(g, p) for p in parts]
    if delta >= 6:
        h, hbar = graphs[-1], edge_induced(g, union - parts[-1])
        rows.append(("partition: selection side max degree <= 3",
                     h.max_degree <= 3, f"max {h.max_degree}"))
        rows.append((f"partition: complement max degree <= {delta - 2}",
                     hbar.max_degree <= delta - 2, f"max {hbar.max_degree}"))
        rows.append(("partition: both sides normal",
                     is_normal(h) and is_normal(hbar), ""))
    k = len(parts) - 1
    k_bound = max(delta // 2 - 2, 0)
    rows.append((f"recursion depth k = {k} <= {k_bound}", k <= k_bound, ""))
    rows.append(("G0 max degree <= 5", graphs[0].max_degree <= 5,
                 f"max {graphs[0].max_degree}"))
    rows.append(("later parts subcubic",
                 all(p.max_degree <= 3 for p in graphs[1:]), ""))
    rows.append(("all parts normal", all(is_normal(p) for p in graphs), ""))
    return rows
