"""Adjacent-vertex-distinguishing edge colorings with certificates.

A certificate bundles a coloring with enough witness data for independent
re-validation: the palette size, the bound the producing routine claims,
and one distinguishing color per adjacent equal-degree pair.

The exact searcher is a deterministic backtracker over edges (grouped per
vertex in breadth-first order, ascending colors, new colors introduced
only in order) that prunes on properness and on completed adjacent
equal-degree pairs.  Drivers route through the partition machinery and compose part
certificates over pairwise disjoint palettes.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .errors import (InternalBoundViolationError, NotNormalError,
                     SearchCapExceededError)
from .graphs import Edge, Graph, canon_edge, is_normal
from .partition import partition_p2, partition_regular
from .vizing import EdgeColoring, make_coloring
from . import verify

DEFAULT_NODE_CAP = 60_000
LADDER_NODE_CAP = 30_000
GUARANTEED_ATTEMPTS = 10


def main_bound(delta: int) -> int:
    """floor(5 (Delta + 2) / 2), the general certificate budget."""
    return (5 * (delta + 2)) // 2


def regular_bound(r: int) -> int:
    """floor((5 r + 37) / 3), the budget certified for r-regular graphs."""
    return (5 * r + 37) // 3


@dataclass(frozen=True)
class AvdCertificate:
    """A checked AVD edge coloring together with its claimed budget.

    ``parts`` are the edge sets the palettes were assigned over, in palette
    order: one set for a single search, the partition parts for a
    composition, and empty for a certificate read back from JSON.
    """

    coloring: EdgeColoring
    colors_used: int
    bound_claimed: int
    per_edge_witness: dict[Edge, int]
    parts: tuple[frozenset[Edge], ...] = ()

    def with_bound(self, bound: int) -> "AvdCertificate":
        if self.colors_used > bound:
            raise AssertionError(
                f"cannot claim bound {bound} with {self.colors_used} colors")
        return AvdCertificate(self.coloring, self.colors_used, bound,
                              self.per_edge_witness, self.parts)


def _witnesses(g: Graph, coloring: EdgeColoring) -> dict[Edge, int]:
    out: dict[Edge, int] = {}
    for u, v in g.sorted_edges():
        if g.degree(u) == g.degree(v):
            diff = sorted(coloring.colors_at(u) ^ coloring.colors_at(v))
            if not diff:
                raise AssertionError(
                    f"equal color sets at adjacent pair {(u, v)}")
            out[(u, v)] = diff[0]
    return out


def _certificate(g: Graph, assignment: dict[Edge, int],
                 bound: int) -> AvdCertificate:
    # Compact the palette onto 1..K preserving order.
    palette = sorted(set(assignment.values()))
    remap = {c: i for i, c in enumerate(palette, start=1)}
    coloring = make_coloring(g, {e: remap[c] for e, c in assignment.items()})
    return AvdCertificate(coloring, len(palette), bound,
                          _witnesses(g, coloring), (g.edges,))


def _vertex_major_order(g: Graph,
                        vertex_seq: list[int] | None = None) -> list[Edge]:
    """Edges grouped per vertex, vertices breadth-first from the lowest.

    A vertex completes soon after its first incident edge is reached, so
    the distinguishing constraint prunes near the mistakes that violate it;
    a scattered edge order lets conflicts surface far too late to matter.
    """
    if vertex_seq is None:
        vertex_seq = []
        seen: set[int] = set()
        for s in g.vertices:
            if s in seen:
                continue
            seen.add(s)
            queue = deque([s])
            while queue:
                v = queue.popleft()
                vertex_seq.append(v)
                for w in g.neighbors(v):
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
    order: list[Edge] = []
    listed: set[Edge] = set()
    for v in vertex_seq:
        for w in g.neighbors(v):
            e = canon_edge(v, w)
            if e not in listed:
                listed.add(e)
                order.append(e)
    return order


class _BudgetSearch:
    """Complete backtracking for an AVD coloring within a color budget."""

    def __init__(self, g: Graph, budget: int, order: list[Edge],
                 node_cap: int | None):
        self.g = g
        self.budget = budget
        self.edges = order
        self.node_cap = node_cap
        self.nodes = 0
        self.masks = {v: 0 for v in g.vertices}
        self.remaining = {v: g.degree(v) for v in g.vertices}
        self.eq_adj = {v: [w for w in g.neighbors(v)
                           if g.degree(w) == g.degree(v)]
                       for v in g.vertices}
        self.assign: dict[Edge, int] = {}

    def run(self) -> dict[Edge, int] | None:
        if self._extend(0, 0):
            return dict(self.assign)
        return None

    def _complete_ok(self, w: int) -> bool:
        if self.remaining[w] != 0:
            return True
        mw = self.masks[w]
        for x in self.eq_adj[w]:
            if self.remaining[x] == 0 and self.masks[x] == mw:
                return False
        return True

    def _extend(self, i: int, max_used: int) -> bool:
        if i == len(self.edges):
            return True
        u, v = self.edges[i]
        forbidden = self.masks[u] | self.masks[v]
        limit = min(self.budget, max_used + 1)
        for c in range(1, limit + 1):
            bit = 1 << c
            if forbidden & bit:
                continue
            self.nodes += 1
            if self.node_cap is not None and self.nodes > self.node_cap:
                raise SearchCapExceededError(
                    f"budget-{self.budget} search exceeded {self.node_cap} nodes")
            self.masks[u] |= bit
            self.masks[v] |= bit
            self.remaining[u] -= 1
            self.remaining[v] -= 1
            self.assign[(u, v)] = c
            if (self._complete_ok(u) and self._complete_ok(v)
                    and self._extend(i + 1, max(max_used, c))):
                return True
            del self.assign[(u, v)]
            self.remaining[u] += 1
            self.remaining[v] += 1
            self.masks[u] &= ~bit
            self.masks[v] &= ~bit
        return False


def avd_color_budget(g: Graph, budget: int, *, node_cap: int | None = None,
                     order: list[Edge] | None = None) -> AvdCertificate | None:
    """Exact search for an AVD coloring with at most ``budget`` colors.

    Returns None when no such coloring exists.  With the default
    ``node_cap=None`` the search is complete; a finite cap raises
    SearchCapExceededError instead of returning a wrong answer.
    """
    if not is_normal(g):
        raise NotNormalError("AVD colorings exist only for normal graphs")
    if budget < g.max_degree:
        raise ValueError(f"budget {budget} below max degree {g.max_degree}")
    if g.edge_count == 0:
        return AvdCertificate(make_coloring(g, {}), 0, budget, {})
    # Two adjacent vertices of degree equal to the budget would both see
    # every color, so no coloring can distinguish them.
    for u, v in g.edges:
        if g.degree(u) == g.degree(v) == budget:
            return None
    search = _BudgetSearch(g, budget, order or _vertex_major_order(g), node_cap)
    assignment = search.run()
    if assignment is None:
        return None
    return _certificate(g, assignment, budget)


def _shuffled_order(g: Graph, seed: int) -> list[Edge]:
    vseq = list(g.vertices)
    random.Random(seed).shuffle(vseq)
    return _vertex_major_order(g, vseq)


def _guaranteed_search(g: Graph, budget: int, context: str) -> AvdCertificate:
    """Search under a budget whose feasibility a cited bound guarantees.

    Hard instances restart with a reshuffled edge order and a doubled node
    cap; the final attempt runs uncapped.  A completed refutation means the
    guarantee failed and is reported as such.
    """
    cap: int | None = DEFAULT_NODE_CAP
    for attempt in range(GUARANTEED_ATTEMPTS + 1):
        order = (_vertex_major_order(g) if attempt == 0
                 else _shuffled_order(g, attempt))
        if attempt == GUARANTEED_ATTEMPTS:
            cap = None
        try:
            cert = avd_color_budget(g, budget, node_cap=cap, order=order)
        except SearchCapExceededError:
            cap = cap * 2 if cap is not None else None
            continue
        if cert is None:
            from .graph_io import emit_graph
            raise InternalBoundViolationError(
                f"budget {budget} refuted for {context}; this contradicts "
                "the cited bound and is reported as a counterexample",
                {"graph6": emit_graph(g, "graph6").decode("ascii"),
                 "budget": budget})
        return cert
    raise AssertionError("unreachable: final attempt is uncapped")


def avd_subcubic(g: Graph) -> AvdCertificate:
    """Certificate with at most 5 colors for a normal graph of max degree 3.

    Budgets ascend from the max degree; sub-5 budgets run under a node cap
    and are skipped when they time out (only minimality of the reported
    palette is affected).  Budget 5 must succeed.
    """
    if not is_normal(g):
        raise NotNormalError("subcubic AVD coloring requires a normal graph")
    if g.max_degree > 3:
        raise ValueError(f"max degree {g.max_degree} exceeds 3")
    if g.edge_count == 0:
        return AvdCertificate(make_coloring(g, {}), 0, 5, {})
    for budget in range(g.max_degree, 5):
        try:
            cert = avd_color_budget(g, budget, node_cap=LADDER_NODE_CAP)
        except SearchCapExceededError:
            continue
        if cert is not None:
            return cert.with_bound(5)
    return _guaranteed_search(g, 5, "a normal subcubic graph").with_bound(5)


def compose(parts: list[tuple[Graph, AvdCertificate]],
            host: Graph | None = None) -> AvdCertificate:
    """Merge part certificates over disjoint palettes into a host certificate.

    The parts must edge-partition the host and every part must be normal
    with a valid certificate.  Palettes are relabeled onto consecutive
    disjoint ranges in part order, so the result uses the sum of the part
    palette sizes, and its ``parts`` lists the part edge sets in that order.
    """
    if not parts:
        raise ValueError("nothing to compose")
    union: set[Edge] = set()
    total_edges = 0
    verts: set[int] = set()
    for part, cert in parts:
        if not is_normal(part):
            raise NotNormalError("every composed part must be normal")
        if cert.coloring.host.edges != part.edges:
            raise ValueError("certificate does not match its part graph")
        # check_avd raises ValueError on an improper coloring.
        ok, detail = verify.check_avd(part, cert.coloring)
        if not ok:
            raise ValueError(f"part certificate is not distinguishing: {detail}")
        union |= part.edges
        total_edges += part.edge_count
        verts |= set(part.vertices)
    if total_edges != len(union):
        raise ValueError("parts overlap")
    if host is None:
        n = 1 + max(verts)
        host = Graph(n, union, vertices=verts)
    elif union != host.edges:
        raise ValueError("parts do not cover the host edge set")
    merged: dict[Edge, int] = {}
    offset = 0
    for part, cert in parts:
        rank = {c: i for i, c in
                enumerate(sorted(cert.coloring.palette), start=1)}
        for e, c in cert.coloring.assignment.items():
            merged[e] = offset + rank[c]
        offset += len(rank)
    coloring = make_coloring(host, merged)
    ok, detail = verify.check_avd(host, coloring)
    if not ok:
        raise AssertionError(f"palette-disjoint composition failed: {detail}")
    bound = sum(cert.bound_claimed for _, cert in parts)
    return AvdCertificate(coloring, offset, bound, _witnesses(host, coloring),
                          tuple(part.edges for part, _ in parts))


def _color_bounded_part(part: Graph) -> AvdCertificate:
    if part.max_degree <= 3:
        return avd_subcubic(part)
    return _guaranteed_search(part, 3 * part.max_degree,
                              f"a part of max degree {part.max_degree}")


def avd_color(g: Graph, trace=None) -> AvdCertificate:
    """Certificate with at most floor(5 (Delta + 2) / 2) colors.

    Routing: subcubic graphs go to the 5-color searcher, max degree 4 or 5
    to an exact search with budget 3*Delta, and everything else through the
    recursive partition followed by palette-disjoint composition.  The
    certificate's ``parts`` is the partition it colored: the single edge set
    below max degree 6, else the parts of ``partition_p2(g)``.
    """
    if not is_normal(g):
        raise NotNormalError("AVD colorings exist only for normal graphs")
    delta = g.max_degree
    bound = main_bound(delta)
    if g.edge_count == 0:
        return AvdCertificate(make_coloring(g, {}), 0, bound, {})
    if delta <= 3:
        return avd_subcubic(g).with_bound(bound)
    if delta <= 5:
        return _guaranteed_search(g, 3 * delta,
                                  f"a graph of max degree {delta}").with_bound(bound)
    partition = partition_p2(g, trace=trace)
    colored = [(part, _color_bounded_part(part))
               for part in partition.part_graphs()]
    return compose(colored, host=g).with_bound(bound)


def avd_color_regular(g: Graph) -> AvdCertificate:
    """Certificate with at most floor((5 r + 37) / 3) colors for r-regular g."""
    if not g.vertices or not g.is_regular():
        raise ValueError("input graph is not regular")
    r = g.max_degree
    if r < 2:
        raise ValueError("regular driver requires degree >= 2")
    bound = regular_bound(r)
    if r <= 4:
        return avd_color(g).with_bound(bound)
    partition = partition_regular(g)
    colored = []
    for part in partition.part_graphs():
        if part.max_degree <= 3:
            colored.append((part, avd_subcubic(part)))
        else:
            colored.append((part, _guaranteed_search(
                part, 12, "a class block of max degree 4").with_bound(12)))
    return compose(colored, host=g).with_bound(bound)


# -- certificate serialization -------------------------------------------------


def certificate_to_dict(cert: AvdCertificate) -> dict:
    g = cert.coloring.host
    return {
        "type": "avd-certificate",
        "vertex_count": g.n,
        "colors_used": cert.colors_used,
        "bound_claimed": cert.bound_claimed,
        "edges": [[u, v, cert.coloring.assignment[(u, v)]]
                  for u, v in g.sorted_edges()],
        "vertex_color_sets": {str(v): sorted(cert.coloring.colors_at(v))
                              for v in g.vertices},
        "witnesses": [[u, v, c]
                      for (u, v), c in sorted(cert.per_edge_witness.items())],
    }


def certificate_from_dict(data: dict, host: Graph | None = None) -> AvdCertificate:
    if data.get("type") != "avd-certificate":
        raise ValueError("not an AVD certificate payload")
    assignment = {canon_edge(u, v): int(c) for u, v, c in data["edges"]}
    if host is None:
        host = Graph(int(data["vertex_count"]), assignment.keys())
    elif set(assignment) != set(host.edges):
        raise ValueError("certificate edges do not match the graph")
    coloring = make_coloring(host, assignment)
    witnesses = {canon_edge(u, v): int(c) for u, v, c in data["witnesses"]}
    return AvdCertificate(coloring, int(data["colors_used"]),
                          int(data["bound_claimed"]), witnesses)
