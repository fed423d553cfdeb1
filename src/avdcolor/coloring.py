"""Adjacent-vertex-distinguishing edge colorings with certificates.

A certificate is a coloring and its claims, the palette size and the bound
the producing routine claims; ``verify.check_certificate`` re-validates it
from the coloring alone.

The exact searcher is a deterministic backtracker over edges (grouped per
vertex in breadth-first order, ascending colors, new colors introduced
only in order) that prunes on properness and on completed adjacent
equal-degree pairs.  Every bounded part climbs one ladder of budgets from
a lower bound to a guaranteed top, 5 or (after one short exact attempt
there) 3 Delta at max degree 4-5.  Each budget tries a min-conflicts
Kempe-chain repair of the part's Misra-Gries coloring first, under a step
budget, with the exact search as the fallback; paths and cycles take the
exact search alone.  Each driver either colors a small-degree graph as one
bounded part, or colors the parts of a partition and composes the part
certificates over pairwise disjoint palettes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import (InternalBoundViolationError, NotNormalError,
                     SearchCapExceededError)
from .graph_io import emit_graph
from .graphs import Edge, EdgePartition, Graph, canon_edge, is_normal
from .partition import partition_p2, partition_regular
from .vizing import EdgeColoring, misra_gries, relabeled
from . import verify

LADDER_NODE_CAP = 30_000
GUARANTEED_UNITS = 128


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
    parts: tuple[frozenset[Edge], ...] = ()

    def with_bound(self, bound: int) -> "AvdCertificate":
        if self.colors_used > bound:
            raise AssertionError(
                f"cannot claim bound {bound} with {self.colors_used} colors")
        return AvdCertificate(self.coloring, self.colors_used, bound,
                              self.parts)


def _vertex_major_order(g: Graph,
                        vertex_seq: list[int] | None = None) -> list[Edge]:
    """Edges grouped per vertex, vertices breadth-first from the lowest.

    A vertex completes soon after its first incident edge is reached, so
    the distinguishing constraint prunes near the mistakes that violate it;
    a scattered edge order lets conflicts surface far too late to matter.
    """
    # Flags in lists indexed by vertex label, as in _search, not sets; a
    # label that is no vertex of a part stays False.  Each breadth-first
    # queue is a list read as it grows.  Plain loops: a comprehension per
    # vertex costs a call each on Python 3.11.
    adj = g.adjacency
    if vertex_seq is None:
        vertex_seq = []
        seen = [False] * g.n
        for s in adj:
            if seen[s]:
                continue
            seen[s] = True
            queue = [s]
            for v in queue:
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            vertex_seq += queue
    # An edge is listed at whichever of its ends comes first.
    order: list[Edge] = []
    done = [False] * g.n
    for v in vertex_seq:
        done[v] = True
        for w in adj[v]:
            if not done[w]:
                order.append((v, w) if v < w else (w, v))
    return order


def _search(g: Graph, budget: int, order: list[Edge],
            node_cap: int | None) -> dict[Edge, int] | None:
    """Complete backtracking for an AVD coloring within a color budget.

    Edges are colored in ``order``; ``color[i]`` is the color edge i holds
    and ``used[i]`` the largest color on the edges before it, so a new
    color is only ever the next unused one.  An edge whose color completes
    an undistinguished pair, or an edge that is backtracked to, resumes at
    the color after the one it held.  Every color placed counts as a node.
    A vertex none of whose edges is left to color is complete, and an edge
    is rejected when it completes a vertex with the same colors as a
    complete equal-degree neighbor.
    """
    # Lists indexed by vertex label: the color bitmask, the edges left to
    # color and the equal-degree neighbors.  A part keeps its host's labels;
    # a label that is no vertex is never read.  Plain loops and lists
    # throughout: this loop runs for every node, and the set-up for every
    # call.
    adj = g.adjacency
    masks = [0] * g.n
    remaining = [0] * g.n
    eq_adj: list[list[int] | None] = [None] * g.n
    for v, ns in adj.items():
        remaining[v] = len(ns)
    for v, ns in adj.items():
        d = remaining[v]
        eq_adj[v] = ev = []
        for w in ns:
            if remaining[w] == d:
                ev.append(w)
    cap = math.inf if node_cap is None else node_cap
    m = len(order)
    color = [0] * m
    used = [0] * (m + 1)
    nodes = 0
    i = 0
    while 0 <= i < m:
        u, v = order[i]
        held = color[i]
        mu, mv = masks[u], masks[v]
        if held:
            mu ^= 1 << held
            mv ^= 1 << held
        # The first color after held, up to min(budget, used[i] + 1), that
        # is free at u and v.
        top = used[i] + 1
        if top > budget:
            top = budget
        forbidden = mu | mv
        c = held + 1
        while c <= top and forbidden >> c & 1:
            c += 1
        if c > top:
            if held:
                masks[u], masks[v] = mu, mv
                remaining[u] += 1
                remaining[v] += 1
                color[i] = 0
            i -= 1
            continue
        nodes += 1
        if nodes > cap:
            raise SearchCapExceededError(
                f"budget-{budget} search exceeded {node_cap} nodes")
        masks[u] = mu = mu | 1 << c
        masks[v] = mv = mv | 1 << c
        if not held:
            remaining[u] -= 1
            remaining[v] -= 1
        color[i] = c
        clash = False
        if not remaining[u]:
            for x in eq_adj[u]:
                if not remaining[x] and masks[x] == mu:
                    clash = True
                    break
        if not clash and not remaining[v]:
            for x in eq_adj[v]:
                if not remaining[x] and masks[x] == mv:
                    clash = True
                    break
        if not clash:
            used[i + 1] = used[i] if used[i] > c else c
            i += 1
    return dict(zip(order, color)) if i == m else None


def avd_color_budget(g: Graph, budget: int, *, node_cap: int | None = None,
                     order: list[Edge] | None = None) -> AvdCertificate | None:
    """Exact search for an AVD coloring with at most ``budget`` colors.

    Returns None when no such coloring exists, at once below
    ``_lower_bound(g)``.  With the default ``node_cap=None`` the search is
    complete; a finite cap raises SearchCapExceededError instead of
    returning a wrong answer.  An edgeless g gets a certificate of no parts.
    """
    if not is_normal(g):
        raise NotNormalError("AVD colorings exist only for normal graphs")
    if budget < g.max_degree:
        raise ValueError(f"budget {budget} below max degree {g.max_degree}")
    if g.edge_count == 0:
        return _certificate(g, {}, budget, ())
    if budget == g.max_degree < _lower_bound(g):
        return None
    assignment = _search(g, budget, order or _vertex_major_order(g), node_cap)
    if assignment is None:
        return None
    # _search opens only the next unused color, so the palette is 1..K.
    return _certificate(g, assignment, budget, (g.edges,))


def _lower_bound(g: Graph) -> int:
    # Delta, or Delta + 1 when two vertices of degree Delta are adjacent:
    # under a budget of Delta both would see every color, and no coloring
    # could tell them apart (Zhang, Liu and Wang 2002).
    d = g.max_degree
    adj = g.adjacency
    return d + any(len(ns) == d and any(len(adj[w]) == d for w in ns)
                   for ns in adj.values())


def _certificate(g: Graph, assignment: dict[Edge, int], bound: int,
                 parts: tuple[frozenset[Edge], ...]) -> AvdCertificate:
    """Certificate of ``assignment`` on g; its colors must be 1..K.  The
    certificate keeps ``assignment``, which each caller has just built."""
    coloring = EdgeColoring(g, assignment)
    return AvdCertificate(coloring, coloring.colors_used, bound, parts)


def _repair(g: Graph, budget: int,
            start: EdgeColoring) -> AvdCertificate | None:
    """Min-conflicts repair of a proper coloring into an AVD one.

    Starts from ``start`` when none of its colors is above ``budget``.  A
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
    # Lists indexed by vertex label, as in _search: at[v][c] is v's
    # neighbor across color c, mask[v] has bit c for c at v, eq[v] lists
    # v's neighbors of its own degree, and tabu[v][ab] is the step from
    # which the a/b swaps at v are allowed again.  A part keeps its host's
    # labels; a label that is no vertex keeps None.  Each at[v] is a dict
    # filled in start.assignment order, not a list indexed by color: its
    # insertion order, which the swaps keep, is the order candidates are
    # tried in, and so fixes the ties the generator draws from.
    adj = g.adjacency
    at: list[dict[int, int] | None] = [None] * g.n
    tabu: list[dict[int, int] | None] = [None] * g.n
    eq: list[list[int] | None] = [None] * g.n
    mask = [0] * g.n
    deg = [0] * g.n
    for v, ns in adj.items():
        at[v], tabu[v], deg[v] = {}, {}, len(ns)
    for (u, v), c in start.assignment.items():
        at[u][c], at[v][c] = v, u
        mask[u] |= 1 << c
        mask[v] |= 1 << c
    # No swap has to clear a start color above the budget, so such a start
    # could end in a certificate beyond its bound.
    palette = 0
    for mv in mask:
        palette |= mv
    if palette >> budget + 1:
        return None
    for v, ns in adj.items():
        d = deg[v]
        eq[v] = ev = []
        for w in ns:
            if deg[w] == d:
                ev.append(w)
    # Vertices and neighbors ascend: each pair is listed at its lower end.
    conflicts: list[Edge] = [(v, w) for v in adj for w in eq[v]
                             if w > v and mask[v] == mask[w]]
    slot = {e: i for i, e in enumerate(conflicts)}
    rng = random.Random(budget)
    colors = range(1, budget + 1)
    free: dict[int, list[int]] = {}  # per mask, the colors it misses
    for step in range(2 * g.edge_count):
        if not conflicts:
            break
        best, ties = None, []
        for x in conflicts[rng.randrange(len(conflicts))]:
            mx, ex, tx = mask[x], eq[x], tabu[x]
            before = 0  # conflicts on x's pairs before any swap
            for w in ex:
                if mask[w] == mx:
                    before += 1
            missing = free.get(mx)
            if missing is None:
                missing = free[mx] = [b for b in colors if not mx >> b & 1]
            for a in at[x]:
                for b in missing:
                    ab = 1 << a | 1 << b
                    if tx.get(ab, -1) > step:
                        continue
                    # x has a and misses b, so its a/b chain is a path;
                    # y is the other end.
                    y, p = x, a
                    while (nxt := at[y].get(p)) is not None:
                        y, p = nxt, p ^ a ^ b
                    my = mask[y]
                    nx, ny = mx ^ ab, my ^ ab
                    # Conflicts at x and y after the swap, less those before.
                    score = -before
                    for w in ex:
                        if (ny if w == y else mask[w]) == nx:
                            score += 1
                    for w in eq[y]:
                        if w != x:
                            mw = mask[w]
                            if mw == ny:
                                score += 1
                            elif mw == my:
                                score -= 1
                    if best is None or score < best:
                        best, ties = score, []
                    if score == best:
                        ties.append((x, a, b, ab))
        if not ties:
            continue
        x, a, b, ab = rng.choice(ties)
        # Walk the chain again, swapping as it goes.  Each at[v] pops a,
        # then b, and puts back b, then a: its order is the candidate order.
        y, p = x, a
        while True:
            ay = at[y]
            nxt = ay.get(p)
            ta, tb = ay.pop(a, None), ay.pop(b, None)
            if ta is not None:
                ay[b] = ta
            if tb is not None:
                ay[a] = tb
            if nxt is None:
                break
            y, p = nxt, p ^ a ^ b
        mask[x] ^= ab
        mask[y] ^= ab
        tabu[x][ab] = tabu[y][ab] = step + 7
        # Bring the conflicts on the equal-degree pairs at x, then y, up to
        # date.
        for v in (x, y):
            mv = mask[v]
            for w in eq[v]:
                e = (v, w) if v < w else (w, v)
                if mv == mask[w]:
                    if e not in slot:
                        slot[e] = len(conflicts)
                        conflicts.append(e)
                elif e in slot:
                    last = conflicts.pop()
                    i = slot.pop(e)
                    if last != e:
                        conflicts[i] = last
                        slot[last] = i
    if conflicts:
        return None
    # The palette is 1..K unless the start or the swaps left a gap in it.
    palette = 0
    for mv in mask:
        palette |= mv
    assignment = {(u, v): c for u in adj for c, v in at[u].items() if u < v}
    if palette != (1 << palette.bit_length()) - 2:
        assignment = relabeled(assignment)
    return _certificate(g, assignment, budget, (g.edges,))


def _shuffled_order(g: Graph, seed: int) -> list[Edge]:
    vseq = list(g.vertices)
    random.Random(seed).shuffle(vseq)
    return _vertex_major_order(g, vseq)


def _luby(i: int) -> int:
    """Term i >= 1 of Luby's restart sequence 1, 1, 2, 1, 1, 2, 4, 1, ..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


def _guaranteed_search(g: Graph, budget: int, context: str) -> AvdCertificate:
    """Search under a budget whose feasibility a cited bound guarantees.

    Attempt i takes ``avd_color_budget``'s breadth-first edge order for
    i = 0 and a shuffled one seeded with i after that, under a node cap of
    ``_luby(i + 1)`` units (Luby, Sinclair and Zuckerman's universal
    restart schedule).  A unit is 2m nodes, about a typical run (a cap
    below m never colors the part), so an unlucky order is abandoned
    early.  The caps are clipped to sum to at most ``GUARANTEED_UNITS``
    times ``max(2 * LADDER_NODE_CAP, 2m)`` nodes, after which
    SearchCapExceededError is raised; its payload holds the part's edge
    list (host labels, O(m) to build), the color budget, the nodes spent
    and the attempts made.  A completed refutation means the guarantee
    failed and is reported as such, with the part's edge list.
    """
    unit = 2 * g.edge_count
    total = GUARANTEED_UNITS * max(2 * LADDER_NODE_CAP, unit)
    spent = attempt = 0
    while spent < total:
        cap = min(unit * _luby(attempt + 1), total - spent)
        order = _shuffled_order(g, attempt) if attempt else None
        attempt += 1
        try:
            cert = avd_color_budget(g, budget, node_cap=cap, order=order)
        except SearchCapExceededError:
            spent += cap
            continue
        if cert is None:
            raise InternalBoundViolationError(
                f"budget {budget} refuted for {context}; this contradicts "
                "the cited bound and is reported as a counterexample",
                {"edgelist": emit_graph(g, "edgelist").decode("ascii"),
                 "budget": budget})
        return cert
    raise SearchCapExceededError(
        f"budget {budget} not reached for {context} within {spent} nodes "
        f"over {attempt} attempts",
        {"edgelist": emit_graph(g, "edgelist").decode("ascii"),
         "budget": budget, "nodes": spent, "attempts": attempt})


def _ladder(g: Graph, top: int, context: str) -> AvdCertificate:
    """Certificate within ``top``, a budget a cited bound guarantees for g.

    Budgets ascend from ``_lower_bound(g)``, each trying ``_repair`` from
    one shared Misra-Gries coloring first; paths and cycles skip it, as the
    exact search settles each of their budgets in about 2m nodes.  Below
    ``top`` the exact search follows under ``max(LADDER_NODE_CAP, 2m)``
    nodes (a cap below m never finishes), and a cap skips the budget; at
    ``top``, ``_guaranteed_search``, whose node budget the same constant
    sizes.  An edgeless g gets no parts.
    """
    start = misra_gries(g) if g.max_degree > 2 else None
    cap = max(LADDER_NODE_CAP, 2 * g.edge_count)
    for budget in range(_lower_bound(g), top):
        try:
            cert = ((_repair(g, budget, start) if start else None)
                    or avd_color_budget(g, budget, node_cap=cap))
        except SearchCapExceededError:
            continue
        if cert is not None:
            return cert.with_bound(top)
    return ((_repair(g, top, start) if start else None)
            or _guaranteed_search(g, top, context)).with_bound(top)


def avd_subcubic(g: Graph) -> AvdCertificate:
    """Certificate with at most 5 colors for a normal graph of max degree 3:
    ``_ladder`` up to 5, the bound of Balister, Gyori, Lehel, Schelp 2007.
    """
    if not is_normal(g):
        raise NotNormalError("subcubic AVD coloring requires a normal graph")
    if g.max_degree > 3:
        raise ValueError(f"max degree {g.max_degree} exceeds 3")
    return _ladder(g, 5, "a normal subcubic graph")


def compose(certs: list[AvdCertificate], host: Graph) -> AvdCertificate:
    """Merge part certificates over disjoint palettes into a host certificate.

    Each certificate's graph is its part.  The parts must edge-partition
    the host and every part must be normal with a valid certificate.
    Palettes are relabeled onto consecutive disjoint ranges in part order,
    so the result uses the sum of the part palette sizes, and its ``parts``
    lists the part edge sets in that order.
    The result is proper as a union of proper parts on disjoint palettes,
    and distinguishing because each edge uv lies in a part whose coloring
    tells u and v apart, on a palette no other part uses.  So every route
    yields a distinguishing coloring by construction: ``_search`` prunes
    completed equal pairs, ``_repair`` returns only with no conflict left,
    and this join checks each part with ``check_avd``.
    """
    if not certs:
        raise ValueError("nothing to compose")
    for cert in certs:
        part = cert.coloring.host
        if not is_normal(part):
            raise NotNormalError("every composed part must be normal")
        # check_avd raises ValueError on an improper coloring.
        ok, detail = verify.check_avd(part, cert.coloring)
        if not ok:
            raise ValueError(f"part certificate is not distinguishing: {detail}")
    # EdgePartition checks that the parts are disjoint and cover the host.
    parts = EdgePartition(host, [cert.coloring.host.edges for cert in certs])
    merged: dict[Edge, int] = {}
    offset = 0
    for cert in certs:
        for e, c in relabeled(cert.coloring.assignment).items():
            merged[e] = offset + c
        offset += cert.coloring.colors_used
    return _certificate(host, merged,
                        sum(cert.bound_claimed for cert in certs),
                        tuple(parts))


def _color_bounded_part(part: Graph) -> AvdCertificate:
    d = part.max_degree
    if d <= 3:
        return avd_subcubic(part)
    # A 2m-node attempt at 3 Delta colors most parts sooner than the ladder.
    try:
        cert = avd_color_budget(part, 3 * d, node_cap=2 * part.edge_count)
    except SearchCapExceededError:
        cert = None
    return cert or _ladder(part, 3 * d, f"a part of max degree {d}")


def _color_parts(g: Graph, partition: EdgePartition) -> AvdCertificate:
    return compose([_color_bounded_part(part)
                    for part in partition.part_graphs()], host=g)


def avd_color(g: Graph) -> AvdCertificate:
    """Certificate with at most floor(5 (Delta + 2) / 2) colors.

    Two routes.  Up to max degree 5 the whole graph is one bounded part
    (``_color_bounded_part``).  Above that, the recursive partition
    ``partition_p2(g)`` is colored part by part and composed over disjoint
    palettes.  The certificate's ``parts`` is the partition it colored: the
    single edge set, or the parts of ``partition_p2(g)``.  A part's search
    may raise SearchCapExceededError after the node budget.
    """
    if not is_normal(g):
        raise NotNormalError("AVD colorings exist only for normal graphs")
    bound = main_bound(g.max_degree)
    if g.max_degree <= 5:
        return _color_bounded_part(g).with_bound(bound)
    return _color_parts(g, partition_p2(g)).with_bound(bound)


def avd_color_regular(g: Graph) -> AvdCertificate:
    """Certificate with at most floor((5 r + 37) / 3) colors for r-regular g.

    Up to r = 9 the general bound is within this one, so the coloring is
    ``avd_color``'s; from r = 10, where this bound is the tighter, the
    class grouping ``partition_regular(g)`` is colored part by part.
    """
    if not g.vertices or not g.is_regular():
        raise ValueError("input graph is not regular")
    r = g.max_degree
    if r < 2:
        raise ValueError("regular driver requires degree >= 2")
    bound = regular_bound(r)
    if main_bound(r) <= bound:
        return avd_color(g).with_bound(bound)
    return _color_parts(g, partition_regular(g)).with_bound(bound)


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
    }


def certificate_from_dict(data: object, host: Graph) -> AvdCertificate:
    """Read back a ``certificate_to_dict`` payload as a certificate of ``host``.

    Raises ValueError when the payload is not an object, lacks a key,
    holds an entry that is not an integer, or names an edge twice.  Keys
    it does not know, such as an older payload's ``witnesses``, are ignored.
    """
    if not isinstance(data, dict) or data.get("type") != "avd-certificate":
        raise ValueError("not an AVD certificate payload")
    try:
        rows = data["edges"]
        if not (isinstance(rows, list) and all(
                isinstance(row, list) and len(row) == 3
                and all(type(x) is int for x in row) for row in rows)):
            raise ValueError(
                "certificate 'edges' is not a list of integer triples")
        assignment: dict[Edge, int] = {}
        for u, v, c in rows:
            e = canon_edge(u, v)
            if e in assignment:
                raise ValueError(f"certificate 'edges' names edge {e} twice")
            assignment[e] = c
        colors_used, bound = data["colors_used"], data["bound_claimed"]
    except KeyError as exc:
        raise ValueError(f"certificate lacks key {exc}") from None
    if type(colors_used) is not int or type(bound) is not int:
        raise ValueError("certificate palette size or bound is not an integer")
    if set(assignment) != set(host.edges):
        raise ValueError("certificate edges do not match the graph")
    return AvdCertificate(EdgeColoring(host, assignment), colors_used, bound)
