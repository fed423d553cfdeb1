"""Proper edge coloring with at most Delta+1 colors (Misra-Gries fans)."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, Graph, canon_edge


@dataclass(frozen=True)
class EdgeColoring:
    """A proper edge coloring: colors are positive integers.

    ``palette`` is exactly the image of ``assignment``.  Treat instances as
    immutable; helpers below build fresh ones.
    """

    host: Graph
    assignment: dict[Edge, int]
    palette: frozenset[int]

    @property
    def colors_used(self) -> int:
        return len(self.palette)

    def colors_at(self, v: int) -> frozenset[int]:
        """C(v): the set of colors on edges incident to v."""
        return frozenset(self.assignment[canon_edge(v, w)]
                         for w in self.host.neighbors(v))


def make_coloring(host: Graph, assignment: dict[Edge, int]) -> EdgeColoring:
    return EdgeColoring(host, dict(assignment),
                        frozenset(assignment.values()))


def misra_gries(g: Graph,
                start: dict[Edge, int] | None = None) -> EdgeColoring:
    """Color the edges of a simple graph with at most Delta+1 colors.

    Misra-Gries fans with deterministic tie-breaking.  The anchor x is the
    lower endpoint, and the fan extends through the lowest eligible
    neighbor.  It stops at its first vertex y that shares a free color with
    x: the fan up to y is rotated and xy gets the smallest shared color,
    with no path swap.  Only a maximal fan with no shared free color swaps
    the d/c path from x, where c and d are the smallest free colors at x
    and at the fan's last vertex, and then rotates its first prefix that
    ends where d is free.  The result is reproducible for a fixed vertex
    labeling.

    ``start`` is a partial proper coloring of ``g`` (edge -> color in
    1..Delta+1) to extend: only its uncolored edges are colored by fans,
    since a fan extends any partial proper (Delta+1)-coloring by one edge.
    Path swaps and fan rotations may recolor its edges; the result is a
    proper coloring of all of ``g`` with its colors relabeled in order onto
    1..K.  A start that names an edge outside ``g``, uses a color outside
    1..Delta+1 or gives two edges at a vertex one color raises ValueError.
    ``partition_p2`` starts each level below the first from the carry of
    the level above (see there); the result differs from a cold run's, which
    is sound because ``initial_selection`` needs only some proper
    (Delta+1)-coloring.
    """
    k = g.max_degree + 1
    m = g.edge_count
    # col[v][w] is the color of vw; at[v][c] is v's neighbor across color c;
    # bit c of used[v] is set when c is at v, and bit 0 always is, so the
    # lowest clear bit of a mask is the smallest color it leaves free.
    col: dict[int, dict[int, int]] = {v: {} for v in g.vertices}
    at: dict[int, dict[int, int]] = {v: {} for v in g.vertices}
    used = dict.fromkeys(g.vertices, 1)
    edges = g.edges
    for (u, v), c in (start or {}).items():
        if (u, v) not in edges:
            raise ValueError(f"start colors {(u, v)}, not an edge of g")
        if not 1 <= c <= k:
            raise ValueError(f"start color {c} of {(u, v)} outside 1..{k}")
        at_u, at_v = at[u], at[v]
        if c in at_u or c in at_v:
            raise ValueError(f"start color {c} of {(u, v)} is not proper")
        col[u][v] = col[v][u] = c
        at_u[c] = v
        at_v[c] = u
        used[u] |= 1 << c
        used[v] |= 1 << c

    def lowest_free(mask: int) -> int:
        # The lowest clear bit: the smallest color the mask leaves free.
        return (~mask & (mask + 1)).bit_length() - 1

    def free(v: int) -> int:
        c = lowest_free(used[v])
        if c > k:
            raise AssertionError(f"no free color at {v} with k={k}")
        return c

    def paint(u: int, v: int, c: int) -> None:
        # Color the uncolored edge uv with c, which is free at both ends.
        col[u][v] = col[v][u] = c
        at[u][c] = v
        at[v][c] = u
        used[u] |= 1 << c
        used[v] |= 1 << c

    def recolor(batch: list[tuple[int, int, int]]) -> None:
        # Uncolor everything first: a sequential rewrite would transiently
        # give a vertex two edges of one color and corrupt ``at``.
        for u, v, _ in batch:
            old = col[u].pop(v, None)
            if old is not None:
                del col[v][u], at[u][old], at[v][old]
                used[u] ^= 1 << old
                used[v] ^= 1 << old
        for u, v, c in batch:
            paint(u, v, c)

    # Anchor at the lower endpoint.  An edge colored here stays colored, so
    # the edges ``start`` leaves uncolored are the ones fans must color.
    for x, f in sorted(edges - (start or {}).keys()):
        colx = col[x]
        # Fan of x from f: each step takes the lowest colored neighbor not
        # yet in the fan whose color is free at the fan's last vertex, so a
        # taken entry leaves the candidate list for good.  The fan stops at
        # its first vertex sharing a free color with x; d is the smallest.
        fan = [f]
        cands = None
        while (d := lowest_free(used[x] | used[fan[-1]])) > k:
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
            # once: f itself shares d with x.  Most fans do.
            paint(x, f, d)
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

    return make_coloring(g, relabeled({(v, w): c for v in g.vertices
                                       for w, c in col[v].items() if v < w}))


def relabeled(color: dict[Edge, int]) -> dict[Edge, int]:
    """``color`` with its colors mapped onto 1..K, keeping their order."""
    rank = {c: i for i, c in enumerate(sorted(set(color.values())), start=1)}
    return {e: rank[c] for e, c in color.items()}


def color_classes(coloring: EdgeColoring) -> list[frozenset[Edge]]:
    """Split edges by color into Delta+1 classes, Delta of the host.

    Class i holds the edges of color i+1, so classes of colors the coloring
    does not use are empty: groupings index classes 1..Delta+1.  A color
    above Delta+1 raises ValueError.
    """
    k = coloring.host.max_degree + 1
    if max(coloring.palette, default=0) > k:
        raise ValueError(f"a color above Delta+1 = {k}")
    classes: list[set[Edge]] = [set() for _ in range(k)]
    for e, c in coloring.assignment.items():
        classes[c - 1].add(e)
    return [frozenset(cl) for cl in classes]
