"""Proper edge coloring with at most Delta+1 colors (Misra-Gries fans)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Edge, Graph


@dataclass(frozen=True)
class EdgeColoring:
    """A proper edge coloring: colors are positive integers.

    Treat instances as immutable: ``misra_gries``, the coloring routes and
    the certificate reader each build a new one around a fresh assignment.
    """

    host: Graph
    assignment: dict[Edge, int]

    @property
    def colors_used(self) -> int:
        """The number of distinct colors in ``assignment``."""
        return len(set(self.assignment.values()))


class _Fans:
    """A partial proper edge coloring of ``host`` in Misra-Gries's maps.

    ``col[v][w]`` is the color of vw and ``at[v][c]`` is v's neighbor across
    color c.  Colors are stored absolute over ``base``: absolute color c is
    color c - base, so moving every color down by 3 is ``base += 3``.  Bit c
    of ``used[v]`` is set when c is at v, and bits 0..base always are, so
    the lowest clear bit of a mask is the smallest color it leaves free.

    ``col``, ``at`` and ``used`` are lists indexed by vertex label, of
    length ``host.n``, as in ``coloring._repair``; a label that is not a
    vertex of the first host keeps None, or 1 in ``used``.  Each ``col[v]``
    stays a dict, not a list indexed by neighbor: its insertion order is
    the order the edges at v were last colored in, which ``misra_gries``'s
    assignment, and so ``_repair``'s candidate order, follows.

    ``cold`` builds the state of a whole coloring, ``misra_gries``'s;
    ``partition_p2`` keeps one state through every level: the selection
    takes classes 1..3 (``take_low``), so each level fans only the edges
    the level above left uncolored: those of classes 1..3 it did not peel.

    A cold state's colors are 1..K, with no gap to renumber: ``fan`` gives
    an edge the lowest color free at its ends, so every smaller color is
    already at one of them, and no rotation or path swap drops a color.
    """

    __slots__ = ("host", "col", "at", "used", "base", "taken", "taken_deg",
                 "taken_iso", "kept_iso", "kept_ends")

    def __init__(self, host: Graph):
        self.host = host
        n = host.n
        self.col: list[dict[int, int] | None] = [None] * n
        self.at: list[dict[int, int] | None] = [None] * n
        self.used = [1] * n
        for v in host.vertices:
            self.col[v] = {}
            self.at[v] = {}
        self.base = 0
        self.taken: frozenset[Edge] = frozenset()
        self.taken_deg: dict[int, int] = {}
        self.taken_iso: list[Edge] = []
        self.kept_iso: list[Edge] = []
        self.kept_ends = 0

    @classmethod
    def cold(cls, host: Graph) -> _Fans:
        """Every edge of ``host`` fanned in sorted order: colors 1..K."""
        fans = cls(host)
        fans.fan(host.sorted_edges())
        return fans

    def paint(self, u: int, v: int, c: int) -> None:
        """Color the uncolored edge uv with absolute c, free at both ends."""
        self.col[u][v] = self.col[v][u] = c
        self.at[u][c] = v
        self.at[v][c] = u
        self.used[u] |= 1 << c
        self.used[v] |= 1 << c

    def uncolor(self, edges: Iterable[Edge]) -> None:
        """Uncolor those of ``edges`` that are colored."""
        col, at, used = self.col, self.at, self.used
        for u, v in edges:
            if c := col[u].pop(v, 0):
                del col[v][u], at[u][c], at[v][c]
                used[u] ^= 1 << c
                used[v] ^= 1 << c

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
            self.uncolor([(u, v) for u, v, _ in batch])
            for u, v, c in batch:
                paint(u, v, c)

        # Anchor at the lower endpoint.
        for x, f in edges:
            # Most edges share a free color with their anchor at once and
            # take the smallest, the lowest clear bit of both masks:
            # ``paint``, inline, with no fan.
            ux = used[x]
            uf = used[f]
            mask = ux | uf
            bit = ~mask & (mask + 1)
            d = bit.bit_length() - 1
            if d <= top:
                col[x][f] = col[f][x] = d
                at[x][d] = f
                at[f][d] = x
                used[x] = ux | bit
                used[f] = uf | bit
                continue
            colx = col[x]
            # Fan of x from f: each step takes the lowest colored neighbor not
            # yet in the fan whose color is free at the fan's last vertex, so a
            # taken entry leaves the candidate list for good.  The fan stops at
            # its first vertex sharing a free color with x; d is the smallest.
            fan = [f]
            cands = [(w, colx[w]) for w in g.neighbors(x) if w in colx]
            while (d := lowest_free(used[x] | used[fan[-1]])) > top:
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

    def take_low(self) -> list[Edge]:
        """Uncolor classes 1..3 and return their edges in order, in O(n),
        with the bookkeeping of the level's selection read off the state:
        ``taken`` keeps those edges as a frozenset, ``taken_deg`` maps
        every vertex of ``host`` to its number of them, and ``taken_iso``
        lists those whose ends have no other.  ``kept_iso`` lists the edges
        left colored whose ends have no other colored edge, and
        ``kept_ends`` counts the colored edges at each vertex, summed.  The
        level's selection adopts them (``SubgraphSelection._from_take``),
        and its ``peel`` reads ``taken``.

        One pass over the vertices, ascending.  A vertex's three low mask
        bits say which low colors it has, and so its degree; they are
        cleared at once, and it pops just those colors from its own ``at``
        and ``col``, so each edge is uncolored by its two ends in turn.  An
        edge is listed at its lower end, where its higher end's bits are
        still intact: it is isolated when both ends have one low color.
        After its pops a vertex's ``col`` holds just its edges left colored,
        so a kept edge is isolated when the ``col`` of its higher end, and
        then of its lower end, already taken from, has one entry.
        """
        out: list[Edge] = []
        iso: list[Edge] = []
        kept_iso: list[Edge] = []
        ends = 0
        col, at, used = self.col, self.at, self.used
        lo = self.base + 1
        keep = ~(7 << lo)
        # The low colors of each pattern of the three bits, ascending.
        pats = ((), (lo,), (lo + 1,), (lo, lo + 1), (lo + 2,), (lo, lo + 2),
                (lo + 1, lo + 2), (lo, lo + 1, lo + 2))
        vertices = self.host.vertices
        self.taken_deg = deg = dict.fromkeys(vertices, 0)
        for v in vertices:
            col_v = col[v]
            if b := used[v] >> lo & 7:
                used[v] &= keep
                cs = pats[b]
                deg[v] = d = len(cs)
                at_v = at[v]
                for c in cs:
                    w = at_v.pop(c)
                    del col_v[w]
                    if v < w:
                        out.append((v, w))
                        if d == 1 and (used[w] >> lo & 7) in (1, 2, 4):
                            iso.append((v, w))
            k = len(col_v)
            ends += k
            if k == 1:
                (w,) = col_v
                if w < v and len(col[w]) == 1:
                    kept_iso.append((w, v))
        self.taken = frozenset(out)
        self.taken_iso = iso
        self.kept_iso = kept_iso
        self.kept_ends = ends
        return out

    def peel(self, part: frozenset[Edge], host: Graph) -> list[Edge]:
        """Move to ``host``, the host less the edges of ``part``, after the
        level's ``take_low``: uncolor ``part - taken``, the edges the engine
        added, move every color down by 3 and set ``host``'s floor bits.
        Returns ``sorted(taken - part)``, the edges the engine dropped:
        ``host``'s uncolored edges, which ``fan`` is to color.  A part of max
        degree at most 3, as ``partition_p1`` peels, leaves ``host`` a Delta'
        of at least Delta-3, so colors 1..Delta+1 move down to at most
        Delta-2 <= Delta'+1: none is left above ``host``'s Delta'+1.
        """
        self.uncolor(part - self.taken)
        self.host = host
        self.base += 3
        floor = (1 << self.base + 1) - 1
        used = self.used
        for v in host.vertices:
            used[v] |= floor
        return sorted(self.taken - part)


def misra_gries(g: Graph) -> EdgeColoring:
    """Color the edges of a simple graph with at most Delta+1 colors.

    Misra-Gries fans with deterministic tie-breaking.  The anchor x is the
    lower endpoint, and the fan extends through the lowest eligible
    neighbor.  It stops at its first vertex y that shares a free color with
    x: the fan up to y is rotated and xy gets the smallest shared color,
    with no path swap.  Only a maximal fan with no shared free color swaps
    the d/c path from x, where c and d are the smallest free colors at x
    and at the fan's last vertex, and then rotates its first prefix that
    ends where d is free.  The result is reproducible for a fixed vertex
    labeling, and its colors are 1..K, with no gap (see ``_Fans``).
    The coloring is ``_Fans.cold(g)``'s, the state ``initial_selection``
    builds by default; ``partition_p2`` extends each level's coloring on
    the one state it keeps through the peel.
    """
    # Only ``col`` is kept, so the rest of the state is freed before the
    # assignment is built.
    col = _Fans.cold(g).col
    return EdgeColoring(g, {(v, w): c for v in g.vertices
                            for w, c in col[v].items() if v < w})


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
    if max(coloring.assignment.values(), default=0) > k:
        raise ValueError(f"a color above Delta+1 = {k}")
    classes: list[set[Edge]] = [set() for _ in range(k)]
    for e, c in coloring.assignment.items():
        classes[c - 1].add(e)
    return [frozenset(cl) for cl in classes]
