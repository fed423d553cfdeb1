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


def misra_gries(g: Graph) -> EdgeColoring:
    """Color the edges of a simple graph with at most Delta+1 colors.

    Fan construction with deterministic tie-breaking: the anchor is the lower
    endpoint, fans extend through the lowest eligible neighbor, and free
    colors are always the smallest available.  The result is reproducible
    for a fixed vertex labeling.
    """
    delta = g.max_degree
    k = delta + 1
    color: dict[Edge, int] = {}
    used: dict[int, set[int]] = {v: set() for v in g.vertices}

    def free(v: int) -> int:
        for c in range(1, k + 1):
            if c not in used[v]:
                return c
        raise AssertionError(f"no free color at {v} with k={k}")

    def recolor(batch: list[tuple[Edge, int]]) -> None:
        # Uncolor everything first: a sequential rewrite would transiently
        # duplicate a color at the anchor and corrupt the used sets.
        for e, _ in batch:
            old = color.pop(e, None)
            if old is not None:
                used[e[0]].discard(old)
                used[e[1]].discard(old)
        for e, c in batch:
            color[e] = c
            used[e[0]].add(c)
            used[e[1]].add(c)

    def colored_edge_at(v: int, c: int) -> Edge | None:
        for w in g.neighbors(v):
            e = canon_edge(v, w)
            if color.get(e) == c:
                return e
        return None

    def invert_path(start: int, c: int, d: int) -> None:
        # Maximal path from `start` alternating colors d, c; swap the colors.
        path = []
        cur, want = start, d
        while True:
            e = colored_edge_at(cur, want)
            if e is None or e in path:
                break
            path.append(e)
            cur = e[0] if e[1] == cur else e[1]
            want = c if want == d else d
        for e in path:
            used[e[0]].discard(color[e])
            used[e[1]].discard(color[e])
        for e in path:
            color[e] = c if color[e] == d else d
        for e in path:
            used[e[0]].add(color[e])
            used[e[1]].add(color[e])

    for e0 in sorted(g.edges):
        x, f = e0  # anchor at the lower endpoint
        # Maximal fan of x starting at f.
        fan = [f]
        in_fan = {f}
        while True:
            ext = None
            for w in g.neighbors(x):
                if w in in_fan:
                    continue
                ew = canon_edge(x, w)
                cw = color.get(ew)
                if cw is not None and cw not in used[fan[-1]]:
                    ext = w
                    break
            if ext is None:
                break
            fan.append(ext)
            in_fan.add(ext)
        c = free(x)
        d = free(fan[-1])
        if c != d:
            invert_path(x, c, d)
        # After the inversion d is free at x; find the first fan prefix
        # ending at a vertex where d is free (the prefix must still be a fan
        # under the post-inversion colors).
        w_idx = None
        for j, wv in enumerate(fan):
            if j > 0:
                cj = color.get(canon_edge(x, fan[j]))
                if cj is None or cj in used[fan[j - 1]]:
                    break
            if d not in used[wv]:
                w_idx = j
                break
        if w_idx is None:
            raise AssertionError("fan rotation target missing")
        # Rotate: shift each fan edge's color down, then finish with d.
        batch = [(canon_edge(x, fan[j]), color[canon_edge(x, fan[j + 1])])
                 for j in range(w_idx)]
        batch.append((canon_edge(x, fan[w_idx]), d))
        recolor(batch)

    return _compact(g, color)


def _compact(g: Graph, color: dict[Edge, int]) -> EdgeColoring:
    # Relabel the used colors onto 1..K preserving order.
    old = sorted(set(color.values()))
    remap = {c: i for i, c in enumerate(old, start=1)}
    assignment = {e: remap[c] for e, c in color.items()}
    return EdgeColoring(g, assignment, frozenset(remap.values()))


def color_classes(coloring: EdgeColoring, padded_to: int) -> list[frozenset[Edge]]:
    """Split edges by color into ``padded_to`` classes; trailing ones empty.

    Downstream groupings index classes 1..Delta+1, so callers pad class-1
    colorings with empty classes rather than shrinking the list.
    """
    if padded_to < len(coloring.palette):
        raise ValueError(
            f"padded_to={padded_to} below palette size {len(coloring.palette)}")
    classes: list[set[Edge]] = [set() for _ in range(padded_to)]
    for e, c in coloring.assignment.items():
        classes[c - 1].add(e)
    return [frozenset(cl) for cl in classes]
