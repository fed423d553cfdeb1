"""Core graph model: simple graphs, subgraph selections, edge partitions."""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

Edge = tuple[int, int]


def canon_edge(u: int, v: int) -> Edge:
    """Canonical form of an undirected edge: endpoints ascending."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph on integer labels.

    Labels live in ``0..n-1``.  ``Graph(n, edges)`` has every label as a
    vertex.  An ``edge_induced`` subgraph keeps its host's labels, so a
    coloring of a part can be merged back onto the host, and has only the
    endpoints of its edges as vertices.  Degrees, maximum degree and
    normality quantify over ``vertices`` only.
    """

    __slots__ = ("n", "_vertices", "_edges", "_adj", "max_degree")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        es: set[Edge] = set()
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge {(u, v)} has a non-integer label")
            e = canon_edge(u, v)
            if e[0] < 0 or e[1] >= n:
                raise ValueError(f"edge {e} outside 0..{n - 1}")
            if e in es:
                raise ValueError(f"duplicate edge {e}")
            es.add(e)
        self._build(n, frozenset(es), tuple(range(n)))

    def _build(self, n: int, es: frozenset[Edge],
               verts: tuple[int, ...] | None) -> None:
        # The adjacency builder of ``Graph`` and ``edge_induced``;
        # ``partition_p2``'s remainder copies its host's once and trims it
        # in place.  ``es`` holds canonical, distinct edges with both
        # endpoints in ``verts``, or ``verts`` is None for the endpoints of
        # ``es``.  Only vertices with edges get a neighbor list; the rest
        # share the empty tuple.
        adj: dict[int, list[int]] = {}
        for u, v in es:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        if verts is None:
            verts = tuple(sorted(adj))
        self.n = n
        self._vertices = verts
        self._edges = es
        self._adj = {v: tuple(sorted(adj[v])) if v in adj else ()
                     for v in verts}
        # Computed once: the graph is immutable, and the partition engine's
        # degree tests read it for every vertex they inspect.
        self.max_degree = max(map(len, adj.values()), default=0)

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def edges(self) -> frozenset[Edge]:
        return self._edges

    def sorted_edges(self) -> list[Edge]:
        """The edges in ascending order, read off the adjacency, whose
        vertices and neighbor tuples already ascend: no sort."""
        return [(u, v) for u, ns in self._adj.items() for v in ns if u < v]

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    @property
    def adjacency(self) -> Mapping[int, tuple[int, ...]]:
        """Read-only map of each vertex to its neighbor tuple, for loops
        that visit every vertex: vertices and neighbors ascend."""
        return MappingProxyType(self._adj)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    @property
    def min_degree(self) -> int:
        return min((len(ns) for ns in self._adj.values()), default=0)

    def is_regular(self) -> bool:
        degs = {len(ns) for ns in self._adj.values()}
        return len(degs) <= 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self._vertices == other._vertices
                and self._edges == other._edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self._edges)}, |V|={len(self._vertices)})"


def is_normal(g: Graph) -> bool:
    """True iff ``g`` has no isolated vertices and no isolated edges."""
    adj = g._adj
    for ns in adj.values():
        # An isolated vertex, or a pendant one whose neighbor is pendant.
        # ``next(iter(ns))``: a neighbor list may also be a dict's keys.
        if not ns or (len(ns) == 1 and len(adj[next(iter(ns))]) == 1):
            return False
    return True


def _host_edges(g: Graph, s: Iterable[Edge]) -> frozenset[Edge]:
    """The pairs of ``s``, in either orientation, as a frozenset of ``g``'s
    own edges: the one check of every edge set of a host that comes in.

    Raises ValueError on the first self-loop, edge not in ``g`` or edge
    named twice.  A set of ``g``'s edges is taken as is.  A list of them
    passes one bulk test, since distinct host edges are canonical: its set
    is as large as it and a subset of ``g``'s edges.  Only other input
    goes edge by edge.
    """
    host = g._edges
    if isinstance(s, (set, frozenset)) and s <= host:
        return frozenset(s)
    es = list(s)
    # ``tuple`` keeps pairs given as lists, as ``canon_edge`` does.
    out = frozenset(map(tuple, es))
    if len(out) == len(es) and out <= host:
        return out
    seen: set[Edge] = set()
    for u, v in es:
        e = canon_edge(u, v)
        if e not in host:
            raise ValueError(f"edge {e} not in host graph")
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
    return frozenset(seen)


def edge_induced(g: Graph, s: Iterable[Edge]) -> Graph:
    """Subgraph with edge set ``s`` and vertex set the endpoints of ``s``;
    ``s`` holds edges of ``g`` in either orientation, each once."""
    es = _host_edges(g, s)
    for u, v in es:  # (0, 1.0) passes as host edge (0, 1)
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"edge {(u, v)} has a non-integer label")
    sub = Graph.__new__(Graph)
    sub._build(g.n, es, None)
    return sub


class SubgraphSelection:
    """A mutable subset H of a host graph's edges with degree bookkeeping.

    Maintains, incrementally under add/remove:
      * per-vertex selected degree (degree in H),
      * the isolated-edge sets of H and of its complement.

    Single-writer: one mutator at a time, no internal locking.
    """

    __slots__ = ("host", "_selected", "_deg", "_iso_sel", "_iso_unsel")

    def __init__(self, host: Graph, edges: Iterable[Edge] = ()):
        """Select ``edges``, edges of ``host`` in either orientation, each
        once (``_host_edges``).  A set of host edges, such as a level's
        ``_Fans.taken``, passes that check with one subset test, with no
        second hash set built."""
        self.host = host
        self._deg = deg = dict.fromkeys(host.vertices, 0)
        self._iso_sel: set[Edge] = set()
        self._iso_unsel: set[Edge] = set()
        self._selected = set(_host_edges(host, edges))
        for u, v in self._selected:
            deg[u] += 1
            deg[v] += 1
        # Settle both isolated-edge sets as _update_isolation would edge by
        # edge, in O(n + |H|): an isolated complement edge joins two
        # vertices of complement degree 1, each found by scanning neighbors
        # that are all selected but one.
        sel, adj = self._selected, host._adj
        for u, v in sel:
            if deg[u] == 1 and deg[v] == 1:
                self._iso_sel.add((u, v))
        for u, ns in adj.items():
            if len(ns) - deg[u] == 1:
                for v in ns:
                    if ((u, v) if u < v else (v, u)) not in sel:
                        break
                if u < v and len(adj[v]) - deg[v] == 1:
                    self._iso_unsel.add((u, v))

    @classmethod
    def _from_take(cls, host: Graph, fans) -> SubgraphSelection:
        """The selection of the edges a coloring state ``fans`` (a
        ``vizing._Fans`` over ``host``'s vertices) just took out with
        ``take_low``, in O(n), with no edge counted again.

        ``taken`` passes ``_host_edges``' subset test, as in ``__init__``,
        and the take's ``taken_deg``, ``taken_iso`` and ``kept_iso`` become
        the degrees and the isolated edges of the selection and of its
        complement.  The complement's are right when the state colored
        every edge of ``host`` before the take, so that the edges it kept
        colored are the unselected ones; the caller checks that from
        ``kept_ends`` (``partition.initial_selection``).  Raises ValueError
        on an edge not in ``host`` and on a state over other vertices.
        """
        taken = _host_edges(host, fans.taken)
        if fans.host.vertices != host.vertices:
            raise ValueError("coloring state over other vertices than the "
                             "host graph")
        sel = cls.__new__(cls)
        sel.host = host
        sel._selected = set(taken)
        sel._deg = fans.taken_deg
        sel._iso_sel = set(fans.taken_iso)
        sel._iso_unsel = set(fans.kept_iso)
        return sel

    # -- queries ---------------------------------------------------------

    @property
    def selected(self) -> frozenset[Edge]:
        return frozenset(self._selected)

    def is_selected(self, e: Edge) -> bool:
        return e in self._selected

    def deg(self, v: int) -> int:
        """Degree of v inside the selection."""
        return self._deg[v]

    def codeg(self, v: int) -> int:
        """Degree of v in the complement of the selection."""
        return self.host.degree(v) - self._deg[v]

    # A host neighbor w of v is never v, so the pair is ordered inline,
    # with no ``canon_edge`` call and its self-loop test.

    def selected_neighbors(self, v: int) -> list[int]:
        sel = self._selected
        return [w for w in self.host.neighbors(v)
                if ((v, w) if v < w else (w, v)) in sel]

    def unselected_neighbors(self, v: int) -> list[int]:
        sel = self._selected
        return [w for w in self.host.neighbors(v)
                if ((v, w) if v < w else (w, v)) not in sel]

    def potential(self) -> tuple[int, int]:
        """Lexicographic pair (isolated edges on both sides, |E(H)|)."""
        return (len(self._iso_sel) + len(self._iso_unsel), len(self._selected))

    # -- mutation --------------------------------------------------------

    def add(self, e: Edge) -> None:
        if e not in self.host.edges:
            raise ValueError(f"edge {e} not in host graph")
        if e in self._selected:
            raise ValueError(f"edge {e} already selected")
        self._selected.add(e)
        self._deg[e[0]] += 1
        self._deg[e[1]] += 1
        self._refresh_around(e)

    def remove(self, e: Edge) -> None:
        if e not in self._selected:
            raise ValueError(f"edge {e} not selected")
        self._selected.remove(e)
        self._deg[e[0]] -= 1
        self._deg[e[1]] -= 1
        self._refresh_around(e)

    def _refresh_around(self, e: Edge) -> None:
        for v in e:
            for w in self.host.neighbors(v):
                self._update_isolation((v, w) if v < w else (w, v))

    def _update_isolation(self, e: Edge) -> None:
        u, v = e
        if e in self._selected:
            self._iso_unsel.discard(e)
            if self._deg[u] == 1 and self._deg[v] == 1:
                self._iso_sel.add(e)
            else:
                self._iso_sel.discard(e)
        else:
            self._iso_sel.discard(e)
            if self.codeg(u) == 1 and self.codeg(v) == 1:
                self._iso_unsel.add(e)
            else:
                self._iso_unsel.discard(e)


class EdgePartition:
    """Ordered list of disjoint, nonempty edge sets covering the host."""

    __slots__ = ("host", "parts")

    def __init__(self, host: Graph, parts: Iterable[Iterable[Edge]]):
        self.host = host
        self.parts: list[frozenset[Edge]] = []
        # The union of the parts before the last; the last is merged only
        # when a later part comes.  Disjoint parts of host edges cover the
        # host exactly when their sizes add up to its edge count.
        seen: set[Edge] = set()
        last: frozenset[Edge] = frozenset()
        covered = 0
        for i, p in enumerate(parts):
            pset = _host_edges(host, p)
            if not pset:
                raise ValueError(f"part {i} is empty")
            seen |= last
            if not pset.isdisjoint(seen):
                raise ValueError(f"part {i} overlaps an earlier part")
            last = pset
            covered += len(pset)
            self.parts.append(pset)
        if covered != host.edge_count:
            raise ValueError("parts do not cover the host edge set")

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[frozenset[Edge]]:
        return iter(self.parts)

    @property
    def k(self) -> int:
        """Index of the last part (parts are G_0 .. G_k)."""
        return len(self.parts) - 1

    def part_graph(self, i: int) -> Graph:
        return edge_induced(self.host, self.parts[i])

    def part_graphs(self) -> list[Graph]:
        return [self.part_graph(i) for i in range(len(self.parts))]
