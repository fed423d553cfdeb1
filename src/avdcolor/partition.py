"""Degree-constrained edge partitions via potential-decreasing local search.

The central object is a selection H of edges of a normal graph G with
max degree >= 6 satisfying three membership conditions:

  1. every vertex has selection degree at most 3,
  2. vertices of degree Delta have selection degree at least 2,
  3. vertices of degree Delta-1 have selection degree at least 1.

The engine drives the lexicographic potential

    ( #isolated edges of H + #isolated edges of the complement, |E(H)| )

to (0, *) by applying local rewrite moves, one candidate per case of the
published case analysis that Delta >= 6 leaves reachable.  Each candidate
is tried on the selection itself: it stays applied only if the membership
conditions hold at every vertex it touches and the potential strictly
decreases, and is undone otherwise, so a single engine step can never
corrupt the selection.  The engine raises CounterexampleFound on a state
with no valid move.  When the potential is zero, H and its complement are
both normal, giving the two-part partition; a peel loop and color-class
grouping build the multi-part variants.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import (CounterexampleFound, InternalBoundViolationError,
                     NotNormalError)
from .graphs import (Edge, EdgePartition, Graph, SubgraphSelection,
                     canon_edge, is_normal)
from .graph_io import emit_graph
from .vizing import _Fans, color_classes, misra_gries


@dataclass(frozen=True)
class Move:
    """An applied rewrite; its witness tag names the case of the analysis,
    and with it whether the move adds, drops or swaps along a chain."""

    add_set: frozenset[Edge]
    remove_set: frozenset[Edge]
    witness: str


# -- membership and vertex typing ------------------------------------------


def _violations(g: Graph, sel: SubgraphSelection,
                vertices: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Each of ``vertices`` that breaks a membership condition, with the
    condition (1, 2 or 3; at most one can fail at a vertex)."""
    deg, adj, delta = sel._deg, g._adj, g.max_degree
    for v in vertices:
        d = deg[v]
        if d > 3:
            yield v, 1
        elif d < 2 and len(adj[v]) == delta:
            yield v, 2
        elif d < 1 and len(adj[v]) == delta - 1:
            yield v, 3


def check_membership(g: Graph, sel: SubgraphSelection
                     ) -> tuple[tuple[int, int], ...]:
    """Each (vertex, condition 1|2|3) that breaks membership, in vertex
    order; empty for a member."""
    return tuple(_violations(g, sel, g._adj))


def _cond1(sel: SubgraphSelection, u: int) -> bool:
    return sel.deg(u) == 3


def _cond2(sel: SubgraphSelection, u: int) -> bool:
    return sel.deg(u) == 2 and sel.codeg(u) == 2


def _cond3(sel: SubgraphSelection, u: int, v: int) -> int | None:
    # u is inspected as a complement-side neighbor of v, so complement
    # degree 2 leaves exactly one other complement neighbor w: the far end
    # of the chain v-u-w when the condition holds.
    if sel.deg(u) > 1 or sel.codeg(u) != 2:
        return None
    w = next(x for x in sel.unselected_neighbors(u) if x != v)
    return w if sel.codeg(w) == 1 and sel.deg(w) == 3 else None


def _cond4(g: Graph, sel: SubgraphSelection, v: int) -> bool:
    return 1 <= sel.deg(v) <= 2 and g.degree(v) >= g.max_degree - 1


def _cond5(g: Graph, sel: SubgraphSelection, v: int, u: int) -> int | None:
    # v is inspected as a selected-side neighbor of u, so selection degree
    # 2 leaves exactly one other selected neighbor w: the far end of the
    # chain u-v-w when the condition holds.
    if sel.deg(v) != 2 or g.degree(v) >= g.max_degree - 1:
        return None
    w = next(x for x in sel.selected_neighbors(v) if x != u)
    return w if sel.deg(w) == 1 and g.degree(w) == g.max_degree - 1 else None


def _scan(g: Graph, sel: SubgraphSelection, z: int, type_i: bool
          ) -> tuple[bool, list[tuple[int, tuple[Edge, ...]]], list[int]]:
    """One read of ``z``'s neighbors on its role's side: whether ``z``
    passes the type test, its chains and its failing witnesses.

    Type I (``type_i``): the prerequisite is condition 4, and the side is
    the complement, with conditions 1-3.  Type II: condition 1 or 2, and
    the selection, with conditions 4-5.  A neighbor u that meets one of
    the side's conditions starts a chain (z,u) or (z,u,w); one that meets
    none is a failing witness.  ``z`` passes when it meets the prerequisite
    and has no failing witness.  Chains, as (far end, edges), and witnesses
    are in ascending neighbor order.  From Delta = 6 up the prerequisites
    exclude each other, so no vertex passes both tests.
    """
    chains: list[tuple[int, tuple[Edge, ...]]] = []
    witnesses: list[int] = []
    if type_i:
        passes = _cond4(g, sel, z)
        for u in sel.unselected_neighbors(z):
            if _cond1(sel, u) or _cond2(sel, u):
                chains.append((u, (canon_edge(z, u),)))
            elif (w := _cond3(sel, u, z)) is not None:
                chains.append((w, (canon_edge(z, u), canon_edge(u, w))))
            else:
                witnesses.append(u)
    else:
        passes = _cond1(sel, z) or _cond2(sel, z)
        for v in sel.selected_neighbors(z):
            if _cond4(g, sel, v):
                chains.append((v, (canon_edge(z, v),)))
            elif (w := _cond5(g, sel, v, z)) is not None:
                chains.append((w, (canon_edge(z, v), canon_edge(v, w))))
            else:
                witnesses.append(v)
    return passes and not witnesses, chains, witnesses


# -- move trials --------------------------------------------------------------


def _try_move(g: Graph, sel: SubgraphSelection, add: frozenset[Edge],
              remove: frozenset[Edge]) -> bool:
    """Apply (add, remove) to ``sel`` if the move is legal; True if it was.

    Legal means: add within the complement, remove within the selection,
    membership conditions still hold at every touched vertex, and the
    lexicographic potential strictly decreases.  Membership depends only on
    selection degrees, so the touched vertices are the only ones a move can
    break.  The move is tried on ``sel`` itself, so the selection's own
    bookkeeping decides which edges end up isolated; an illegal move is
    undone and leaves the selection as it was.
    """
    for e in add:
        if sel.is_selected(e) or e not in g.edges:
            return False
    for e in remove:
        if not sel.is_selected(e):
            return False
    old_pot = sel.potential()
    for e in add:
        sel.add(e)
    for e in remove:
        sel.remove(e)
    if sel.potential() < old_pot and not any(_violations(
            g, sel, (v for e in add | remove for v in e))):
        return True
    for e in remove:
        sel.add(e)
    for e in add:
        sel.remove(e)
    return False


# -- move search --------------------------------------------------------------


def _orient(g: Graph, e: Edge) -> tuple[int, int]:
    # Higher-degree endpoint first; ties go to the lower index.
    u, v = e
    if g.degree(v) > g.degree(u):
        return v, u
    return u, v


def _other_selected(sel: SubgraphSelection, v: int, excl: int) -> int:
    others = [w for w in sel.selected_neighbors(v) if w != excl]
    if len(others) != 1:
        raise AssertionError(f"expected unique selected neighbor at {v}")
    return others[0]


def _cands_failing_type_ii(
        sel: SubgraphSelection,
        path: tuple[frozenset[Edge], frozenset[Edge], frozenset[int]],
        uk: int, witnesses: list[int]
        ) -> Iterator[tuple[frozenset[Edge], frozenset[Edge], str]]:
    """Rewrites for a complement-chain end that fails the type-II test.

    ``path`` is the closure's triple for ``uk`` (``_grow_closure``), and
    ``witnesses`` are ``uk``'s failing witnesses, as ``_scan`` found them:
    its selected neighbors that meet neither condition 4 nor 5.  One
    candidate per witness, following the published case analysis: the
    two-edge cleanup when the witness has a pendant partner, else a simple
    drop for a selection-degree-3 end, else the full path swap for a (2,2)
    end.  Every candidate is validated by the caller before use.  On the
    empty path (the direct rewrites of claim 2) every candidate is tagged
    ``claim2.drop``.

    A witness x that is an earlier type-II end of the path (each one starts
    an ``h`` chain of it) gets no candidate: under Delta >= 6 the published
    revisit rewrite and its follow-up never give a legal move there.

    * x was classified type II on this same selection (trials are undone),
      so ``uk`` conforms at x.  ``uk`` has selection degree 3, or 2 at
      degree 4 < Delta-1, so ``_cond4(uk)`` fails and ``_cond5(uk, x)``
      holds: ``uk`` has selection degree 2, and its other selected neighbor
      z has selection degree 1 and degree Delta-1.
    * The revisit rewrite removes (x,uk) and (uk,z) and adds only
      complement-chain edges of the path before x, none at z.  z's degree
      is too high for a chain middle and its selection degree too low for
      a type-II end.  It is not the origin, whose selected edge is
      isolated.  As a type-I end it is entered only through (uk,z): from
      ``uk``, which is new here, or by the chain (x,uk,z), which starts
      after that prefix.  So z would keep no selected edge at degree
      Delta-1, and membership condition 3 rejects the rewrite.
    * The follow-up offers z's candidates on that prefix plus (x,uk,z).
      That chain is the only one that reaches z, and the closure took it
      from x before it reached ``uk``, on the same path, so all of them
      were already evaluated and rejected.
    """
    hbar_edges, h_edges, ii_ends = path
    for x in witnesses:
        if x in ii_ends:
            continue
        xe = canon_edge(x, uk)
        if sel.deg(x) == 2 and sel.deg(y := _other_selected(sel, x, uk)) == 1:
            add, remove, tag = (hbar_edges, h_edges | {canon_edge(x, y), xe},
                                "claims.swap-cleanup")
        elif sel.deg(uk) == 3:
            add, remove, tag = frozenset(), frozenset({xe}), "claims.drop"
        else:
            add, remove, tag = hbar_edges, h_edges | {xe}, "claims.swap"
        yield add, remove, tag if hbar_edges or h_edges else "claim2.drop"


def _cands_failing_type_i(
        sel: SubgraphSelection,
        path: tuple[frozenset[Edge], frozenset[Edge], frozenset[int]],
        vk: int, witnesses: list[int]
        ) -> Iterator[tuple[frozenset[Edge], frozenset[Edge], str]]:
    """Rewrites for a selection-chain end that fails the type-I test.

    ``witnesses`` are ``vk``'s failing witnesses, as ``_scan`` found them:
    its complement neighbors that meet none of conditions 1-3, one
    candidate each.  None of them is an end of ``path`` under Delta >= 6.
    Type-II ends meet ``_cond1`` or ``_cond2``, which x fails.  ``vk`` has
    selection degree 1 or 2 at degree >= Delta-1 >= 5, so it meets none of
    ``_cond1``-``_cond3`` at x, and x would not be type I.  On the empty
    path (the direct rewrites of claim 1) the tag is ``claim1.add``.
    """
    hbar_edges, h_edges, _ = path
    for x in witnesses:
        xe = canon_edge(x, vk)
        s_set = {xe}
        if sel.deg(x) <= 1 and sel.codeg(x) == 2:
            # x-vk is a complement edge, so x has one other complement edge.
            y = next(w for w in sel.unselected_neighbors(x) if w != vk)
            if sel.codeg(y) == 1:
                s_set.add(canon_edge(x, y))
        yield (hbar_edges | s_set, h_edges,
               "claims.iswap" if hbar_edges or h_edges else "claim1.add")


def _counterexample(message: str, g: Graph, sel: SubgraphSelection,
                    **extra) -> CounterexampleFound:
    """CounterexampleFound carrying the state needed to reproduce a stall;
    a ``sel`` that is no member raises ValueError with its first violation."""
    for v, cond in _violations(g, sel, g._adj):
        raise ValueError(f"selection is not a member: vertex {v} breaks "
                         f"membership condition {cond}")
    return CounterexampleFound(message, {
        "edgelist": emit_graph(g, "edgelist").decode("ascii"),
        "selection": sorted(sel.selected),
        "potential": list(sel.potential()),
        **extra,
    })


def find_move(g: Graph, sel: SubgraphSelection) -> Move:
    """Apply one potential-decreasing rewrite to ``sel`` and return it.

    Search order: isolated selected edges first (lowest edge), then isolated
    complement edges.  An endpoint of low enough degree takes its guaranteed
    move, ``claim1.drop`` or ``claim2.add``; otherwise the chain closure
    grows from it (``_grow_closure``), and the closure's first step is the
    endpoint's own direct rewrites.  When no rewrite is found, every trial
    was undone, ``sel`` is unchanged, and CounterexampleFound is raised
    with the state dump: the counting argument for Delta >= 6 rules that
    out for a member ``sel``.  A ``sel`` that is not one, or Delta below 6,
    where that argument does not hold, raises ValueError.
    """
    delta = g.max_degree
    if delta < 6:
        raise ValueError("the move search requires max degree >= 6")
    if sel._iso_sel:
        e = min(sel._iso_sel)
        v, _vp = _orient(g, e)
        if g.degree(v) > delta - 1:
            raise _counterexample("isolated selected edge at a Delta vertex",
                                  g, sel)
        if g.degree(v) <= delta - 2:
            if not _try_move(g, sel, frozenset(), frozenset({e})):
                raise _counterexample("guaranteed isolated-edge drop rejected",
                                      g, sel)
            return Move(frozenset(), frozenset({e}), "claim1.drop")
        return _grow_closure(g, sel, v, True)

    if not sel._iso_unsel:
        raise ValueError("selection has zero potential; nothing to fix")
    e = min(sel._iso_unsel)
    u, _up = _orient(g, e)
    if sel.deg(u) < 1:
        raise _counterexample(
            "isolated complement edge at a selection-free vertex", g, sel)
    if sel.deg(u) <= 2:
        if not _try_move(g, sel, frozenset({e}), frozenset()):
            raise _counterexample("guaranteed complement-edge add rejected",
                                  g, sel)
        return Move(frozenset({e}), frozenset(), "claim2.add")
    return _grow_closure(g, sel, u, False)


def _grow_closure(g: Graph, sel: SubgraphSelection, origin: int,
                  origin_type_i: bool) -> Move:
    """Breadth-first closure of chains from ``origin``; apply its first rewrite.

    Each vertex reached, the origin first, is scanned once (``_scan``) for
    the type its role asks for: type I for ``origin_type_i`` and the far
    ends of complement chains, type II for the rest.  One that passes is a
    chain end, and its chains are followed (complement chains from type I,
    selected chains from type II).  One that fails offers the rewrites of
    its failing witnesses along the path that reached it: on the origin,
    the direct rewrites of claims 1 and 2.  CounterexampleFound is raised
    when no vertex is left and no rewrite was valid.

    ``paths`` maps each vertex reached to the triple its rewrites read off
    the chains that reached it: their complement-side edges, selected-side
    edges and type-II ends (each ``h`` chain's start).  It is empty at the
    origin, and every chain has an edge, so both edge sets are empty there
    only.
    """
    paths = {origin: (frozenset(), frozenset(), frozenset())}
    queue = deque([(origin, origin_type_i)])
    ends: dict[bool, set[int]] = {True: set(), False: set()}
    unresolved: list[int] = []
    while queue:
        z, type_i = queue.popleft()
        passes, chains, witnesses = _scan(g, sel, z, type_i)
        if not passes:
            fails = _cands_failing_type_i if type_i else _cands_failing_type_ii
            move = _first_valid(g, sel, fails(sel, paths[z], z, witnesses))
            if move is not None:
                return move
            unresolved.append(z)
            continue
        ends[type_i].add(z)
        hbar_edges, h_edges, ii_ends = paths[z]
        for t, edges in chains:
            if t not in paths:
                paths[t] = ((hbar_edges.union(edges), h_edges, ii_ends)
                            if type_i else
                            (hbar_edges, h_edges.union(edges), ii_ends | {z}))
                queue.append((t, not type_i))
    raise _counterexample(
        "chain closure saturated with no rewrite; this contradicts the "
        "counting argument for Delta >= 6", g, sel,
        v1_set=sorted(ends[True]), v2_set=sorted(ends[False]),
        unresolved=sorted(unresolved))


def _first_valid(g: Graph, sel: SubgraphSelection,
                 cands: Iterable[tuple[Iterable[Edge], Iterable[Edge], str]]
                 ) -> Move | None:
    """The first candidate that ``_try_move`` applies, as a Move.

    Rejected candidates are undone, so None leaves ``sel`` unchanged.
    """
    for add, remove, tag in cands:
        addf, remf = frozenset(add), frozenset(remove)
        if _try_move(g, sel, addf, remf):
            return Move(addf, remf, tag)
    return None


# -- selections and partitions ------------------------------------------------


def initial_selection(g: Graph, coloring: _Fans | None = None
                      ) -> SubgraphSelection:
    """Selection of color classes 1..3 of a proper edge coloring.

    ``coloring`` is a coloring state (``vizing._Fans``) holding a proper
    coloring of all of ``g`` in at most Delta+1 colors; ``take_low`` takes
    classes 1..3 out of it, uncolored, in O(n).  ``_Fans.cold(g)``,
    ``misra_gries``'s coloring, by default; ``partition_p2`` passes its own.
    Any such coloring will do.  The counting behind the membership
    guarantee: a Delta-vertex misses at most one of any three classes, a
    (Delta-1)-vertex at most two.  The membership check below rejects a
    coloring that breaks this.
    """
    if not is_normal(g):
        raise NotNormalError("initial selection requires a normal graph")
    if g.max_degree < 6:
        raise ValueError("initial selection requires max degree >= 6")
    if coloring is None:
        coloring = _Fans.cold(g)
    sel = SubgraphSelection(g, coloring.take_low())
    if violations := check_membership(g, sel):
        raise InternalBoundViolationError(
            "initial selection is not a member; the edge coloring is suspect",
            {"violations": violations})
    return sel


def run_engine(g: Graph, sel: SubgraphSelection,
               trace: Callable[[dict], None] | None = None) -> list[dict]:
    """Apply ``find_move`` to ``sel`` until its potential's first component
    is zero; return the move log, one entry per move, each also passed to
    ``trace``.  Entry keys: ``witness``, ``add``, ``remove``,
    ``potential_before``, ``potential_after``.  A CounterexampleFound from
    ``find_move`` leaves with the log so far as its payload's ``move_log``.
    """
    log: list[dict] = []
    guard = (sel.potential()[0] + 1) * (g.edge_count + 1) + 1
    while (before := sel.potential())[0]:
        if len(log) >= guard:
            raise AssertionError(
                f"iteration guard {guard} exceeded; termination bug")
        try:
            move = find_move(g, sel)
        except CounterexampleFound as exc:
            exc.payload["move_log"] = log
            raise
        entry = {
            "witness": move.witness,
            "add": sorted(move.add_set),
            "remove": sorted(move.remove_set),
            "potential_before": list(before),
            "potential_after": list(sel.potential()),
        }
        log.append(entry)
        if trace is not None:
            trace(entry)
    return log


def partition_p1(g: Graph, trace: Callable[[dict], None] | None = None,
                 coloring: _Fans | None = None) -> EdgePartition:
    """Two-part partition: selection side of max degree <= 3, complement of
    max degree <= Delta-2, both normal.

    Runs the engine once, from ``initial_selection(g, coloring)``, which
    checks the preconditions and takes classes 1..3 out of ``coloring``,
    the cold state when None; there are no restarts.  A stall raises
    CounterexampleFound with a full state dump.  The final selection is
    checked again: ``check_membership`` gives the degree bounds (complement
    degree at most Delta-2 is selection degree at least 2 at a Delta-vertex
    and at least 1 at a (Delta-1)-vertex), and degree counts give the
    selection side's normality.
    """
    sel = initial_selection(g, coloring)
    run_engine(g, sel, trace)
    if check_membership(g, sel):
        raise AssertionError("partition degree bounds violated")
    h_edges, deg = sel.selected, sel._deg
    if any(deg[u] == 1 and deg[v] == 1 for u, v in h_edges):
        raise AssertionError("selection side has an isolated edge")
    return EdgePartition(g, [h_edges, sel.complement_edges()])


class _Level(Graph):
    """The remainder of ``partition_p2``'s peel, trimmed in place.

    A ``Graph`` copied once from the input, with each neighbor list a dict
    (``dict.fromkeys`` in ascending order): deleting a key is O(1) and keeps
    the ascending order that the engine and ``_Fans.fan`` read.  It is the
    one ``Graph`` that changes, so it never leaves ``partition_p2``.
    """

    __slots__ = ()

    def __init__(self, g: Graph):
        self.n = g.n
        self._vertices = g.vertices
        self._edges = g.edges
        self._adj = {v: dict.fromkeys(ns) for v, ns in g._adj.items()}
        self.max_degree = g.max_degree

    def trim(self, part: frozenset[Edge], rest: frozenset[Edge]) -> None:
        """Remove the edges of ``part``, leaving ``rest``, and drop the
        vertices left with no edge: ``edge_induced(self, rest)``, in
        O(n + |part|).  ``part`` and ``rest`` are the two sides of a checked
        ``EdgePartition`` of this level, so ``rest`` is taken as is."""
        adj = self._adj
        for u, v in part:
            nu, nv = adj[u], adj[v]
            del nu[v], nv[u]
            if not nu:
                del adj[u]
            if not nv:
                del adj[v]
        if len(adj) < len(self._vertices):
            self._vertices = tuple(adj)
        self._edges = rest
        self.max_degree = max(map(len, adj.values()), default=0)


def partition_p2(g: Graph,
                 trace: Callable[[dict], None] | None = None) -> EdgePartition:
    """Decomposition into G_0 .. G_k with k <= floor(Delta/2) - 2.

    One loop: while the remainder has max degree >= 6, ``partition_p1``
    peels a subcubic part off it, and the complement is the next remainder;
    the last one is G_0.  The parts are G_0 first, then the peels, deepest
    first, so the last part is the selection side of ``partition_p1(g)``.
    ``initial_selection`` checks each level's normality; G_0 is checked last.

    One coloring state (``vizing._Fans``) lives through every level, the
    cold ``misra_gries`` coloring at first.  Each level's selection takes
    classes 1..3 out of it; the peel keeps the other colors on the
    remainder's edges, moved down by 3, within the remainder's Delta'+1
    (a subcubic peel leaves Delta' >= Delta-3), and fans color only the
    edges left uncolored: those the engine moved out of the selection.
    A class the engine emptied stays a gap in the palette: if it is one of
    classes 1..3, a Delta'-vertex meets the other two, and a
    (Delta'-1)-vertex one of them.  The remainder is one ``_Level``, built
    once from ``g``: each level trims its peel off in place and keeps the
    complement ``partition_p1`` built and checked as its edge set, so a
    level costs O(n + |peel|) beside the engine, not a new graph.  The
    membership guarantee needs only some proper (Delta'+1)-coloring, and
    ``initial_selection`` checks membership on every level.  A graph with
    no edge has no partition: it raises ValueError.
    """
    if not is_normal(g):
        raise NotNormalError("partition requires a normal graph")
    if not g.edges:
        raise ValueError("partition requires a graph with at least one edge")
    peels: list[frozenset[Edge]] = []
    rest = _Level(g)
    fans = _Fans(g)
    todo = g.sorted_edges()
    while rest.max_degree > 5:
        fans.fan(todo)
        h_edges, hbar_edges = partition_p1(rest, trace=trace,
                                           coloring=fans).parts
        peels.append(h_edges)
        rest.trim(h_edges, hbar_edges)
        todo = fans.peel(h_edges, rest)
    if peels and not is_normal(rest):
        raise AssertionError("remainder G_0 is not normal")
    return EdgePartition(g, [rest.edges, *reversed(peels)])


def partition_regular(g: Graph) -> EdgePartition:
    """Group the r+1 color classes of an r-regular graph into blocks.

    ``misra_gries(g)``'s classes, in color order, are cut into consecutive
    blocks by the residue of r mod 3: all triples (r = 3t+2), two leading
    quadruples (r = 3t+1), one leading quadruple (r = 3t).  In a proper
    (r+1)-coloring each vertex misses at most one class, so every block of
    s classes is normal with max degree s and min degree >= s-1 >= 2.  The
    blocks are not checked here: ``partition-regular``'s checklist and the
    part colorers of ``avd_color_regular`` check them where they are used.
    """
    if not g.vertices or not g.is_regular():
        raise ValueError("input graph is not regular")
    r = g.max_degree
    if r < 5:
        raise ValueError("regular grouping requires degree >= 5")
    classes = color_classes(misra_gries(g))
    if r % 3 == 2:
        sizes = [3] * ((r + 1) // 3)
    elif r % 3 == 1:
        sizes = [4, 4] + [3] * ((r - 1) // 3 - 2)
    else:
        sizes = [4] + [3] * (r // 3 - 1)
    blocks = []
    start = 0
    for size in sizes:
        blocks.append(frozenset().union(*classes[start:start + size]))
        start += size
    return EdgePartition(g, blocks)
