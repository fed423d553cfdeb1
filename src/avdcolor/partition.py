"""Degree-constrained edge partitions via potential-decreasing local search.

The central object is a selection H of edges of a normal graph G with
max degree >= 6 satisfying three membership conditions:

  1. every vertex has selection degree at most 3,
  2. vertices of degree Delta have selection degree at least 2,
  3. vertices of degree Delta-1 have selection degree at least 1.

The engine drives the lexicographic potential

    ( #isolated edges of H + #isolated edges of the complement, |E(H)| )

to (0, *) by applying local rewrite moves, one candidate per case of the
published case analysis.  Every candidate move is validated against the
membership conditions and the strict potential decrease before it is
returned, so a single engine step can never corrupt the selection, and the
engine raises CounterexampleFound on a state with no valid move.  When the
potential is zero, H and its complement are both normal, giving the
two-part partition; recursion and color-class grouping build the
multi-part variants.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import (CounterexampleFound, InternalBoundViolationError,
                     InvalidGroupingError, NotNormalError, StaleMoveError)
from .graphs import (Edge, EdgePartition, Graph, SubgraphSelection,
                     canon_edge, edge_induced, is_normal)
from .graph_io import emit_graph
from .vizing import color_classes, misra_gries


class VertexType(enum.Enum):
    TYPE_I = "type-I"
    TYPE_II = "type-II"
    NEITHER = "neither"


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the three membership conditions; empty violations = member."""

    is_member: bool
    violations: tuple[tuple[int, int], ...]  # (vertex, condition 1|2|3)


@dataclass(frozen=True)
class Chain:
    """A length-2 or length-3 path inside the selection or its complement."""

    kind: str  # "h" (selected side) or "hbar" (complement side)
    vertices: tuple[int, ...]

    @property
    def terminal(self) -> int:
        return self.vertices[-1]

    def edges(self) -> frozenset[Edge]:
        vs = self.vertices
        return frozenset(canon_edge(vs[i], vs[i + 1]) for i in range(len(vs) - 1))


@dataclass(frozen=True)
class ChainClosure:
    """Saturated alternating-chain closure: conforming ends by type."""

    v1_set: frozenset[int]
    v2_set: frozenset[int]
    unresolved: tuple[int, ...] = ()


class MoveVariant(enum.Enum):
    DROP_ISOLATED_H_EDGE = "drop-isolated-h-edge"
    ADD_HBAR_EDGE = "add-hbar-edge"
    DROP_H_EDGE = "drop-h-edge"
    CHAIN_SWAP = "chain-swap"


@dataclass(frozen=True)
class Move:
    variant: MoveVariant
    add_set: frozenset[Edge]
    remove_set: frozenset[Edge]
    witness: str
    version: int


# -- membership and vertex typing ------------------------------------------


def check_membership(g: Graph, sel: SubgraphSelection) -> MembershipReport:
    """Report every violation of the three selection-degree conditions."""
    delta = g.max_degree
    violations = []
    for v in g.vertices:
        d_sel = sel.deg(v)
        if d_sel > 3:
            violations.append((v, 1))
        if g.degree(v) == delta and d_sel < 2:
            violations.append((v, 2))
        if g.degree(v) == delta - 1 and d_sel < 1:
            violations.append((v, 3))
    return MembershipReport(not violations, tuple(violations))


def _cond1(sel: SubgraphSelection, u: int) -> bool:
    return sel.deg(u) == 3


def _cond2(sel: SubgraphSelection, u: int) -> bool:
    return sel.deg(u) == 2 and sel.codeg(u) == 2


def _cond3(g: Graph, sel: SubgraphSelection, u: int, v: int) -> bool:
    # u is inspected as a complement-side neighbor of v.
    if sel.deg(u) > 1 or sel.codeg(u) != 2:
        return False
    others = [w for w in sel.unselected_neighbors(u) if w != v]
    if len(others) != 1:
        return False
    w = others[0]
    return sel.codeg(w) == 1 and sel.deg(w) == 3


def _cond4(g: Graph, sel: SubgraphSelection, v: int) -> bool:
    return 1 <= sel.deg(v) <= 2 and g.degree(v) >= g.max_degree - 1


def _cond5(g: Graph, sel: SubgraphSelection, v: int, u: int) -> bool:
    # v is inspected as a selected-side neighbor of u.
    if sel.deg(v) != 2 or g.degree(v) >= g.max_degree - 1:
        return False
    others = [w for w in sel.selected_neighbors(v) if w != u]
    if len(others) != 1:
        return False
    w = others[0]
    return sel.deg(w) == 1 and g.degree(w) == g.max_degree - 1


def _is_type_i(g: Graph, sel: SubgraphSelection, v: int) -> bool:
    if not (1 <= sel.deg(v) <= 2 and g.degree(v) >= g.max_degree - 1):
        return False
    return all(_cond1(sel, u) or _cond2(sel, u) or _cond3(g, sel, u, v)
               for u in sel.unselected_neighbors(v))


def _is_type_ii(g: Graph, sel: SubgraphSelection, u: int) -> bool:
    if not (sel.deg(u) == 3 or (sel.deg(u) == 2 and sel.codeg(u) == 2)):
        return False
    return all(_cond4(g, sel, v) or _cond5(g, sel, v, u)
               for v in sel.selected_neighbors(u))


def classify_vertex(g: Graph, sel: SubgraphSelection, v: int) -> VertexType:
    """Exact evaluation of the two vertex classifications.

    The degree prerequisites of the two types are mutually exclusive, so a
    vertex can never satisfy both; that exclusivity is asserted here.
    """
    t1 = _is_type_i(g, sel, v)
    t2 = _is_type_ii(g, sel, v)
    if t1 and t2:
        raise AssertionError(f"vertex {v} classified as both types")
    if t1:
        return VertexType.TYPE_I
    if t2:
        return VertexType.TYPE_II
    return VertexType.NEITHER


def enumerate_chains(g: Graph, sel: SubgraphSelection, frm: int,
                     kind: str) -> list[Chain]:
    """All selected-side or complement-side chains emanating from ``frm``.

    Neighbors are scanned in ascending index order, so the result is
    deterministic for a fixed labeling.
    """
    chains: list[Chain] = []
    if kind == "h":
        for v in sel.selected_neighbors(frm):
            if _cond4(g, sel, v):
                chains.append(Chain("h", (frm, v)))
            elif _cond5(g, sel, v, frm):
                w = next(x for x in sel.selected_neighbors(v) if x != frm)
                chains.append(Chain("h", (frm, v, w)))
    elif kind == "hbar":
        for u in sel.unselected_neighbors(frm):
            if _cond1(sel, u) or _cond2(sel, u):
                chains.append(Chain("hbar", (frm, u)))
            elif _cond3(g, sel, u, frm):
                w = next(x for x in sel.unselected_neighbors(u) if x != frm)
                chains.append(Chain("hbar", (frm, u, w)))
    else:
        raise ValueError(f"unknown chain kind {kind!r}")
    return chains


# -- move validation ---------------------------------------------------------


def _evaluate_move(g: Graph, sel: SubgraphSelection, add: frozenset[Edge],
                   remove: frozenset[Edge]) -> tuple[int, int] | None:
    """Potential after applying (add, remove), or None if the move is illegal.

    Legal means: add within the complement, remove within the selection,
    membership conditions still hold at every touched vertex, and the
    lexicographic potential strictly decreases.
    """
    if add & remove:
        return None
    for e in add:
        if sel.is_selected(e) or e not in g.edges:
            return None
    for e in remove:
        if not sel.is_selected(e):
            return None
    delta_deg: dict[int, int] = {}
    for e in add:
        for v in e:
            delta_deg[v] = delta_deg.get(v, 0) + 1
    for e in remove:
        for v in e:
            delta_deg[v] = delta_deg.get(v, 0) - 1
    dmax = g.max_degree

    def new_deg(v: int) -> int:
        return sel.deg(v) + delta_deg.get(v, 0)

    for v in delta_deg:
        nd = new_deg(v)
        if nd > 3 or nd < 0:
            return None
        dv = g.degree(v)
        if dv == dmax and nd < 2:
            return None
        if dv == dmax - 1 and nd < 1:
            return None

    # Isolation can only change on edges incident to a touched vertex.
    candidates: set[Edge] = set(add) | set(remove)
    for v in delta_deg:
        for w in g.neighbors(v):
            candidates.add(canon_edge(v, w))
    iso_sel = sel.isolated_selected
    iso_unsel = sel.isolated_unselected
    iso_delta = 0
    for e in candidates:
        u, v = e
        was = (e in iso_sel) or (e in iso_unsel)
        if e in add or (sel.is_selected(e) and e not in remove):
            now = new_deg(u) == 1 and new_deg(v) == 1
        else:
            ncu = g.degree(u) - new_deg(u)
            ncv = g.degree(v) - new_deg(v)
            now = ncu == 1 and ncv == 1
        iso_delta += int(now) - int(was)
    old_pot = sel.potential()
    new_pot = (old_pot[0] + iso_delta, old_pot[1] + len(add) - len(remove))
    if new_pot < old_pot:
        return new_pot
    return None


def apply_move(sel: SubgraphSelection, move: Move) -> None:
    """Apply a move found on this exact selection state.

    Re-asserts membership and the strict potential decrease afterwards;
    both were validated during the search, so a failure here is a bug.
    """
    if move.version != sel.version:
        raise StaleMoveError(
            f"move found at version {move.version}, selection at {sel.version}")
    before = sel.potential()
    for e in sorted(move.add_set):
        sel.add(e)
    for e in sorted(move.remove_set):
        sel.remove(e)
    after = sel.potential()
    report = check_membership(sel.host, sel)
    if not report.is_member:
        raise AssertionError(
            f"move {move.witness} broke membership: {report.violations}")
    if not after < before:
        raise AssertionError(
            f"move {move.witness} did not decrease potential: {before} -> {after}")


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


def _split_chain_edges(chains: Iterable[Chain]) -> tuple[set[Edge], set[Edge]]:
    hbar: set[Edge] = set()
    h: set[Edge] = set()
    for ch in chains:
        (hbar if ch.kind == "hbar" else h).update(ch.edges())
    return hbar, h


def _path_end_roles(origin: int, origin_role: VertexType,
                    path: list[Chain]) -> list[tuple[int, VertexType]]:
    roles = [(origin, origin_role)]
    role = origin_role
    for ch in path:
        role = (VertexType.TYPE_II if role is VertexType.TYPE_I
                else VertexType.TYPE_I)
        roles.append((ch.terminal, role))
    return roles


def _cands_failing_type_ii(g: Graph, sel: SubgraphSelection, path: list[Chain],
                           origin: int, origin_role: VertexType,
                           uk: int) -> Iterator[tuple[set[Edge], set[Edge], str]]:
    """Rewrites for a complement-chain end that fails the type-II test.

    One candidate per witness, following the published case analysis: the
    two-edge cleanup when the witness has a pendant partner, else a simple
    drop for a selection-degree-3 end, else the full path swap for a (2,2)
    end; the revisit rewrite when the witness is an earlier path vertex.
    Every candidate is validated by the caller before use.
    """
    hbar_edges, h_edges = _split_chain_edges(path)
    roles = _path_end_roles(origin, origin_role, path)
    ii_on_path = {v for v, role in roles[:-1] if role is VertexType.TYPE_II}
    for x in sel.selected_neighbors(uk):
        if _cond4(g, sel, x) or _cond5(g, sel, x, uk):
            continue
        xe = canon_edge(x, uk)
        if x in ii_on_path:
            # Witness is an earlier type-II end on the discovery path.
            if sel.deg(uk) != 2:
                continue
            cut = 0
            role = origin_role
            for i, ch in enumerate(path):
                role = (VertexType.TYPE_II if role is VertexType.TYPE_I
                        else VertexType.TYPE_I)
                if ch.terminal == x and role is VertexType.TYPE_II:
                    cut = i + 1
                    break
            prefix = path[:cut]
            pre_hbar, pre_h = _split_chain_edges(prefix)
            z = _other_selected(sel, uk, x)
            s_set = {xe}
            if sel.deg(z) == 1:
                s_set.add(canon_edge(uk, z))
            yield pre_hbar, pre_h | s_set, "claims.revisit"
            if classify_vertex(g, sel, z) is not VertexType.TYPE_I:
                zpath = prefix + [Chain("h", (x, uk, z))]
                yield from _cands_failing_type_i(g, sel, zpath, origin,
                                                 origin_role, z)
            continue
        y = None
        if sel.deg(x) == 2:
            y = _other_selected(sel, x, uk)
        if y is not None and sel.deg(y) == 1:
            yield (hbar_edges, h_edges | {canon_edge(x, y), xe},
                   "claims.swap-cleanup")
        elif sel.deg(uk) == 3:
            yield set(), {xe}, "claims.drop"
        else:
            yield hbar_edges, h_edges | {xe}, "claims.swap"


def _cands_failing_type_i(g: Graph, sel: SubgraphSelection, path: list[Chain],
                          origin: int, origin_role: VertexType,
                          vk: int) -> Iterator[tuple[set[Edge], set[Edge], str]]:
    """Rewrites for a selection-chain end that fails the type-I test."""
    hbar_edges, h_edges = _split_chain_edges(path)
    on_path = {v for v, _ in _path_end_roles(origin, origin_role, path)}
    for x in sel.unselected_neighbors(vk):
        if _cond1(sel, x) or _cond2(sel, x) or _cond3(g, sel, x, vk):
            continue
        if x in on_path:
            # The published degree arguments rule this out for conforming
            # path ends; skip defensively rather than emit a bad rewrite.
            continue
        xe = canon_edge(x, vk)
        y = None
        if sel.codeg(x) == 2:
            others = [w for w in sel.unselected_neighbors(x) if w != vk]
            y = others[0] if others else None
        if (sel.deg(x) <= 1 and sel.codeg(x) == 2 and y is not None
                and sel.codeg(y) == 1):
            s_set = {canon_edge(x, y), xe}
        else:
            s_set = {xe}
        yield hbar_edges | s_set, set(h_edges), "claims.iswap"


def _counterexample(message: str, g: Graph, sel: SubgraphSelection,
                    **extra) -> CounterexampleFound:
    """CounterexampleFound carrying the state needed to reproduce a stall."""
    return CounterexampleFound(message, {
        "graph6": emit_graph(g, "graph6").decode("ascii"),
        "selection": sorted(sel.selected),
        "potential": list(sel.potential()),
        **extra,
    })


def find_move(g: Graph, sel: SubgraphSelection) -> Move | ChainClosure:
    """One potential-decreasing rewrite, or the saturated chain closure.

    Search order: isolated selected edges first (lowest edge), then isolated
    complement edges; direct single-edge rewrites before chain analysis; the
    breadth-first closure only when the isolated edge's endpoint passes its
    type test.  A returned ChainClosure means no rewrite was found anywhere
    in the closure; callers treat that as an impossibility report.
    """
    delta = g.max_degree
    iso_h = sorted(sel.isolated_selected)
    iso_hbar = sorted(sel.isolated_unselected)
    version = sel.version
    if not iso_h and not iso_hbar:
        raise ValueError("selection has zero potential; nothing to fix")

    def _move(variant, add, remove, tag):
        return Move(variant, frozenset(add), frozenset(remove), tag, version)

    if iso_h:
        e = iso_h[0]
        v, _vp = _orient(g, e)
        if g.degree(v) > delta - 1:
            raise _counterexample("isolated selected edge at a Delta vertex",
                                  g, sel)
        if g.degree(v) <= delta - 2:
            if _evaluate_move(g, sel, frozenset(), frozenset({e})) is None:
                raise _counterexample("guaranteed isolated-edge drop rejected",
                                      g, sel)
            return _move(MoveVariant.DROP_ISOLATED_H_EDGE, set(), {e},
                         "claim1.drop")
        # degree(v) == Delta-1: either v fails type-I with a local fix, or
        # we grow the closure from it.
        for u in sel.unselected_neighbors(v):
            if _cond1(sel, u) or _cond2(sel, u) or _cond3(g, sel, u, v):
                continue
            add = {canon_edge(u, v)}
            if sel.deg(u) <= 1 and sel.codeg(u) == 2:
                others = [w for w in sel.unselected_neighbors(u) if w != v]
                if others and sel.codeg(others[0]) == 1:
                    add.add(canon_edge(u, others[0]))
            if _evaluate_move(g, sel, frozenset(add), frozenset()) is not None:
                return _move(MoveVariant.ADD_HBAR_EDGE, add, set(), "claim1.add")
        if classify_vertex(g, sel, v) is not VertexType.TYPE_I:
            raise _counterexample(
                f"origin {v} survived the direct analysis but is not type-I",
                g, sel)
        return _grow_closure(g, sel, v, VertexType.TYPE_I, version)

    e = iso_hbar[0]
    u, _up = _orient(g, e)
    if sel.deg(u) < 1:
        raise _counterexample(
            "isolated complement edge at a selection-free vertex", g, sel)
    if sel.deg(u) <= 2:
        if _evaluate_move(g, sel, frozenset({e}), frozenset()) is None:
            raise _counterexample("guaranteed complement-edge add rejected",
                                  g, sel)
        return _move(MoveVariant.ADD_HBAR_EDGE, {e}, set(), "claim2.add")
    for v in sel.selected_neighbors(u):
        if _cond4(g, sel, v) or _cond5(g, sel, v, u):
            continue
        remove = {canon_edge(u, v)}
        if sel.deg(v) == 2:
            w = _other_selected(sel, v, u)
            if sel.deg(w) == 1:
                remove.add(canon_edge(v, w))
        if _evaluate_move(g, sel, frozenset(), frozenset(remove)) is not None:
            return _move(MoveVariant.DROP_H_EDGE, set(), remove, "claim2.drop")
    if classify_vertex(g, sel, u) is not VertexType.TYPE_II:
        raise _counterexample(
            f"origin {u} survived the direct analysis but is not type-II",
            g, sel)
    return _grow_closure(g, sel, u, VertexType.TYPE_II, version)


def _grow_closure(g: Graph, sel: SubgraphSelection, origin: int,
                  origin_role: VertexType, version: int) -> Move | ChainClosure:
    visited = {origin}
    parent: dict[int, tuple[int, Chain]] = {}
    queue: deque[tuple[int, VertexType]] = deque([(origin, origin_role)])
    v1: set[int] = set()
    v2: set[int] = set()
    (v1 if origin_role is VertexType.TYPE_I else v2).add(origin)
    unresolved: list[int] = []
    while queue:
        z, role = queue.popleft()
        kind = "hbar" if role is VertexType.TYPE_I else "h"
        for ch in enumerate_chains(g, sel, z, kind):
            t = ch.terminal
            if t in visited:
                continue
            visited.add(t)
            parent[t] = (z, ch)
            expected = (VertexType.TYPE_II if role is VertexType.TYPE_I
                        else VertexType.TYPE_I)
            if classify_vertex(g, sel, t) is expected:
                (v2 if expected is VertexType.TYPE_II else v1).add(t)
                queue.append((t, expected))
                continue
            path = _path_to(parent, t)
            if expected is VertexType.TYPE_II:
                cands = _cands_failing_type_ii(g, sel, path, origin,
                                               origin_role, t)
            else:
                cands = _cands_failing_type_i(g, sel, path, origin,
                                              origin_role, t)
            move = _first_valid(g, sel, cands, version)
            if move is not None:
                return move
            unresolved.append(t)
    return ChainClosure(frozenset(v1), frozenset(v2), tuple(unresolved))


def _path_to(parent: dict[int, tuple[int, Chain]], t: int) -> list[Chain]:
    chains = []
    cur = t
    while cur in parent:
        prev, ch = parent[cur]
        chains.append(ch)
        cur = prev
    chains.reverse()
    return chains


def _first_valid(g: Graph, sel: SubgraphSelection,
                 cands: Iterable[tuple[set[Edge], set[Edge], str]],
                 version: int) -> Move | None:
    for add, remove, tag in cands:
        addf, remf = frozenset(add), frozenset(remove)
        if _evaluate_move(g, sel, addf, remf) is None:
            continue
        variant = (MoveVariant.DROP_H_EDGE if not addf
                   else MoveVariant.CHAIN_SWAP)
        return Move(variant, addf, remf, tag, version)
    return None


# -- selections and partitions ------------------------------------------------


def initial_selection(g: Graph) -> SubgraphSelection:
    """Selection of the first three color classes of a proper edge coloring.

    The counting behind the membership guarantee: a Delta-vertex misses at
    most one of any three classes, a (Delta-1)-vertex at most two.
    """
    if not is_normal(g):
        raise NotNormalError("initial selection requires a normal graph")
    if g.max_degree < 6:
        raise ValueError("initial selection requires max degree >= 6")
    classes = color_classes(misra_gries(g), g.max_degree + 1)
    sel = SubgraphSelection(g, set().union(*classes[:3]))
    report = check_membership(g, sel)
    if not report.is_member:
        raise InternalBoundViolationError(
            "initial selection is not a member; the edge coloring is suspect",
            {"violations": report.violations})
    return sel


class PartitionEngine:
    """Stepwise driver: repeatedly find and apply potential-decreasing moves.

    ``trace`` receives one dict per applied move (variant, edges, potential
    before/after); tests and the CLI use it for auditing.
    """

    def __init__(self, g: Graph, sel: SubgraphSelection,
                 trace: Callable[[dict], None] | None = None):
        self.g = g
        self.sel = sel
        self.trace = trace
        self.moves_applied = 0
        self.move_log: list[dict] = []
        i0 = sel.potential()[0]
        self.guard = (i0 + 1) * (g.edge_count + 1) + 1

    def step(self) -> Move | None:
        """Apply one move; None once the potential's first component is zero.

        A saturated chain closure raises CounterexampleFound with the full
        state dump: the counting argument for Delta >= 6 rules it out.
        """
        if self.sel.potential()[0] == 0:
            return None
        if self.moves_applied >= self.guard:
            raise AssertionError(
                f"iteration guard {self.guard} exceeded; termination bug")
        found = find_move(self.g, self.sel)
        if isinstance(found, ChainClosure):
            raise _counterexample(
                "chain closure saturated with no rewrite; this contradicts "
                "the counting argument for Delta >= 6", self.g, self.sel,
                v1_set=sorted(found.v1_set), v2_set=sorted(found.v2_set),
                unresolved=sorted(found.unresolved), move_log=self.move_log)
        before = self.sel.potential()
        apply_move(self.sel, found)
        after = self.sel.potential()
        entry = {
            "variant": found.variant.value,
            "witness": found.witness,
            "add": sorted(found.add_set),
            "remove": sorted(found.remove_set),
            "potential_before": list(before),
            "potential_after": list(after),
        }
        self.move_log.append(entry)
        if self.trace is not None:
            self.trace(entry)
        self.moves_applied += 1
        return found

    def run(self) -> SubgraphSelection:
        while self.step() is not None:
            pass
        return self.sel


def partition_p1(g: Graph,
                 trace: Callable[[dict], None] | None = None) -> EdgePartition:
    """Two-part partition: selection side of max degree <= 3, complement of
    max degree <= Delta-2, both normal.

    Runs the engine once, from ``initial_selection(g)``, which checks the
    preconditions; there are no restarts.  A stall raises
    CounterexampleFound with a full state dump.
    """
    engine = PartitionEngine(g, initial_selection(g), trace=trace)
    return _partition_from_selection(g, engine.run())


def _partition_from_selection(g: Graph, sel: SubgraphSelection) -> EdgePartition:
    h_edges = sel.selected
    hbar_edges = sel.complement_edges()
    part = EdgePartition(g, [h_edges, hbar_edges])
    h, hbar = part.part_graphs()
    delta = g.max_degree
    if h.max_degree > 3 or hbar.max_degree > delta - 2:
        raise AssertionError("partition degree bounds violated")
    if not is_normal(h) or not is_normal(hbar):
        raise AssertionError("partition parts are not normal")
    return part


def partition_p2(g: Graph,
                 trace: Callable[[dict], None] | None = None) -> EdgePartition:
    """Recursive decomposition into G_0 .. G_k with k <= floor(Delta/2) - 2.

    G_0 has max degree <= 5 and every later part is subcubic; peeling stops
    as soon as the remainder's max degree drops below 6.  The parts are the
    remainder G_0 first, then the peels, deepest first, so the last part is
    the selection side of ``partition_p1(g)``.
    """
    if not is_normal(g):
        raise NotNormalError("partition requires a normal graph")
    return EdgePartition(g, _p2_parts(g, trace))


def _p2_parts(g: Graph, trace) -> list[frozenset[Edge]]:
    if g.max_degree <= 5:
        return [frozenset(g.edges)]
    h_edges, hbar_edges = partition_p1(g, trace=trace).parts
    return _p2_parts(edge_induced(g, hbar_edges), trace) + [h_edges]


def partition_regular(g: Graph) -> EdgePartition:
    """Group the r+1 color classes of an r-regular graph into normal blocks.

    Block sizes by residue of r mod 3: all triples (r = 3t+2), two leading
    quadruples (r = 3t+1), one leading quadruple (r = 3t).  Each vertex
    misses at most one class, so every block keeps degree >= size-1 >= 2.
    """
    if not g.vertices or not g.is_regular():
        raise ValueError("input graph is not regular")
    r = g.max_degree
    if r < 5:
        raise ValueError("regular grouping requires degree >= 5")
    coloring = misra_gries(g)
    classes = color_classes(coloring, r + 1)
    if r % 3 == 2:
        sizes = [3] * ((r + 1) // 3)
    elif r % 3 == 1:
        sizes = [4, 4] + [3] * ((r - 1) // 3 - 2)
    else:
        sizes = [4] + [3] * (r // 3 - 1)
    blocks: list[frozenset[Edge]] = []
    start = 0
    for size in sizes:
        block: set[Edge] = set()
        for cls in classes[start:start + size]:
            block |= cls
        start += size
        if not block:
            raise InvalidGroupingError("empty class block")
        sub = edge_induced(g, block)
        if sub.max_degree > size or not is_normal(sub):
            raise InvalidGroupingError(
                f"block of {size} classes is not a normal bounded part")
        blocks.append(frozenset(block))
    return EdgePartition(g, blocks)
