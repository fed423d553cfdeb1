"""Independent checkers and brute-force oracles.

Everything here works from the definitions.  The checkers share no
coloring, search or partition code with the producing modules: they read
only the graph model (``Graph``, ``canon_edge``, ``is_normal``) and the
``EdgeColoring`` record, so a passing check is evidence rather than an
echo.  ``audit`` runs the producers, imported inside it, and checks what
they return.
Each coloring checker, ``check_certificate`` too, makes one pass over the
assignment that builds a color bitmask per vertex.  Each distinct color
gets one bit by its index among the colors present, never by its value, so
a color of 0, -2 or 10**30 costs one bit like any other.  A coloring is
proper iff every vertex has as many bits as edges, and a vertex is
distinguished from a neighbor iff their masks differ.  The partition check
counts degrees per part rather than building each part's graph.  The
exhaustive oracles fix the color of the first edge and introduce new
colors in order (plain color-permutation symmetry breaking), which keeps
them exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .errors import (CapExceededError, CounterexampleFound, NotNormalError,
                     SearchCapExceededError)
from .graphs import Graph, canon_edge, is_normal
from .vizing import EdgeColoring

ORACLE_EDGE_CAP = 16
# Colors one ``_exists`` call may place, a few seconds of search; both
# oracles together need under 32,000 on every normal graph of <= 16 edges.
ORACLE_NODE_BUDGET = 1_000_000


def _assigned(g: Graph, coloring: EdgeColoring) -> dict:
    assignment = coloring.assignment
    if assignment.keys() != g.edges:
        raise ValueError("coloring does not assign exactly the graph's edges")
    return assignment


def _color_masks(g: Graph, assignment: dict):
    """One pass over an assignment of g's edges: (masks, bits, proper).

    ``masks[v]`` has the bit of every color at v and ``bits`` maps each
    color to its bit.  No vertex has more colors than edges, so the
    coloring is proper iff the masks hold two bits per edge.
    """
    bits = {c: 1 << i for i, c in enumerate(set(assignment.values()))}
    masks = [0] * g.n
    for (u, v), c in assignment.items():
        b = bits[c]
        masks[u] |= b
        masks[v] |= b
    return masks, bits, sum(map(int.bit_count, masks)) == 2 * len(assignment)


def _first_clash(g: Graph, assignment: dict):
    # The first pair of incident edges sharing a color, vertex by vertex,
    # in an improper coloring.
    for v in g.vertices:
        seen: dict[int, tuple[int, int]] = {}
        for w in g.neighbors(v):
            e = canon_edge(v, w)
            c = assignment[e]
            if c in seen:
                return seen[c], e
            seen[c] = e


def _undistinguished(edges, masks):
    """The least edge whose ends have equal masks, or None."""
    for u, v in edges:
        if masks[u] == masks[v]:
            return min(e for e in edges if masks[e[0]] == masks[e[1]])
    return None


def _distinguishing(g: Graph, masks: list[int], bits: dict):
    """``check_avd`` on the masks of a coloring already found proper."""
    e = _undistinguished(g.edges, masks)
    if e is None:
        return True, None
    u, v = e
    return False, (u, v, frozenset(c for c, b in bits.items() if masks[u] & b))


def check_proper(g: Graph, coloring: EdgeColoring):
    """True iff incident edges never share a color; else a violating pair."""
    assignment = _assigned(g, coloring)
    if _color_masks(g, assignment)[2]:
        return True, None
    return False, _first_clash(g, assignment)


def check_avd(g: Graph, coloring: EdgeColoring):
    """True iff adjacent vertices carry distinct incident color sets."""
    assignment = _assigned(g, coloring)
    masks, bits, proper = _color_masks(g, assignment)
    if not proper:
        raise ValueError("input coloring is not proper: "
                         f"{_first_clash(g, assignment)}")
    return _distinguishing(g, masks, bits)


def check_certificate(g: Graph, cert) -> list[tuple[str, bool, object]]:
    """Re-validate a certificate for ``g``: one (name, ok, detail) row per check.

    The coloring must be proper and distinguishing, and ``colors_used``
    must be the number of distinct colors in its assignment and within
    ``bound_claimed``.  Every row reads one mask pass; no count a producer
    stored is read.
    """
    assignment = _assigned(g, cert.coloring)
    masks, bits, proper = _color_masks(g, assignment)
    if proper:
        rows = [("proper", True, None)]
        avd_ok, avd_detail = _distinguishing(g, masks, bits)
    else:
        rows = [("proper", False, _first_clash(g, assignment))]
        avd_ok, avd_detail = False, "skipped (not proper)"
    rows.append(("adjacent-vertex-distinguishing", avd_ok, avd_detail))
    rows.append(("colors_used matches palette",
                 cert.colors_used == len(bits), ""))
    rows.append(("colors_used within bound",
                 cert.colors_used <= cert.bound_claimed, ""))
    return rows


def _normal(edges, deg: dict) -> bool:
    # An edge-induced graph is normal iff no edge has two ends of degree 1.
    for u, v in edges:
        if deg[u] == 1 == deg[v]:
            return False
    return True


def check_partition(g: Graph, parts) -> list[tuple[str, bool, str]]:
    """Check an edge partition as ``partition_p2`` builds it: one row per check.

    The parts must be at least one and cover the edges of ``g`` disjointly,
    G_0 must have max degree at most 5, the later parts at most 3, every
    part must be normal, and k (the index of the last part) at most
    floor(Delta/2) - 2.  For Delta >= 6 the last part is the peel H of the
    first two-part split and the other parts together are its complement.
    Degrees are counted per part; a part's vertices are its edges' ends.
    """
    delta = g.max_degree
    union = frozenset().union(*parts)
    covered = (len(parts) > 0 and all(parts) and union == g.edges
               and sum(map(len, parts)) == len(union))
    rows = [("parts partition the edge set", covered, f"{len(parts)} parts")]
    if not covered:
        return rows
    degs = [Counter(chain.from_iterable(p)) for p in parts]
    if delta >= 6:
        h = degs[-1]
        # The parts cover g, so the complement's degrees are g's less H's.
        hbar = {v: len(ns) - h[v] for v, ns in g.adjacency.items()}
        h_max, hbar_max = max(h.values()), max(hbar.values())
        rows.append(("partition: selection side max degree <= 3",
                     h_max <= 3, f"max {h_max}"))
        rows.append((f"partition: complement max degree <= {delta - 2}",
                     hbar_max <= delta - 2, f"max {hbar_max}"))
        rows.append(("partition: both sides normal",
                     _normal(parts[-1], h)
                     and _normal(chain.from_iterable(parts[:-1]), hbar), ""))
    k = len(parts) - 1
    k_bound = max(delta // 2 - 2, 0)
    g0_max = max(degs[0].values())
    rows.append((f"recursion depth k = {k} <= {k_bound}", k <= k_bound, ""))
    rows.append(("G0 max degree <= 5", g0_max <= 5, f"max {g0_max}"))
    rows.append(("later parts subcubic",
                 all(max(d.values()) <= 3 for d in degs[1:]), ""))
    rows.append(("all parts normal",
                 all(_normal(p, d) for p, d in zip(parts, degs)), ""))
    return rows


# -- exhaustive oracles ------------------------------------------------------


def _exists(g: Graph, k: int, distinguishing: bool) -> bool:
    """True iff ``g`` has a proper k-edge-coloring, AVD if ``distinguishing``.

    Depth-first over the edges in sorted order, with a loop in place of
    recursion: edge i holds ``color[i]`` (0 for none), and a color above
    ``opened[i]``, the largest on the edges before i, is opened only as the
    next one.  Placing more than ``ORACLE_NODE_BUDGET`` colors raises
    CapExceededError.
    """
    edges = g.sorted_edges()
    masks = {v: 0 for v in g.vertices}
    incident = {v: [] for v in g.vertices}  # edge indices, ascending
    for j, (u, v) in enumerate(edges):
        incident[u].append(j)
        incident[v].append(j)
    equal_deg = {v: [w for w in g.neighbors(v) if g.degree(w) == g.degree(v)]
                 for v in g.vertices} if distinguishing else {}
    color = [0] * len(edges)
    opened = [0] * (len(edges) + 1)
    nodes = 0
    i = 0
    while i >= 0:
        if i == len(edges):
            # Definition-level re-check of the finished assignment.
            if not distinguishing or _undistinguished(edges, {
                    v: {color[j] for j in incident[v]}
                    for v in g.vertices}) is None:
                return True
            i -= 1
            continue
        u, v = edges[i]
        c = color[i]  # 0 when first reached, else the color to take back
        masks[u] &= ~(1 << c)  # bit 0 is never set
        masks[v] &= ~(1 << c)
        forbidden = masks[u] | masks[v]
        top = min(k, opened[i] + 1)
        c += 1
        while c <= top and forbidden >> c & 1:
            c += 1
        if c > top:
            color[i] = 0
            i -= 1
            continue
        nodes += 1
        if nodes > ORACLE_NODE_BUDGET:
            raise CapExceededError(
                f"oracle node budget spent: {ORACLE_NODE_BUDGET} nodes "
                f"without an answer at {k} colors")
        color[i] = c
        masks[u] |= 1 << c
        masks[v] |= 1 << c
        # Prune when a vertex this edge completes has the color set of a
        # completed equal-degree neighbor; edge i then tries its next color.
        if distinguishing and any(
                masks[x] == masks[w] and incident[x][-1] <= i
                for w in (u, v) if incident[w][-1] == i for x in equal_deg[w]):
            continue
        opened[i + 1] = max(opened[i], c)
        i += 1
    return False


def exact_chromatic_index(g: Graph, edge_cap: int = ORACLE_EDGE_CAP) -> int:
    """Exact minimum size of a proper edge coloring, by exhaustive search."""
    if g.edge_count > edge_cap:
        raise CapExceededError(
            f"{g.edge_count} edges above the oracle cap {edge_cap}")
    if g.edge_count == 0:
        return 0
    delta = g.max_degree
    if _exists(g, delta, False):
        return delta
    if not _exists(g, delta + 1, False):
        raise AssertionError("no proper coloring with Delta+1 colors")
    return delta + 1


def exact_chi_a(g: Graph, cap: int | None = None,
                edge_cap: int = ORACLE_EDGE_CAP) -> int:
    """Exact minimum size of an AVD edge coloring, by exhaustive search.

    ``cap`` bounds the palettes tried; the default of one color per edge
    always suffices for a normal graph.
    """
    if not is_normal(g):
        raise NotNormalError("only normal graphs admit AVD colorings")
    if g.edge_count > edge_cap:
        raise CapExceededError(
            f"{g.edge_count} edges above the oracle cap {edge_cap}")
    if g.edge_count == 0:
        return 0
    if cap is None:
        cap = g.edge_count
    for k in range(g.max_degree, cap + 1):
        if _exists(g, k, True):
            return k
    raise CapExceededError(f"no AVD coloring within cap {cap}")


# -- audit ---------------------------------------------------------------------


@dataclass
class AuditReport:
    """Full pipeline run with every checker; pass iff every row passes."""

    summary: dict
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    bound_table: dict = field(default_factory=dict)

    @property
    def overall_pass(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_text(self) -> str:
        lines = [
            "graph: n={n} m={m} max_degree={delta} min_degree={min_degree} "
            "regular={regular}".format(**self.summary)
        ]
        for name, ok, detail in self.checks:
            mark = "PASS" if ok else "FAIL"
            lines.append(f"{mark} {name}" + (f" ({detail})" if detail else ""))
        for key, value in sorted(self.bound_table.items()):
            lines.append(f"bound {key} = {value}")
        lines.append("overall: " + ("PASS" if self.overall_pass else "FAIL"))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "summary": self.summary,
            "checks": [[name, ok, detail] for name, ok, detail in self.checks],
            "bound_table": self.bound_table,
            "overall_pass": self.overall_pass,
        }


def audit(g: Graph, oracle_edge_cap: int = ORACLE_EDGE_CAP) -> AuditReport:
    """Run the pipeline once on ``g`` and independently check every claim.

    The certificate rows are ``check_certificate``'s, prefixed "avd
    certificate".  The partition rows are ``check_partition``'s on the parts
    the certificate was composed from (``cert.parts``), so they partition
    nothing again.  The regular row passes iff every ``check_certificate``
    row of the regular driver's certificate passes and it is within the
    regular bound.  Up to r = 9, where the general bound is within the
    regular one, that certificate is ``avd_color``'s (and
    ``avd_color_regular``'s), so the row reads its rows: each certificate
    is checked once.  A driver that spends its node budget fails its row:
    "avd coloring produced" for ``avd_color``, the regular driver row for
    ``avd_color_regular``.  An oracle that spends its node budget gives a
    passing skip row, as a graph above ``oracle_edge_cap`` does.
    """
    from . import coloring as avd
    from .vizing import misra_gries

    delta = g.max_degree
    report = AuditReport(summary={
        "n": g.n, "m": g.edge_count, "delta": delta,
        "min_degree": g.min_degree, "regular": g.is_regular(),
    })
    rows = report.checks
    if not is_normal(g):
        rows.append(("precondition: graph is normal", False,
                     "isolated vertex or isolated edge present"))
        return report
    rows.append(("precondition: graph is normal", True, ""))

    mg = misra_gries(g)
    ok, detail = check_proper(g, mg)
    rows.append(("edge coloring proper", ok, str(detail or "")))
    rows.append((f"edge coloring uses <= {delta + 1} colors",
                 mg.colors_used <= delta + 1, f"used {mg.colors_used}"))
    report.bound_table["chromatic_index_budget"] = delta + 1
    report.bound_table["edge_coloring_colors"] = mg.colors_used

    try:
        cert = avd.avd_color(g)
    except (CounterexampleFound, SearchCapExceededError) as exc:
        rows.append(("avd coloring produced", False, str(exc)))
        return report
    cert_rows = check_certificate(g, cert)
    rows.extend((f"avd certificate {name}", ok, str(detail or ""))
                for name, ok, detail in cert_rows)
    bound = avd.main_bound(delta)
    rows.append((f"avd colors within floor(5(D+2)/2) = {bound}",
                 cert.colors_used <= bound, f"used {cert.colors_used}"))
    report.bound_table["main_bound"] = bound
    report.bound_table["avd_colors_used"] = cert.colors_used

    if delta >= 4:
        rows.extend(check_partition(g, cert.parts))

    if g.is_regular() and delta >= 2:
        rbound = avd.regular_bound(delta)
        name = f"regular driver within floor((5r+37)/3) = {rbound}"
        try:
            # Where bound <= rbound both drivers give avd_color's coloring.
            rcert = cert if bound <= rbound else avd.avd_color_regular(g)
        except SearchCapExceededError as exc:
            rows.append((name, False, str(exc)))
        else:
            rrows = cert_rows if rcert is cert else check_certificate(g, rcert)
            rows.append((name, all(ok for _, ok, _ in rrows)
                         and rcert.colors_used <= rbound,
                         f"used {rcert.colors_used}"))
        report.bound_table["regular_bound"] = rbound

    if g.edge_count > oracle_edge_cap:
        rows.append(("exact oracles skipped (edge count above cap)", True,
                     f"m={g.edge_count} cap={oracle_edge_cap}"))
        return report
    try:
        chi_prime = exact_chromatic_index(g, edge_cap=oracle_edge_cap)
        chi_a = exact_chi_a(g, edge_cap=oracle_edge_cap)
    except CapExceededError as exc:
        rows.append(("exact oracles skipped (node budget spent)", True,
                     str(exc)))
        return report
    rows.append(("exact chromatic index is Delta or Delta+1",
                 chi_prime in (delta, delta + 1), f"= {chi_prime}"))
    rows.append(("oracle chain Delta <= chi' <= chi'_a <= certificate",
                 delta <= chi_prime <= chi_a <= cert.colors_used,
                 f"chi'={chi_prime} chi'_a={chi_a} cert={cert.colors_used}"))
    report.bound_table["exact_chi_a"] = chi_a
    report.bound_table["exact_chromatic_index"] = chi_prime
    return report
