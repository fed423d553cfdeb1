"""Independent checkers and brute-force oracles.

Everything here works from the definitions alone and shares no search code
with the producing modules, so a passing check is evidence rather than an
echo.  The exhaustive oracles fix the color of the first edge and introduce
new colors in order (plain color-permutation symmetry breaking), which
keeps them exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CapExceededError, CounterexampleFound, NotNormalError
from .graphs import Graph, canon_edge, edge_induced, is_normal
from .vizing import EdgeColoring

ORACLE_EDGE_CAP = 16


def check_proper(g: Graph, coloring: EdgeColoring):
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


def check_avd(g: Graph, coloring: EdgeColoring):
    """True iff adjacent vertices carry distinct incident color sets."""
    ok, detail = check_proper(g, coloring)
    if not ok:
        raise ValueError(f"input coloring is not proper: {detail}")
    sets = {v: coloring.colors_at(v) for v in g.vertices}
    for u, v in g.sorted_edges():
        if sets[u] == sets[v]:
            return False, (u, v, sets[u])
    return True, None


def check_certificate(g: Graph, cert) -> list[tuple[str, bool, object]]:
    """Re-validate a certificate for ``g``: one (name, ok, detail) row per check.

    The coloring must be proper and distinguishing, ``colors_used`` must be
    its palette size and within ``bound_claimed``, and every adjacent
    equal-degree pair must have exactly one witness color, present at one
    endpoint and absent at the other.
    """
    rows = []
    ok, detail = check_proper(g, cert.coloring)
    rows.append(("proper", ok, detail))
    if ok:
        avd_ok, avd_detail = check_avd(g, cert.coloring)
    else:
        avd_ok, avd_detail = False, "skipped (not proper)"
    rows.append(("adjacent-vertex-distinguishing", avd_ok, avd_detail))
    rows.append(("colors_used matches palette",
                 cert.colors_used == cert.coloring.colors_used, ""))
    rows.append(("colors_used within bound",
                 cert.colors_used <= cert.bound_claimed, ""))
    wit_ok = all((c in cert.coloring.colors_at(u))
                 != (c in cert.coloring.colors_at(v))
                 for (u, v), c in cert.per_edge_witness.items())
    expected = {(u, v) for u, v in g.edges if g.degree(u) == g.degree(v)}
    rows.append(("witnesses cover equal-degree pairs",
                 wit_ok and set(cert.per_edge_witness) == expected, ""))
    return rows


# -- exhaustive oracles ------------------------------------------------------


def _exists_proper(g: Graph, k: int) -> bool:
    edges = g.sorted_edges()
    masks = {v: 0 for v in g.vertices}

    def extend(i: int, max_used: int) -> bool:
        if i == len(edges):
            return True
        u, v = edges[i]
        forbidden = masks[u] | masks[v]
        for c in range(1, min(k, max_used + 1) + 1):
            bit = 1 << c
            if forbidden & bit:
                continue
            masks[u] |= bit
            masks[v] |= bit
            if extend(i + 1, max(max_used, c)):
                return True
            masks[u] &= ~bit
            masks[v] &= ~bit
        return False

    return extend(0, 0)


def _exists_avd(g: Graph, k: int) -> bool:
    edges = g.sorted_edges()
    masks = {v: 0 for v in g.vertices}
    left = {v: g.degree(v) for v in g.vertices}
    equal_deg = {v: [w for w in g.neighbors(v) if g.degree(w) == g.degree(v)]
                 for v in g.vertices}
    assignment: dict = {}

    def distinct_when_done(w: int) -> bool:
        if left[w] != 0:
            return True
        for x in equal_deg[w]:
            if left[x] == 0 and masks[x] == masks[w]:
                return False
        return True

    def leaf_ok() -> bool:
        # Definition-level re-check of the finished assignment.
        csets = {v: frozenset(assignment[canon_edge(v, w)]
                              for w in g.neighbors(v))
                 for v in g.vertices}
        return all(csets[u] != csets[v] for u, v in g.edges)

    def extend(i: int, max_used: int) -> bool:
        if i == len(edges):
            return leaf_ok()
        u, v = edges[i]
        forbidden = masks[u] | masks[v]
        for c in range(1, min(k, max_used + 1) + 1):
            bit = 1 << c
            if forbidden & bit:
                continue
            masks[u] |= bit
            masks[v] |= bit
            left[u] -= 1
            left[v] -= 1
            assignment[(u, v)] = c
            good = distinct_when_done(u) and distinct_when_done(v)
            if good and extend(i + 1, max(max_used, c)):
                return True
            del assignment[(u, v)]
            left[u] += 1
            left[v] += 1
            masks[u] &= ~bit
            masks[v] &= ~bit
        return False

    return extend(0, 0)


def exact_chromatic_index(g: Graph, edge_cap: int = ORACLE_EDGE_CAP) -> int:
    """Exact minimum size of a proper edge coloring, by exhaustive search."""
    if g.edge_count > edge_cap:
        raise CapExceededError(
            f"{g.edge_count} edges above the oracle cap {edge_cap}")
    if g.edge_count == 0:
        return 0
    delta = g.max_degree
    if _exists_proper(g, delta):
        return delta
    if not _exists_proper(g, delta + 1):
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
        if _exists_avd(g, k):
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


def _partition_rows(g: Graph, parts) -> list[tuple[str, bool, str]]:
    """Rows for the edge sets a certificate was composed from, Delta >= 4.

    For Delta >= 6 the last part is the peel H of the first two-part split
    and the other parts together are its complement.
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
    k_bound = max(delta // 2 - 2, 0) if delta >= 6 else 0
    rows.append((f"recursion depth k = {k} <= {k_bound}", k <= k_bound, ""))
    rows.append(("G0 max degree <= 5", graphs[0].max_degree <= 5,
                 f"max {graphs[0].max_degree}"))
    rows.append(("later parts subcubic",
                 all(p.max_degree <= 3 for p in graphs[1:]), ""))
    rows.append(("all parts normal", all(is_normal(p) for p in graphs), ""))
    return rows


def audit(g: Graph, oracle_edge_cap: int = ORACLE_EDGE_CAP) -> AuditReport:
    """Run the pipeline once on ``g`` and independently check every claim.

    The partition rows check the parts the certificate was composed from
    (``cert.parts``), so ``avd_color`` is the only partitioning run.
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
    except CounterexampleFound as exc:
        rows.append(("avd coloring produced", False, str(exc)))
        return report
    ok, detail = check_proper(g, cert.coloring)
    rows.append(("avd certificate proper", ok, str(detail or "")))
    if ok:
        ok, detail = check_avd(g, cert.coloring)
    else:
        ok, detail = False, "skipped (not proper)"
    rows.append(("avd certificate distinguishing", ok, str(detail or "")))
    bound = avd.main_bound(delta)
    rows.append((f"avd colors within floor(5(D+2)/2) = {bound}",
                 cert.colors_used <= bound, f"used {cert.colors_used}"))
    report.bound_table["main_bound"] = bound
    report.bound_table["avd_colors_used"] = cert.colors_used

    if delta >= 4:
        rows.extend(_partition_rows(g, cert.parts))

    if g.is_regular() and delta >= 2:
        rcert = avd.avd_color_regular(g)
        rbound = avd.regular_bound(delta)
        ok, _ = check_avd(g, rcert.coloring)
        rows.append((f"regular driver within floor((5r+37)/3) = {rbound}",
                     ok and rcert.colors_used <= rbound,
                     f"used {rcert.colors_used}"))
        report.bound_table["regular_bound"] = rbound

    if g.edge_count <= oracle_edge_cap:
        chi_prime = exact_chromatic_index(g, edge_cap=oracle_edge_cap)
        rows.append(("exact chromatic index is Delta or Delta+1",
                     chi_prime in (delta, delta + 1), f"= {chi_prime}"))
        chi_a = exact_chi_a(g, edge_cap=oracle_edge_cap)
        rows.append(("oracle chain Delta <= chi' <= chi'_a <= certificate",
                     delta <= chi_prime <= chi_a <= cert.colors_used,
                     f"chi'={chi_prime} chi'_a={chi_a} cert={cert.colors_used}"))
        report.bound_table["exact_chi_a"] = chi_a
        report.bound_table["exact_chromatic_index"] = chi_prime
    else:
        rows.append(("exact oracles skipped (edge count above cap)", True,
                     f"m={g.edge_count} cap={oracle_edge_cap}"))
    return report
