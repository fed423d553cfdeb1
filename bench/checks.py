"""Output checks kept apart from ``avdcolor.verify``.

Every check works from the definitions on plain edge sets and color
dictionaries; nothing here calls into the program, so a passing check is
evidence rather than an echo of the code under test.  Each function returns
a list of problems, empty when the output is correct.
"""

from __future__ import annotations

from collections import defaultdict


def main_bound(delta: int) -> int:
    return 5 * (delta + 2) // 2


def regular_bound(r: int) -> int:
    return (5 * r + 37) // 3


def _canon(edges) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in edges}


def _adjacency(edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _max_degree(adj) -> int:
    return max((len(ns) for ns in adj.values()), default=0)


def _has_adjacent_max_pair(edges, adj) -> bool:
    delta = _max_degree(adj)
    return any(len(adj[u]) == len(adj[v]) == delta for u, v in edges)


def certificate_problems(edges, assignment: dict, colors_used: int,
                         bound: int | None = None) -> list[str]:
    """Proper, adjacent-vertex-distinguishing, palette counted and bounded.

    ``bound`` defaults to the general bound floor(5(Delta+2)/2); pass
    ``regular_bound(r)`` for a certificate of the regular driver.
    """
    edges = _canon(edges)
    if set(assignment) != edges:
        return ["colored edges differ from the graph's edges"]
    if any(not isinstance(c, int) or c < 1 for c in assignment.values()):
        return ["a color is not a positive integer"]
    adj = _adjacency(edges)
    problems = []
    sets = {v: frozenset(assignment[(min(v, w), max(v, w))] for w in ns)
            for v, ns in adj.items()}
    for v, ns in adj.items():
        if len(sets[v]) != len(ns):
            problems.append(f"not proper: a color repeats at vertex {v}")
            break
    for u, v in sorted(edges):
        if sets[u] == sets[v]:
            problems.append(f"not distinguishing: {u} and {v} both see "
                            f"{sorted(sets[u])}")
            break
    distinct = len(set(assignment.values()))
    if colors_used != distinct:
        problems.append(f"colors_used={colors_used} but {distinct} colors occur")
    delta = _max_degree(adj)
    if bound is None:
        bound = main_bound(delta)
    if not delta <= colors_used <= bound:
        problems.append(f"colors_used={colors_used} outside [{delta}, {bound}]")
    if colors_used < delta + 1 and _has_adjacent_max_pair(edges, adj):
        problems.append(f"colors_used={colors_used} < Delta+1 with two "
                        "adjacent Delta-vertices")
    return problems


def part_palette(part_edges) -> int:
    """Colors the paper's composition commits to for one part."""
    d = _max_degree(_adjacency(part_edges))
    return 5 if d <= 3 else 3 * d


def partition_problems(edges, parts) -> list[str]:
    """Disjoint cover, G0 max degree <= 5, later parts <= 3, normal, k bound."""
    edges = _canon(edges)
    problems = []
    seen: set = set()
    for i, part in enumerate(parts):
        part = _canon(part)
        if not part:
            problems.append(f"part {i} is empty")
        if part & seen:
            problems.append(f"part {i} overlaps an earlier part")
        seen |= part
        adj = _adjacency(part)
        limit = 5 if i == 0 else 3
        if _max_degree(adj) > limit:
            problems.append(f"part {i} has max degree {_max_degree(adj)} > {limit}")
        if any(len(adj[u]) == len(adj[v]) == 1 for u, v in part):
            problems.append(f"part {i} is not normal (isolated edge)")
    if seen != edges:
        problems.append("parts do not cover exactly the graph's edges")
    delta = _max_degree(_adjacency(edges))
    k_max = max(delta // 2 - 2, 0)
    if len(parts) - 1 > k_max:
        problems.append(f"k={len(parts) - 1} > floor(Delta/2)-2 = {k_max}")
    return problems


def audit_problems(edges, report: dict, chi_a: int | None) -> list[str]:
    """Audit passed, reports this graph, and matches the published chi'_a."""
    edges = _canon(edges)
    adj = _adjacency(edges)
    delta = _max_degree(adj)
    problems = []
    if report.get("overall_pass") is not True:
        failed = [row[0] for row in report.get("checks", []) if not row[1]]
        problems.append(f"audit failed: {failed}")
    summary, table = report.get("summary", {}), report.get("bound_table", {})
    if (summary.get("m"), summary.get("delta")) != (len(edges), delta):
        problems.append("audit summary does not describe the graph")
    if table.get("main_bound") != main_bound(delta):
        problems.append("audit main bound is not floor(5(Delta+2)/2)")
    used = table.get("avd_colors_used")
    if not isinstance(used, int) or not delta <= used <= main_bound(delta):
        problems.append(f"avd_colors_used={used} outside "
                        f"[{delta}, {main_bound(delta)}]")
    elif used < delta + 1 and _has_adjacent_max_pair(edges, adj):
        problems.append(f"avd_colors_used={used} < Delta+1 with two adjacent "
                        "Delta-vertices")
    if (summary.get("regular")
            and table.get("regular_bound") != regular_bound(delta)):
        problems.append("audit regular bound is not floor((5r+37)/3)")
    if chi_a is not None and table.get("exact_chi_a") != chi_a:
        problems.append(f"exact_chi_a={table.get('exact_chi_a')}, "
                        f"published {chi_a}")
    return problems


def self_test(cert_edges, assignment: dict, colors_used: int,
              part_edges, parts, audit_edges, report: dict,
              chi_a: int) -> list[str]:
    """Each checker accepts a good output and rejects tampered copies of it.

    Returns what went wrong (empty when every checker behaved).
    """
    misses = []
    if certificate_problems(cert_edges, assignment, colors_used):
        misses.append("certificate checker rejected a genuine output")
    ordered = sorted(assignment)
    e, f = next((e, f) for e in ordered for f in ordered
                if e != f and set(e) & set(f))
    clash = {**assignment, e: assignment[f]}
    # Proper, three colors, but vertices 1 and 2 both see {1, 2}.
    c5 = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (3, 4): 2, (0, 4): 3}
    tampered = {
        "recolored edge clashes at a vertex": (cert_edges, clash, colors_used),
        "palette size overstated": (cert_edges, assignment, colors_used + 1),
        "edge left uncolored": (cert_edges, {x: c for x, c in assignment.items()
                                             if x != e}, colors_used),
        "proper but not distinguishing (C5)": (list(c5), c5, 3),
    }
    for what, (es, asg, used) in tampered.items():
        if not certificate_problems(es, asg, used):
            misses.append(f"certificate checker accepted: {what}")
    if partition_problems(part_edges, parts):
        misses.append("partition checker rejected a genuine output")
    last = sorted(parts[-1])
    tampered_parts = {
        "edge dropped": parts[:-1] + [frozenset(last[1:])],
        "edge in two parts": [parts[0] | {last[0]}] + parts[1:],
        "all edges in one part": [frozenset().union(*parts)],
    }
    for what, bad in tampered_parts.items():
        if not partition_problems(part_edges, bad):
            misses.append(f"partition checker accepted: {what}")
    if audit_problems(audit_edges, report, chi_a):
        misses.append("audit checker rejected a genuine report")
    tampered_reports = {
        "a failed check": dict(report, overall_pass=False),
        "chi'_a off by one": dict(report, bound_table=dict(
            report["bound_table"], exact_chi_a=chi_a + 1)),
    }
    for what, bad in tampered_reports.items():
        if not audit_problems(audit_edges, bad, chi_a):
            misses.append(f"audit checker accepted: {what}")
    return misses
