import dataclasses

import pytest

from avdcolor import (CapExceededError, Graph, audit, avd_color, check_avd,
                      check_certificate, check_proper, complete, cycle,
                      exact_chi_a, exact_chromatic_index, gnp, is_normal,
                      make_coloring, misra_gries, petersen)
from avdcolor import coloring, partition
from helpers import normal_gnp_corpus


def test_check_proper_accepts_misra_gries():
    for seed in range(10):
        g = gnp(12, 0.4, seed)
        if not g.edge_count:
            continue
        assert check_proper(g, misra_gries(g)) == (True, None)


def test_check_proper_counterexample():
    g = cycle(3)
    bad = make_coloring(g, {e: 1 for e in g.edges})
    ok, witness = check_proper(g, bad)
    assert not ok
    e1, e2 = witness
    assert set(e1) & set(e2)  # incident pair


def test_check_proper_single_edge():
    g = Graph(2, [(0, 1)])
    assert check_proper(g, make_coloring(g, {(0, 1): 1})) == (True, None)


def test_check_proper_requires_complete_assignment():
    g = cycle(4)
    with pytest.raises(ValueError):
        check_proper(g, make_coloring(g, {(0, 1): 1}))


def test_check_avd_alternating_c4():
    g = cycle(4)
    bad = make_coloring(g, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})
    ok, witness = check_avd(g, bad)
    assert not ok
    u, v, colors = witness
    assert colors == frozenset({1, 2})


def test_check_avd_p3():
    g = Graph(3, [(0, 1), (1, 2)])
    assert check_avd(g, make_coloring(g, {(0, 1): 1, (1, 2): 2})) == (True, None)


def test_check_avd_rejects_improper():
    g = cycle(3)
    with pytest.raises(ValueError):
        check_avd(g, make_coloring(g, {e: 1 for e in g.edges}))


def test_exact_chi_a_spot_values():
    assert exact_chi_a(Graph(3, [(0, 1), (1, 2)])) == 2
    assert exact_chi_a(cycle(5)) == 5
    assert exact_chi_a(complete(4)) == 5
    assert exact_chi_a(cycle(6)) == 3


def test_exact_chi_a_caps():
    with pytest.raises(CapExceededError):
        exact_chi_a(complete(7))  # 21 edges above the default cap
    with pytest.raises(CapExceededError):
        exact_chi_a(cycle(5), cap=4)


def test_exact_chromatic_index_values():
    assert exact_chromatic_index(cycle(5)) == 3
    assert exact_chromatic_index(complete(4)) == 3
    assert exact_chromatic_index(petersen()) == 4
    with pytest.raises(CapExceededError):
        exact_chromatic_index(complete(7))


def test_oracle_consistency_chain():
    for g in normal_gnp_corpus(12, 3000, 4, 7, 1, 6, p_lo=0.35, p_hi=0.9):
        if g.edge_count > 10:
            continue
        delta = g.max_degree
        chi_prime = exact_chromatic_index(g)
        chi_a = exact_chi_a(g)
        cert = avd_color(g)
        assert delta <= chi_prime <= chi_a <= cert.colors_used
        assert cert.colors_used <= (5 * (delta + 2)) // 2


def test_audit_k7_passes():
    report = audit(complete(7))
    assert report.overall_pass
    assert report.summary["delta"] == 6
    text = report.to_text()
    assert "overall: PASS" in text


def test_audit_petersen_oracle_row():
    report = audit(petersen())
    assert report.overall_pass
    assert report.bound_table["exact_chi_a"] <= report.bound_table["avd_colors_used"] <= 5


def test_audit_non_normal_single_row():
    report = audit(Graph(2, [(0, 1)]))
    assert not report.overall_pass
    assert len(report.checks) == 1
    assert report.checks[0][0].startswith("precondition")


def test_audit_skips_oracle_above_cap():
    g = gnp(30, 0.4, seed=9)
    assert is_normal(g) and g.edge_count > 16
    report = audit(g)
    assert report.overall_pass
    assert any("skipped" in name for name, _, _ in report.checks)
    assert report.to_dict()["overall_pass"]


def test_check_certificate_rejects_flipped_witness():
    g = complete(7)
    cert = avd_color(g)
    assert all(ok for _, ok, _ in check_certificate(g, cert))
    e = min(cert.per_edge_witness)
    # The edge's own color is seen at both ends, so it witnesses nothing.
    flipped = dict(cert.per_edge_witness)
    flipped[e] = cert.coloring.assignment[e]
    rows = check_certificate(g, dataclasses.replace(cert,
                                                    per_edge_witness=flipped))
    failed = [name for name, ok, _ in rows if not ok]
    assert failed == ["witnesses cover equal-degree pairs"]


def test_audit_runs_the_pipeline_once(monkeypatch):
    calls = {"avd_color": 0, "inside": 0, "outside": 0}
    depth = [0]

    def count_driver(fn):
        def wrapper(*args, **kwargs):
            calls["avd_color"] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    def count_partition(fn):
        def wrapper(*args, **kwargs):
            calls["inside" if depth[0] else "outside"] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(coloring, "avd_color", count_driver(coloring.avd_color))
    monkeypatch.setattr(coloring, "partition_p2",
                        count_partition(coloring.partition_p2))
    for name in ("partition_p1", "partition_p2"):
        monkeypatch.setattr(partition, name,
                            count_partition(getattr(partition, name)))
    report = audit(complete(12))
    assert report.overall_pass
    assert calls["avd_color"] == 1
    assert calls["outside"] == 0
    assert calls["inside"] >= 2  # partition_p2 plus a partition_p1 per peel


def _audit_with_parts(monkeypatch, g, make_parts):
    real = coloring.avd_color

    def swapped(graph, trace=None):
        cert = real(graph, trace=trace)
        return dataclasses.replace(cert, parts=make_parts(cert.parts))

    monkeypatch.setattr(coloring, "avd_color", swapped)
    return audit(g)


def test_audit_rejects_overlapping_parts(monkeypatch):
    def overlap(parts):
        return (parts[0] | {min(parts[-1])},) + parts[1:]

    report = _audit_with_parts(monkeypatch, complete(12), overlap)
    assert not report.overall_pass
    failed = [name for name, ok, _ in report.checks if not ok]
    assert failed == ["parts partition the edge set"]


def test_audit_reports_improper_certificate(monkeypatch):
    real = coloring.avd_color

    def clashing(graph, trace=None):
        cert = real(graph, trace=trace)
        (e, _), (f, c) = sorted(cert.coloring.assignment.items())[:2]
        assert set(e) & set(f)  # incident edges, now sharing color c
        assignment = dict(cert.coloring.assignment)
        assignment[e] = c
        return dataclasses.replace(
            cert, coloring=make_coloring(graph, assignment))

    monkeypatch.setattr(coloring, "avd_color", clashing)
    report = audit(complete(7))
    assert not report.overall_pass
    failed = {name: detail for name, ok, detail in report.checks if not ok}
    assert "avd certificate proper" in failed
    assert failed["avd certificate distinguishing"] == "skipped (not proper)"


def test_audit_rejects_unbounded_g0(monkeypatch):
    g = complete(12)
    report = _audit_with_parts(monkeypatch, g, lambda parts: (g.edges,))
    assert not report.overall_pass
    failed = {name for name, ok, _ in report.checks if not ok}
    assert "G0 max degree <= 5" in failed
    assert "parts partition the edge set" not in failed
