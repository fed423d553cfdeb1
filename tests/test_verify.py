import dataclasses
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from avdcolor import (CapExceededError, EdgeColoring, Graph, NotNormalError,
                      audit, avd_color, check_avd, check_certificate,
                      check_partition, check_proper, complete, cycle,
                      exact_chi_a, exact_chromatic_index, gnp, is_normal,
                      emit_graph, misra_gries, partition_p2, petersen,
                      random_regular)
from avdcolor import coloring, partition, verify
from avdcolor.cli import main
from helpers import (check_avd_reference, check_certificate_reference,
                     check_partition_reference, check_proper_reference,
                     normal_gnp_corpus)


def test_check_proper_accepts_misra_gries():
    for seed in range(10):
        g = gnp(12, 0.4, seed)
        if not g.edge_count:
            continue
        assert check_proper(g, misra_gries(g)) == (True, None)


def test_check_proper_counterexample():
    g = cycle(3)
    bad = EdgeColoring(g, {e: 1 for e in g.edges})
    ok, witness = check_proper(g, bad)
    assert not ok
    e1, e2 = witness
    assert set(e1) & set(e2)  # incident pair


def test_check_proper_single_edge():
    g = Graph(2, [(0, 1)])
    assert check_proper(g, EdgeColoring(g, {(0, 1): 1})) == (True, None)


def test_check_proper_requires_complete_assignment():
    g = cycle(4)
    with pytest.raises(ValueError):
        check_proper(g, EdgeColoring(g, {(0, 1): 1}))


def test_check_avd_alternating_c4():
    g = cycle(4)
    bad = EdgeColoring(g, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})
    ok, witness = check_avd(g, bad)
    assert not ok
    u, v, colors = witness
    assert colors == frozenset({1, 2})


def test_check_avd_p3():
    g = Graph(3, [(0, 1), (1, 2)])
    assert check_avd(g, EdgeColoring(g, {(0, 1): 1, (1, 2): 2})) == (True, None)


def test_check_avd_rejects_improper():
    g = cycle(3)
    with pytest.raises(ValueError):
        check_avd(g, EdgeColoring(g, {e: 1 for e in g.edges}))


def test_exact_chi_a_spot_values():
    assert exact_chi_a(Graph(3, [(0, 1), (1, 2)])) == 2
    assert exact_chi_a(cycle(5)) == 5
    assert exact_chi_a(complete(4)) == 5
    assert exact_chi_a(cycle(6)) == 3
    # Closed forms of Zhang, Liu and Wang (2002).
    for n in range(3, 17):
        assert exact_chi_a(cycle(n)) == (3 if n % 3 == 0 else
                                         5 if n == 5 else 4)
    for n in range(3, 7):
        assert exact_chi_a(complete(n)) == (n if n % 2 else n + 1)


def test_exact_chi_a_caps():
    with pytest.raises(CapExceededError):
        exact_chi_a(complete(7))  # 21 edges above the default cap
    with pytest.raises(CapExceededError):
        exact_chi_a(cycle(5), cap=4)


def test_oracle_node_budget_bounds_a_refutation():
    # chi'_a(K_8) = 9, so palettes 7 and 8 must be refuted exhaustively,
    # which did not end within 60 s; the node budget stops it in seconds.
    budget = verify.ORACLE_NODE_BUDGET
    with pytest.raises(CapExceededError, match=f"budget spent: {budget} nodes"):
        exact_chi_a(complete(8), edge_cap=28)


def test_audit_reports_a_spent_oracle_budget_as_a_skip(monkeypatch):
    monkeypatch.setattr(verify, "ORACLE_NODE_BUDGET", 1000)
    report = audit(complete(8), oracle_edge_cap=28)
    assert report.overall_pass
    assert report.checks[-1] == (
        "exact oracles skipped (node budget spent)", True,
        "oracle node budget spent: 1000 nodes without an answer at 8 colors")
    assert "exact_chi_a" not in report.bound_table


def test_exact_chromatic_index_values():
    assert exact_chromatic_index(cycle(5)) == 3
    assert exact_chromatic_index(complete(4)) == 3
    assert exact_chromatic_index(petersen()) == 4
    with pytest.raises(CapExceededError):
        exact_chromatic_index(complete(7))
    for n in range(3, 17):
        assert exact_chromatic_index(cycle(n)) == (3 if n % 2 else 2)
    for n in range(3, 7):
        assert exact_chromatic_index(complete(n)) == (n if n % 2 else n - 1)


def test_oracles_on_edgeless_and_non_normal_graphs():
    assert exact_chromatic_index(Graph(3)) == 0
    assert exact_chi_a(Graph(0)) == 0
    with pytest.raises(NotNormalError):
        exact_chi_a(Graph(3, [(0, 1)]))


@pytest.mark.parametrize("n, chi_prime, chi_a", [(3000, 2, 3), (3001, 3, 4)])
def test_oracles_answer_long_cycles(n, chi_prime, chi_a):
    # One search node per edge deep: the oracles must not recurse per edge.
    g = cycle(n)
    assert exact_chromatic_index(g, edge_cap=n) == chi_prime
    assert exact_chi_a(g, edge_cap=n) == chi_a


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


def test_check_certificate_counts_the_palette_itself():
    # A stated palette size of 1 on Petersen's 4-color certificate fails
    # the palette row: the checker counts the colors of the assignment.
    g = petersen()
    cert = avd_color(g)
    assert cert.colors_used == 4
    understated = dataclasses.replace(cert, coloring=EdgeColoring(
        g, cert.coloring.assignment), colors_used=1, bound_claimed=1)
    rows = check_certificate(g, understated)
    assert [name for name, ok, _ in rows if not ok] == [
        "colors_used matches palette"]


def test_check_certificate_checks_properness_once(monkeypatch):
    # One mask pass gives every row, the proper row included, on a proper
    # and on an improper coloring alike.
    g = gnp(16, 0.6, 3)
    cert = avd_color(g)
    (e, _), (f, c) = sorted(cert.coloring.assignment.items())[:2]
    assert set(e) & set(f)
    clash = dataclasses.replace(cert, coloring=EdgeColoring(
        g, {**cert.coloring.assignment, e: c}))
    calls = []
    real = verify._color_masks

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "_color_masks", counting)
    assert all(ok for _, ok, _ in check_certificate(g, cert))
    assert len(calls) == 1
    assert check_certificate(g, clash)[0] == ("proper", False, (e, f))
    assert len(calls) == 2


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


def test_audit_colors_a_low_degree_regular_graph_once(monkeypatch):
    calls = []
    real = coloring.avd_subcubic

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(coloring, "avd_subcubic", counting)
    report = audit(cycle(6))
    assert report.overall_pass
    assert len(calls) == 1
    assert report.bound_table["regular_bound"] == coloring.regular_bound(2)


def test_audit_runs_the_regular_driver_only_where_its_bound_is_tighter(
        monkeypatch):
    calls = []
    real = coloring.avd_color_regular

    def counting(g):
        calls.append(g.max_degree)
        return real(g)

    monkeypatch.setattr(coloring, "avd_color_regular", counting)
    for g in (complete(10), complete(11)):
        assert audit(g, oracle_edge_cap=0).overall_pass
    assert calls == [10]


@pytest.mark.parametrize("g, checks", [
    (gnp(12, 0.5, 4), 1),
    (random_regular(30, 6, 2), 1),
    (random_regular(30, 10, 2), 2),
], ids=["irregular", "r6", "r10"])
def test_audit_checks_each_certificate_once(monkeypatch, g, checks):
    # Up to r = 9 the regular row reads the avd certificate's rows; from
    # r = 10 the regular driver's own certificate is checked once more.
    calls = []
    real = verify.check_certificate

    def counting(graph, cert):
        calls.append(cert)
        return real(graph, cert)

    monkeypatch.setattr(verify, "check_certificate", counting)
    report = audit(g, oracle_edge_cap=0)
    assert report.overall_pass
    assert len(calls) == checks
    assert len({id(cert) for cert in calls}) == checks


def _audit_with_parts(monkeypatch, g, make_parts):
    real = coloring.avd_color

    def swapped(graph):
        cert = real(graph)
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


def _clash_first_pair(monkeypatch):
    # avd_color's certificate, with its first edge recolored to the color
    # of the incident second edge.
    real = coloring.avd_color

    def clashing(graph):
        cert = real(graph)
        (e, _), (f, c) = sorted(cert.coloring.assignment.items())[:2]
        assert set(e) & set(f)  # incident edges, now sharing color c
        assignment = dict(cert.coloring.assignment)
        assignment[e] = c
        return dataclasses.replace(
            cert, coloring=EdgeColoring(graph, assignment))

    monkeypatch.setattr(coloring, "avd_color", clashing)


def test_audit_reports_improper_certificate(monkeypatch):
    _clash_first_pair(monkeypatch)
    report = audit(complete(7))
    assert not report.overall_pass
    failed = {name: detail for name, ok, detail in report.checks if not ok}
    assert "avd certificate proper" in failed
    assert (failed["avd certificate adjacent-vertex-distinguishing"]
            == "skipped (not proper)")


@pytest.mark.parametrize("g", [petersen(), cycle(6), random_regular(20, 9, 1)],
                         ids=["cubic", "cycle", "r9"])
def test_audit_fails_an_improper_regular_certificate(monkeypatch, tmp_path,
                                                     capsys, g):
    # Up to r = 9 the regular row reads the rows of avd_color's certificate,
    # so it must fail with them rather than pass or raise.
    _clash_first_pair(monkeypatch)
    report = audit(g)
    assert not report.overall_pass
    failed = {name for name, ok, _ in report.checks if not ok}
    assert {"avd certificate proper",
            "avd certificate adjacent-vertex-distinguishing"} <= failed
    rbound = coloring.regular_bound(g.max_degree)
    assert f"regular driver within floor((5r+37)/3) = {rbound}" in failed
    path = tmp_path / "g.g6"
    path.write_bytes(emit_graph(g, "graph6"))
    assert main(["audit", str(path)]) == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_audit_rejects_unbounded_g0(monkeypatch):
    g = complete(12)
    report = _audit_with_parts(monkeypatch, g, lambda parts: (g.edges,))
    assert not report.overall_pass
    failed = {name for name, ok, _ in report.checks if not ok}
    assert "G0 max degree <= 5" in failed
    assert "parts partition the edge set" not in failed


@st.composite
def _small_connected_graphs(draw, n_max=8):
    # A random tree on 3..n_max vertices plus extra edges: connected with
    # at least three vertices, hence normal.
    n = draw(st.integers(3, n_max))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, tree | draw(st.sets(st.sampled_from(pairs))))


@settings(max_examples=40, deadline=None)
@given(_small_connected_graphs(), st.data())
def test_recolored_edge_fails_proper_and_cli_verify(g, data):
    cert = coloring.certificate_to_dict(avd_color(g))
    rows = cert["edges"]
    i = data.draw(st.integers(0, len(rows) - 1))
    u, v, _ = rows[i]
    j = data.draw(st.sampled_from([k for k, (a, b, _) in enumerate(rows)
                                   if k != i and {a, b} & {u, v}]))
    rows[i][2] = rows[j][2]  # two incident edges now share a color
    tampered = coloring.certificate_from_dict(cert, host=g)
    assert ("proper", False) in [row[:2] for row in check_certificate(g, tampered)]
    with tempfile.TemporaryDirectory() as tmp:
        gpath, cpath = Path(tmp) / "g.g6", Path(tmp) / "cert.json"
        gpath.write_bytes(emit_graph(g, "graph6"))
        cpath.write_text(json.dumps(cert))
        assert main(["verify", str(gpath), str(cpath)]) == 1


# -- the checkers against their references in tests/helpers.py ---------------


def _outcome(check, *args):
    # A checker's rows or result, or the type and message of what it raised.
    try:
        return check(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_checks_match(g, cert):
    assert (_outcome(check_certificate, g, cert)
            == _outcome(check_certificate_reference, g, cert))
    for check, reference in ((check_proper, check_proper_reference),
                             (check_avd, check_avd_reference)):
        assert (_outcome(check, g, cert.coloring)
                == _outcome(reference, g, cert.coloring))


def _recolor(cert, e, c):
    assignment = dict(cert.coloring.assignment)
    assignment[e] = c
    return dataclasses.replace(
        cert, coloring=EdgeColoring(cert.coloring.host, assignment))


def _tamper(cert, g, data):
    """The certificate with one flaw drawn from ``data``, or as it is."""
    edges = g.sorted_edges()
    kind = data.draw(st.sampled_from(
        ["none", "clash", "color", "colors_used", "proper only"]))
    if kind == "clash":
        e = data.draw(st.sampled_from(edges))
        f = data.draw(st.sampled_from([f for f in edges
                                       if f != e and set(f) & set(e)]))
        return _recolor(cert, e, cert.coloring.assignment[f])
    if kind == "color":
        return _recolor(cert, data.draw(st.sampled_from(edges)),
                        data.draw(st.sampled_from([0, -2, 10**30])))
    if kind == "colors_used":
        return dataclasses.replace(
            cert, colors_used=cert.colors_used + data.draw(
                st.sampled_from([-1, 1])))
    if kind == "proper only":
        # Misra-Gries colors properly but seldom distinguishes every edge.
        return dataclasses.replace(cert, coloring=misra_gries(g))
    return cert


@settings(max_examples=150, deadline=None)
@given(_small_connected_graphs(9), st.data())
def test_checkers_match_their_references(g, data):
    cert = _tamper(avd_color(g), g, data)
    _assert_checks_match(g, cert)


def test_checkers_match_their_references_on_tampered_corpus():
    # Every flaw at every edge of a few pipeline certificates.
    for g in (petersen(), complete(7), cycle(5), gnp(12, 0.5, 4)):
        cert = avd_color(g)
        _assert_checks_match(g, cert)
        _assert_checks_match(g, dataclasses.replace(
            cert, coloring=misra_gries(g)))
        for e in g.sorted_edges():
            for f in g.sorted_edges():
                if f != e and set(f) & set(e):
                    _assert_checks_match(
                        g, _recolor(cert, e, cert.coloring.assignment[f]))
            for c in (0, -2, 10**30):
                _assert_checks_match(g, _recolor(cert, e, c))


@settings(max_examples=60, deadline=None)
@given(_small_connected_graphs(12), st.data())
def test_check_partition_matches_its_reference(g, data):
    parts = partition_p2(g).parts
    variants = [parts, parts[:-1], [g.edges]]
    if len(parts) > 1:
        i = data.draw(st.integers(0, len(parts) - 2))
        j = data.draw(st.integers(i + 1, len(parts) - 1))
        variants.append(parts[:i] + [parts[i] | parts[j]]
                        + parts[i + 1:j] + parts[j + 1:])
    # Any two-part split, so that either side may have an isolated edge.
    peel = frozenset(data.draw(st.sets(st.sampled_from(g.sorted_edges()),
                                       min_size=1)))
    if peel != g.edges:
        variants.append([g.edges - peel, peel])
    for variant in variants:
        assert (_outcome(check_partition, g, variant)
                == _outcome(check_partition_reference, g, variant))


def test_check_partition_matches_its_reference_on_dense_graphs():
    for g in (complete(12), complete(9), gnp(40, 0.4, 2), petersen()):
        parts = partition_p2(g).parts
        variants = [parts, parts[:-1], [g.edges]]
        variants += [parts[:i] + [parts[i] | parts[i + 1]] + parts[i + 2:]
                     for i in range(len(parts) - 1)]
        for variant in variants:
            assert (check_partition(g, variant)
                    == check_partition_reference(g, variant))


def test_single_part_of_a_dense_graph_has_a_normal_empty_complement():
    g = complete(8)
    rows = {name: (ok, detail) for name, ok, detail
            in check_partition(g, [g.edges])}
    assert rows["partition: complement max degree <= 5"] == (True, "max 0")
    assert rows["partition: both sides normal"] == (True, "")
    assert rows["partition: selection side max degree <= 3"] == (False,
                                                                 "max 7")


def test_check_partition_fails_an_empty_family():
    row = ("parts partition the edge set", False, "0 parts")
    assert check_partition(cycle(5), []) == [row]
    assert check_partition(Graph(0), []) == [row]
    assert check_partition(Graph(3), []) == [row]


@pytest.mark.parametrize("colors", [[10**30], [0, -2]],
                         ids=["huge", "zero-and-negative"])
def test_verify_reads_colors_of_any_size(tmp_path, capsys, colors):
    g = petersen()
    payload = coloring.certificate_to_dict(avd_color(g))
    for row, c in zip(payload["edges"], colors):
        row[2] = c
    cert = coloring.certificate_from_dict(payload, host=g)
    rows = check_certificate(g, cert)
    assert rows == check_certificate_reference(g, cert)
    assert not all(ok for _, ok, _ in rows)
    gpath, cpath = tmp_path / "g.g6", tmp_path / "cert.json"
    gpath.write_bytes(emit_graph(g, "graph6"))
    cpath.write_text(json.dumps(payload))
    t0 = time.perf_counter()
    assert main(["verify", str(gpath), str(cpath)]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert "FAIL colors_used matches palette" in capsys.readouterr().out
