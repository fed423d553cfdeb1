import json

import pytest

from avdcolor import complete, cycle, emit_graph, gnp, parse_graph, petersen
from avdcolor.cli import main
from helpers import (closure_revisit_state, exhaust_searches,
                     isolated_edge_block)


def _write_graph(tmp_path, g, name="g.g6", fmt="graph6"):
    path = tmp_path / name
    path.write_bytes(emit_graph(g, fmt))
    return str(path)


def test_gen_writes_graph6(tmp_path, capsys):
    out = tmp_path / "c5.g6"
    assert main(["gen", "cycle:5", "--out", str(out)]) == 0
    assert out.read_bytes() == emit_graph(cycle(5), "graph6")


def test_gen_stdout_deterministic(capsys):
    assert main(["gen", "random-regular:12,4", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "random-regular:12,4", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("spec", ["cycle:5,9", "petersen:3",
                                  "random-regular:10,3,7", "gnp:20"])
def test_gen_refuses_a_wrong_argument_count(tmp_path, capsys, spec):
    # A usage error: one line naming the count, exit 2, and no file.
    out = tmp_path / "g.g6"
    assert main(["gen", spec, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad generator spec {spec!r}: ")
    assert " takes " in captured.err and captured.err.count("\n") == 1
    assert not out.exists()


def test_color_summary_and_certificate(tmp_path, capsys):
    gpath = _write_graph(tmp_path, petersen())
    cert = tmp_path / "cert.json"
    assert main(["color", gpath, "--out", str(cert)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("colors=") and "bound=12" in line
    data = json.loads(cert.read_text())
    assert data["type"] == "avd-certificate"
    assert data["colors_used"] <= 5


def test_color_verify_roundtrip(tmp_path, capsys):
    gpath = _write_graph(tmp_path, complete(7))
    cert = tmp_path / "cert.json"
    assert main(["color", gpath, "--out", str(cert)]) == 0
    capsys.readouterr()
    assert main(["verify", gpath, str(cert)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_verify_rejects_tampered_certificate(tmp_path, capsys):
    gpath = _write_graph(tmp_path, complete(7))
    cert = tmp_path / "cert.json"
    main(["color", gpath, "--out", str(cert)])
    data = json.loads(cert.read_text())
    data["edges"][0][2] = data["edges"][1][2]  # clash two incident colors
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", gpath, str(cert)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_ignores_an_older_payloads_witness_map(tmp_path, capsys):
    # An older payload also held per-vertex color sets and a witness map.
    # They are not read: a wrong witness next to an AVD coloring passes,
    # and a clash in the coloring fails whatever the witnesses say.
    g = complete(7)
    gpath = _write_graph(tmp_path, g)
    cert = tmp_path / "cert.json"
    main(["color", gpath, "--out", str(cert)])
    data = json.loads(cert.read_text())
    assert set(data) == {"type", "vertex_count", "colors_used",
                         "bound_claimed", "edges"}
    colors = {(u, v): c for u, v, c in data["edges"]}
    # The edge's own color is at both ends, so it distinguishes nothing.
    data["witnesses"] = [[u, v, c] for (u, v), c in colors.items()]
    data["vertex_color_sets"] = {
        str(x): sorted(c for e, c in colors.items() if x in e)
        for x in g.vertices}
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", gpath, str(cert)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    (u, v, _), (x, y, c) = data["edges"][:2]
    assert {u, v} & {x, y}
    data["edges"][0][2] = c
    cert.write_text(json.dumps(data))
    assert main(["verify", gpath, str(cert)]) == 1
    assert "FAIL proper" in capsys.readouterr().out


@pytest.mark.parametrize("content, message", [
    (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
    ('{"type": "avd-certificate \u00e9"}'.encode(), None),
    (b'{"type": "avd-certificate", "edges": [[0, 1', None),
], ids=["deep", "non-ascii", "truncated"])
def test_verify_unreadable_certificate_is_a_usage_error(tmp_path, capsys,
                                                         content, message):
    # One error line and exit 2, never a traceback.
    gpath = _write_graph(tmp_path, cycle(7))
    path = tmp_path / "cert.json"
    path.write_bytes(content)
    assert main(["verify", gpath, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    if message:
        assert captured.err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("bad_graph, content, message", [
    (False, '{"type": "avd-certificate é"}'.encode(),
     "'ascii' codec can't decode byte 0xc3 in position 26"),
    (False, b'{"type" "avd-certificate"}', "Expecting ':' delimiter"),
    (True, b"{}", "graph6 body length 3 does not match n=43"),
], ids=["non-ascii", "malformed-json", "bad-graph6"])
def test_verify_error_names_the_failing_file(tmp_path, capsys, bad_graph,
                                             content, message):
    gpath = _write_graph(tmp_path, cycle(7))
    if bad_graph:
        gpath = tmp_path / "junk.g6"
        gpath.write_bytes(b"junk")
    cert = tmp_path / "cert.json"
    cert.write_bytes(content)
    assert main(["verify", str(gpath), str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    failing = gpath if bad_graph else cert
    assert captured.err.startswith(f"error: {failing}: {message}")
    assert captured.err.count("\n") == 1


def _without_edges(data):
    del data["edges"]
    return data


def _null_color(data):
    data["edges"][0][2] = None
    return data


def _edge_twice(data):
    # A wrong color for an edge that a later row colors correctly.
    u, v, _ = data["edges"][0]
    data["edges"].insert(0, [u, v, 99])
    return data


@pytest.mark.parametrize("malform", [
    _without_edges, lambda d: [d], _null_color,
    lambda d: {**d, "colors_used": str(d["colors_used"])},
    _edge_twice,
], ids=["no-edges", "list", "null-color", "string-palette", "edge-twice"])
def test_verify_rejects_malformed_certificate(tmp_path, capsys, malform):
    gpath = _write_graph(tmp_path, complete(7))
    cert = tmp_path / "cert.json"
    main(["color", gpath, "--out", str(cert)])
    cert.write_text(json.dumps(malform(json.loads(cert.read_text()))))
    capsys.readouterr()
    assert main(["verify", gpath, str(cert)]) == 1
    assert capsys.readouterr().out.startswith("FAIL certificate shape: ")


def test_color_regular_cli(tmp_path, capsys):
    from avdcolor import random_regular
    gpath = _write_graph(tmp_path, random_regular(12, 5, seed=2))
    cert = tmp_path / "cert.json"
    assert main(["color-regular", gpath, "--out", str(cert)]) == 0
    assert "bound=20" in capsys.readouterr().out
    assert main(["verify", gpath, str(cert)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_color_deterministic_output(tmp_path, capsys):
    gpath = _write_graph(tmp_path, complete(7))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["color", gpath, "--out", str(a)]) == 0
    assert main(["color", gpath, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_partition_checklist(tmp_path, capsys):
    g = gnp(10, 0.5, 122)  # its initial selection needs one move
    gpath = _write_graph(tmp_path, g)
    out = tmp_path / "parts.json"
    trace = tmp_path / "trace.jsonl"
    assert main(["partition", gpath, "--out", str(out),
                 "--trace", str(trace)]) == 0
    summary = capsys.readouterr().out
    assert "checks=pass" in summary
    data = json.loads(out.read_text())
    rows = {name: ok for name, ok, _ in data["checks"]}
    assert all(rows.values())
    assert {"parts partition the edge set", "G0 max degree <= 5",
            "partition: selection side max degree <= 3",
            "partition: complement max degree <= 6",
            "partition: both sides normal"} <= set(rows)
    assert any(name.startswith("recursion depth k = ") for name in rows)
    covered = {tuple(e) for part in data["parts"] for e in part}
    assert covered == {tuple(e) for e in map(sorted, g.edges)}
    assert trace.read_text()
    for line in trace.read_text().splitlines():
        entry = json.loads(line)
        assert entry["potential_after"] < entry["potential_before"]


@pytest.mark.parametrize("data", [b"", b"p edge 0 0\n"],
                         ids=["empty-edge-list", "empty-dimacs"])
def test_partition_of_an_edgeless_graph_names_the_cause(tmp_path, capsys,
                                                         data):
    # Not EdgePartition's "part 0 is empty": the graph has no edge at all.
    path = tmp_path / "g"
    path.write_bytes(data)
    assert main(["partition", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: partition requires a graph with at least one edge\n")


def test_partition_exits_1_on_a_failing_row(tmp_path, monkeypatch, capsys):
    from avdcolor import EdgePartition, cli
    g = gnp(10, 0.5, 1)
    monkeypatch.setattr(cli, "partition_p2",
                        lambda g, trace=None: EdgePartition(g, [g.edges]))
    out = tmp_path / "parts.json"
    assert main(["partition", _write_graph(tmp_path, g),
                 "--out", str(out)]) == 1
    assert "checks=fail" in capsys.readouterr().out
    failed = {name for name, ok, _ in json.loads(out.read_text())["checks"]
              if not ok}
    assert "G0 max degree <= 5" in failed


def test_partition_stall_exits_with_counterexample(tmp_path, monkeypatch,
                                                  capsys):
    from avdcolor import SubgraphSelection, partition
    g, sel = closure_revisit_state()
    gpath = _write_graph(tmp_path, g)
    # Start from the revisit state and reject every candidate: the chain
    # closure saturates.
    monkeypatch.setattr(partition, "initial_selection",
                        lambda h, coloring=None:
                        SubgraphSelection(h, sel.selected))
    monkeypatch.setattr(partition, "_first_valid", lambda g, sel, cands: None)
    monkeypatch.chdir(tmp_path)
    assert main(["partition", gpath]) == 3
    assert "counterexample report written" in capsys.readouterr().err
    data = json.loads((tmp_path / "avdcolor.counterexample.json").read_text())
    assert "chain closure saturated" in data["message"]
    assert set(data["state"]) == {"edgelist", "selection", "potential",
                                  "v1_set", "v2_set", "unresolved",
                                  "move_log"}
    assert data["state"]["move_log"] == []
    dumped = parse_graph(data["state"]["edgelist"], "edgelist")
    assert dumped.edges == g.edges


def test_unwritable_counterexample_report_still_exits_three(
        tmp_path, monkeypatch, capsys):
    # The report goes next to --out, in a directory that does not exist:
    # one error line names it, and the finding's exit code stands.
    from avdcolor import SubgraphSelection, partition
    g, sel = closure_revisit_state()
    gpath = _write_graph(tmp_path, g)
    monkeypatch.setattr(partition, "initial_selection",
                        lambda h, coloring=None:
                        SubgraphSelection(h, sel.selected))
    monkeypatch.setattr(partition, "_first_valid", lambda g, sel, cands: None)
    out = tmp_path / "missing" / "p.json"
    assert main(["partition", gpath, "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {out.with_suffix('')}.counterexample.json: "
                   "No such file or directory"]
    assert not out.parent.exists()


def test_color_refuted_budget_exits_with_counterexample(tmp_path, monkeypatch,
                                                        capsys):
    from avdcolor import coloring
    gpath = _write_graph(tmp_path, petersen())
    monkeypatch.setattr(coloring, "avd_color_budget", lambda *a, **kw: None)
    monkeypatch.setattr(coloring, "_repair", lambda *a: None)
    assert main(["color", gpath, "--out", str(tmp_path / "cert.json")]) == 3
    assert "counterexample report written" in capsys.readouterr().err
    data = json.loads((tmp_path / "cert.counterexample.json").read_text())
    assert "budget 5 refuted" in data["message"]
    assert set(data["state"]) == {"edgelist", "budget"}
    assert data["state"]["budget"] == 5
    part = parse_graph(data["state"]["edgelist"], "edgelist")
    assert part.edges == petersen().edges
    assert not (tmp_path / "cert.json").exists()


def test_color_refuted_budget_on_a_partitioned_part_exits_three(
        tmp_path, monkeypatch, capsys):
    # gnp(10, 0.5, 2) has Delta 8: the refuted part keeps the host's labels,
    # and not all of them.
    from avdcolor import coloring
    g = gnp(10, 0.5, 2)
    gpath = _write_graph(tmp_path, g)
    monkeypatch.setattr(coloring, "avd_color_budget", lambda *a, **kw: None)
    monkeypatch.setattr(coloring, "_repair", lambda *a: None)
    assert main(["color", gpath, "--out", str(tmp_path / "cert.json")]) == 3
    assert "counterexample report written" in capsys.readouterr().err
    data = json.loads((tmp_path / "cert.counterexample.json").read_text())
    assert "refuted" in data["message"]
    part = parse_graph(data["state"]["edgelist"], "edgelist")
    assert part.edge_count and part.edges <= g.edges
    assert not (tmp_path / "cert.json").exists()


@pytest.mark.parametrize("g", [petersen(), gnp(10, 0.5, 2)],
                         ids=["one-part", "partitioned"])
def test_color_spent_search_budget_exits_four(tmp_path, monkeypatch, capsys,
                                              g):
    # gnp(10, 0.5, 2) has Delta 8: the spent part keeps the host's labels,
    # and not all of them.
    exhaust_searches(monkeypatch)
    gpath = _write_graph(tmp_path, g)
    assert main(["color", gpath, "--out", str(tmp_path / "cert.json")]) == 4
    assert "search-cap report written" in capsys.readouterr().err
    data = json.loads((tmp_path / "cert.search-cap.json").read_text())
    assert "not reached" in data["message"]
    assert set(data["state"]) == {"edgelist", "budget", "nodes", "attempts"}
    part = parse_graph(data["state"]["edgelist"], "edgelist")
    assert part.edge_count and part.edges <= g.edges
    assert not (tmp_path / "cert.json").exists()


def test_unwritable_search_cap_report_still_exits_four(tmp_path, monkeypatch,
                                                       capsys):
    exhaust_searches(monkeypatch)
    gpath = _write_graph(tmp_path, petersen())
    out = tmp_path / "missing" / "cert.json"
    assert main(["color", gpath, "--out", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {out.with_suffix('')}.search-cap.json: "
                   "No such file or directory"]
    assert not out.parent.exists()


@pytest.mark.parametrize("g", [petersen(), gnp(10, 0.5, 2)],
                         ids=["one-part", "partitioned"])
def test_audit_spent_search_budget_fails(tmp_path, monkeypatch, capsys, g):
    exhaust_searches(monkeypatch)
    gpath = _write_graph(tmp_path, g)
    assert main(["audit", gpath]) == 1
    out = capsys.readouterr().out
    assert "FAIL avd coloring produced" in out
    assert "overall: FAIL" in out


def test_audit_dir_goes_on_after_a_spent_regular_driver(tmp_path, monkeypatch,
                                                        capsys):
    # Searches run out of budget once avd_color has returned, so only the
    # regular driver's parts (r = 10, partition_regular) spend their budget.
    from avdcolor import coloring, complete
    armed = []
    real_color = coloring.avd_color
    calls = exhaust_searches(monkeypatch, armed=armed)

    def color_then_arm(g):
        armed.clear()
        cert = real_color(g)
        armed.append(True)
        return cert

    monkeypatch.setattr(coloring, "avd_color", color_then_arm)
    d = tmp_path / "graphs"
    d.mkdir()
    _write_graph(d, complete(11), name="a.g6")
    _write_graph(d, cycle(7), name="b.g6")
    assert main(["audit", "--dir", str(d)]) == 1
    out = capsys.readouterr().out
    first, second = out.split("== ")[1:]
    assert "FAIL regular driver within floor((5r+37)/3) = 29" in first
    assert "PASS avd certificate adjacent-vertex-distinguishing" in first
    assert "overall: FAIL" in first
    assert "overall: PASS" in second
    assert calls


def test_partition_regular_cli(tmp_path, capsys):
    from avdcolor import random_regular
    gpath = _write_graph(tmp_path, random_regular(12, 5, seed=2))
    assert main(["partition-regular", gpath, "--out",
                 str(tmp_path / "p.json")]) == 0
    assert "checks=pass" in capsys.readouterr().out


@pytest.mark.parametrize("regroup, normal, max_degrees", [
    (lambda g, blocks: isolated_edge_block(blocks), False, [1, 3, 3]),
    (lambda g, blocks: [g.edges], True, [5]),
], ids=["isolated-edge-block", "degree-5-block"])
def test_partition_regular_bad_grouping_fails_the_checklist(
        tmp_path, monkeypatch, capsys, regroup, normal, max_degrees):
    # The grouping is checked where it is used: the checklist gates on
    # normality and on max degree at most 4.
    from avdcolor import EdgePartition, cli, partition_regular, random_regular
    monkeypatch.setattr(cli, "partition_regular", lambda g: EdgePartition(
        g, regroup(g, partition_regular(g).parts)))
    gpath = _write_graph(tmp_path, random_regular(12, 5, seed=2))
    out = tmp_path / "p.json"
    assert main(["partition-regular", gpath, "--out", str(out)]) == 1
    assert capsys.readouterr().out == f"parts={len(max_degrees)} checks=fail\n"
    checklist = json.loads(out.read_text())["checklist"]
    assert checklist["all_parts_normal"] is normal
    assert checklist["max_degrees"] == max_degrees


def test_oracle_c5(tmp_path, capsys):
    gpath = _write_graph(tmp_path, cycle(5))
    assert main(["oracle", gpath]) == 0
    assert capsys.readouterr().out.strip() == "5"


@pytest.mark.parametrize("command, expected", [
    ("oracle", "3\n"),
    ("audit", "PASS oracle chain Delta <= chi' <= chi'_a <= certificate "
              "(chi'=2 chi'_a=3 cert="),
], ids=["oracle", "audit"])
def test_oracle_edge_cap_reaches_a_long_cycle(tmp_path, capsys, command,
                                              expected):
    gpath = _write_graph(tmp_path, cycle(3000))
    assert main([command, gpath, "--oracle-edge-cap", "3000"]) == 0
    assert expected in capsys.readouterr().out


@pytest.mark.parametrize("command, code, stream, expected", [
    ("oracle", 2, "err", "error: oracle node budget spent: 500 nodes"),
    ("audit", 0, "out", "PASS exact oracles skipped (node budget spent)"),
], ids=["oracle", "audit"])
def test_spent_oracle_budget_ends_without_a_traceback(
        tmp_path, capsys, monkeypatch, command, code, stream, expected):
    from avdcolor import verify
    monkeypatch.setattr(verify, "ORACLE_NODE_BUDGET", 500)
    gpath = _write_graph(tmp_path, complete(8))
    assert main([command, gpath, "--oracle-edge-cap", "28"]) == code
    assert expected in getattr(capsys.readouterr(), stream)


def test_oracle_rejects_large_input(tmp_path, capsys):
    gpath = _write_graph(tmp_path, complete(8))
    assert main(["oracle", gpath]) == 2


def test_audit_exit_codes(tmp_path, capsys):
    good = _write_graph(tmp_path, petersen(), "good.g6")
    assert main(["audit", good]) == 0
    capsys.readouterr()
    from avdcolor import Graph
    bad = _write_graph(tmp_path, Graph(2, [(0, 1)]), "bad.g6")
    assert main(["audit", bad]) == 1
    capsys.readouterr()


def test_audit_json_report(tmp_path, capsys):
    from avdcolor import audit
    gpath = _write_graph(tmp_path, petersen())
    assert main(["audit", gpath, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == json.loads(json.dumps(audit(petersen()).to_dict()))
    assert report["overall_pass"]


def test_audit_reads_stdin_for_dash(monkeypatch, capsys):
    import io
    import sys
    # "-" and no input at all both read stdin.
    for argv in (["audit", "-"], ["audit"]):
        stdin = io.TextIOWrapper(io.BytesIO(emit_graph(cycle(6), "graph6")))
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(argv) == 0
        assert "overall: PASS" in capsys.readouterr().out


def test_audit_directory(tmp_path, capsys):
    _write_graph(tmp_path, petersen(), "a.g6")
    _write_graph(tmp_path, cycle(6), "b.g6")
    assert main(["audit", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("overall: PASS") == 2


@pytest.mark.parametrize("use_dir", [False, True], ids=["files", "dir"])
def test_audit_goes_on_past_a_file_that_does_not_parse(tmp_path, capsys,
                                                       use_dir):
    # Sorted: a file that does not parse as graph6, a graph that passes and
    # one that fails.  The exit code is the worst, not the last.
    from avdcolor import Graph
    junk = tmp_path / "a-junk.txt"
    junk.write_bytes(b"junk")
    good = _write_graph(tmp_path, cycle(7), "b-c7.g6")
    bad = _write_graph(tmp_path, Graph(2, [(0, 1)]), "c-bad.g6")
    argv = ["audit", "--dir", str(tmp_path)] if use_dir else [
        "audit", str(junk), good, bad]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {junk}: graph6 body length 3 does not "
                            "match n=43\n")
    assert captured.out.startswith(f"== {good}\n")
    assert captured.out.count("overall: PASS") == 1
    assert captured.out.count("overall: FAIL") == 1


def test_audit_empty_directory_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "sub").mkdir()  # a directory is not a graph file
    assert main(["audit", "--dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no graph files in {tmp_path}\n"


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_bad_input_exit_two(tmp_path, capsys):
    path = tmp_path / "junk.g6"
    path.write_bytes(bytes([127, 127]))
    assert main(["color", str(path), "--format", "graph6"]) == 2


def test_oversized_vertex_count_exit_two(tmp_path, capsys):
    path = tmp_path / "huge.col"
    path.write_bytes(b"p edge 99999999999 0\n")
    assert main(["color", str(path)]) == 2
    assert "vertex count" in capsys.readouterr().err


def test_color_sniffs_an_edge_list_with_a_trailing_comment(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_bytes(b"0 1 # e\n1 2\n2 0\n")
    assert main(["color", str(path)]) == 0
    assert capsys.readouterr().out == "colors=3 bound=10\n"


def test_dimacs_format_flag(tmp_path, capsys):
    gpath = _write_graph(tmp_path, complete(7), "k7.col", fmt="dimacs")
    assert main(["color", gpath, "--format", "dimacs"]) == 0
    assert "colors=" in capsys.readouterr().out
