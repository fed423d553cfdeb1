import json

import pytest

from avdcolor import complete, cycle, emit_graph, petersen
from avdcolor.cli import main


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


def test_verify_rejects_flipped_witness(tmp_path, capsys):
    gpath = _write_graph(tmp_path, complete(7))
    cert = tmp_path / "cert.json"
    main(["color", gpath, "--out", str(cert)])
    data = json.loads(cert.read_text())
    u, v, _ = data["witnesses"][0]
    # The edge's own color is at both ends, so it distinguishes nothing.
    data["witnesses"][0][2] = next(c for a, b, c in data["edges"]
                                   if (a, b) == (u, v))
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", gpath, str(cert)]) == 1
    out = capsys.readouterr().out
    assert "FAIL witnesses cover equal-degree pairs" in out
    assert "PASS adjacent-vertex-distinguishing" in out


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
    gpath = _write_graph(tmp_path, complete(7))
    out = tmp_path / "parts.json"
    trace = tmp_path / "trace.jsonl"
    assert main(["partition", gpath, "--out", str(out),
                 "--trace", str(trace)]) == 0
    summary = capsys.readouterr().out
    assert "checks=pass" in summary
    data = json.loads(out.read_text())
    assert data["checklist"]["k_within_bound"]
    assert data["checklist"]["g0_bounded"]
    covered = {tuple(e) for part in data["parts"] for e in part}
    assert covered == {tuple(e) for e in map(sorted, complete(7).edges)}
    for line in trace.read_text().splitlines():
        entry = json.loads(line)
        assert entry["potential_after"] < entry["potential_before"]


def test_partition_stall_exits_with_counterexample(tmp_path, monkeypatch,
                                                  capsys):
    from avdcolor import ChainClosure, gnp, partition
    gpath = _write_graph(tmp_path, gnp(10, 0.5, 1))
    closure = ChainClosure(frozenset(), frozenset())
    monkeypatch.setattr(partition, "find_move", lambda g, sel: closure)
    monkeypatch.chdir(tmp_path)
    assert main(["partition", gpath]) == 3
    assert "counterexample report written" in capsys.readouterr().err
    data = json.loads((tmp_path / "avdcolor.counterexample.json").read_text())
    assert "chain closure saturated" in data["message"]
    assert set(data["state"]) == {"graph6", "selection", "potential",
                                  "v1_set", "v2_set", "unresolved",
                                  "move_log"}


def test_partition_regular_cli(tmp_path, capsys):
    from avdcolor import random_regular
    gpath = _write_graph(tmp_path, random_regular(12, 5, seed=2))
    assert main(["partition-regular", gpath, "--out",
                 str(tmp_path / "p.json")]) == 0
    assert "checks=pass" in capsys.readouterr().out


def test_oracle_c5(tmp_path, capsys):
    gpath = _write_graph(tmp_path, cycle(5))
    assert main(["oracle", gpath]) == 0
    assert capsys.readouterr().out.strip() == "5"


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


def test_audit_directory(tmp_path, capsys):
    _write_graph(tmp_path, petersen(), "a.g6")
    _write_graph(tmp_path, cycle(6), "b.g6")
    assert main(["audit", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("overall: PASS") == 2


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_bad_input_exit_two(tmp_path, capsys):
    path = tmp_path / "junk.g6"
    path.write_bytes(bytes([127, 127]))
    assert main(["color", str(path), "--format", "graph6"]) == 2


def test_dimacs_format_flag(tmp_path, capsys):
    gpath = _write_graph(tmp_path, complete(7), "k7.col", fmt="dimacs")
    assert main(["color", gpath, "--format", "dimacs"]) == 0
    assert "colors=" in capsys.readouterr().out
