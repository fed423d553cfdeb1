"""Random inputs through ``cli.main``: a documented exit code, never a traceback.

Graph files are random bytes, or small graphs in each format with a
random span of bytes replaced, so that many parse.  Certificates are
random JSON trees, payloads with the right keys and random values, a
valid one with one value replaced, nesting deeper than the JSON reader
recurses, or random bytes.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings, strategies as st

from avdcolor import Graph, avd_color, cli, cycle, emit_graph
from avdcolor.coloring import certificate_to_dict
from avdcolor.graph_io import FORMATS

# The exit codes the module docstring of ``cli`` documents.
DOCUMENTED = {0, cli.CHECK_EXIT, cli.USAGE_EXIT, cli.COUNTEREXAMPLE_EXIT,
              cli.SEARCH_CAP_EXIT}

@st.composite
def _graph_files(draw):
    # Random bytes, or a small graph in the format with a random span
    # replaced by random bytes; an empty span over no bytes leaves it valid.
    fmt = draw(st.sampled_from(FORMATS))
    if draw(st.booleans()):
        return fmt, draw(st.binary(max_size=60))
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    data = emit_graph(Graph(n, edges), fmt)
    i = draw(st.integers(0, len(data)))
    j = draw(st.integers(i, len(data)))
    return fmt, data[:i] + draw(st.binary(max_size=4)) + data[j:]


_json_trees = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=True) | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=20)

_payloads = st.fixed_dictionaries({
    "type": st.sampled_from(["avd-certificate", "other"]),
    "vertex_count": _json_trees,
    "colors_used": st.one_of(st.integers(-3, 8), _json_trees),
    "bound_claimed": st.one_of(st.integers(-3, 8), _json_trees),
    "edges": st.one_of(
        st.lists(st.lists(st.integers(-2, 9), min_size=3, max_size=3),
                 max_size=9),
        _json_trees),
})


_C7 = certificate_to_dict(avd_color(cycle(7)))


def _tampered(key: str | None, value) -> dict:
    # C_7's own certificate, with one key's value replaced (None: none).
    return _C7 if key is None else {**_C7, key: value}


def _deep(depth: int, opener: str) -> bytes:
    closer = {"[": "]", '{"a":': "}"}[opener]
    inner = "0" if opener != "[" else ""
    return (opener * depth + inner + closer * depth).encode()


_certificates = st.one_of(
    _json_trees.map(lambda t: json.dumps(t).encode()),
    _payloads.map(lambda t: json.dumps(t).encode()),
    st.builds(_tampered, st.sampled_from([None, *sorted(_C7)]),
              _json_trees).map(lambda t: json.dumps(t).encode()),
    st.builds(_deep, st.integers(1, 100_000),
              st.sampled_from(["[", '{"a":'])),
    st.binary(max_size=60),
)


def _run(argv: list[str]) -> int:
    # A stdout with a byte buffer, as commands that write bytes expect.
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        return cli.main(argv)


_fuzz = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_fuzz
@given(_graph_files(), st.sampled_from(["verify", "audit", "color",
                                        "color-regular", "partition",
                                        "partition-regular", "oracle"]))
def test_random_graph_files_end_in_a_documented_exit(tmp_path, monkeypatch,
                                                     case, command):
    # A state dump, if any, lands in the temporary directory.
    monkeypatch.chdir(tmp_path)
    fmt, data = case
    gpath = tmp_path / "g"
    gpath.write_bytes(data)
    cert = tmp_path / "cert.json"
    cert.write_text("{}")
    argv = [command, str(gpath), "--format", fmt]
    if command == "verify":
        argv.insert(2, str(cert))
    assert _run(argv) in DOCUMENTED


@_fuzz
@given(_certificates)
def test_random_certificates_end_in_a_documented_exit(tmp_path, content):
    gpath = tmp_path / "c7.g6"
    if not gpath.exists():
        gpath.write_bytes(emit_graph(cycle(7), "graph6"))
    cert = tmp_path / "cert.json"
    cert.write_bytes(content)
    # verify passes, fails a check, or names a usage error.
    assert _run(["verify", str(gpath), str(cert)]) in {
        0, cli.CHECK_EXIT, cli.USAGE_EXIT}
