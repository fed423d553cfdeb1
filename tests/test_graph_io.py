import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from avdcolor import (Graph, GraphFormatError, complete, cycle, emit_graph,
                      gnp, parse_graph, petersen, sniff_format)
from avdcolor.graph_io import FORMATS


def test_graph6_star_golden():
    g = parse_graph(b"D?{", "graph6")
    assert g.n == 5
    assert g.edges == frozenset({(0, 4), (1, 4), (2, 4), (3, 4)})
    assert emit_graph(g, "graph6") == b"D?{"


def test_graph6_roundtrip_c5():
    c5 = cycle(5)
    data = emit_graph(c5, "graph6")
    assert parse_graph(data, "graph6") == c5


def test_graph6_header_accepted():
    data = b">>graph6<<" + emit_graph(petersen(), "graph6")
    assert parse_graph(data, "graph6") == petersen()


def test_graph6_matches_networkx():
    for seed in range(30):
        rng = random.Random(seed)
        g = gnp(rng.randint(1, 40), rng.uniform(0, 1), seed)
        mine = emit_graph(g, "graph6")
        theirs = nx.to_graph6_bytes(
            _to_nx(g), header=False).strip()
        assert mine == theirs
        back = nx.from_graph6_bytes(mine)
        assert set(map(_canon, back.edges())) == set(g.edges)


def test_graph6_long_header_matches_networkx():
    # n >= 63 takes the 4-byte size header; 62 is the last 1-byte size.
    for n in (62, 63, 64, 200):
        g = gnp(n, 0.05, n)
        mine = emit_graph(g, "graph6")
        assert mine == nx.to_graph6_bytes(_to_nx(g), header=False).strip()
        assert (mine[0] == 126) == (n >= 63)
        assert parse_graph(mine, "graph6") == g


def _to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def _canon(e):
    u, v = e
    return (u, v) if u < v else (v, u)


def test_graph6_isolated_vertices():
    g = Graph(3)
    data = emit_graph(g, "graph6")
    assert parse_graph(data, "graph6") == g


def test_graph6_malformed():
    with pytest.raises(GraphFormatError):
        parse_graph(b"", "graph6")
    with pytest.raises(GraphFormatError):
        parse_graph(b"D?", "graph6")  # truncated body
    with pytest.raises(GraphFormatError):
        parse_graph(bytes([127, 63]), "graph6")  # byte above range
    with pytest.raises(GraphFormatError):
        parse_graph(b"~??", "graph6")  # truncated size header


def test_graph6_ignores_padding_bits():
    # C5 has 10 pair bits in two 6-bit bytes; "c" -> "f" sets the 2 padding bits.
    assert emit_graph(cycle(5), "graph6") == b"Dhc"
    assert parse_graph(b"Dhf", "graph6") == cycle(5)


def test_dimacs_k4_golden():
    text = emit_graph(complete(4), "dimacs").decode()
    lines = text.strip().splitlines()
    assert lines[0] == "p edge 4 6"
    assert len([l for l in lines if l.startswith("e ")]) == 6
    assert parse_graph(text, "dimacs") == complete(4)


def test_dimacs_errors():
    with pytest.raises(GraphFormatError):
        parse_graph("e 1 2\n", "dimacs")  # edge before header
    with pytest.raises(GraphFormatError):
        parse_graph("p edge 3 2\ne 1 2\ne 1 2\n", "dimacs")  # duplicate
    with pytest.raises(GraphFormatError):
        parse_graph("p edge 3 1\ne 1 4\n", "dimacs")  # out of range
    with pytest.raises(GraphFormatError):
        parse_graph("p edge 3 2\ne 1 2\n", "dimacs")  # count mismatch


def test_edgelist_examples():
    g = parse_graph("0 1\n1 2\n", "edgelist")
    assert sorted(map(g.degree, g.vertices), reverse=True) == [2, 1, 1]
    with pytest.raises(GraphFormatError):
        parse_graph("0 1\n0 1\n", "edgelist")
    g2 = parse_graph("# comment\n0 1 # trailing\n\n2 3\n", "edgelist")
    assert g2.edges == frozenset({(0, 1), (2, 3)})


@pytest.mark.parametrize("fmt, text, message", [
    # Comment and blank lines count toward the line number.
    ("dimacs", "c k3\np edge 3 1\n\ne 2 2\n", "line 4: self-loop"),
    ("dimacs", "p edge 3 2\ne 1 2\ne 1 2\n", "line 3: duplicate edge (0, 1)"),
    ("dimacs", "p edge 3 2\ne 3 2\ne 2 3\n", "line 3: duplicate edge (1, 2)"),
    ("dimacs", "p edge 3 2\ne 1 2\ne 2 1\n", "line 3: duplicate edge (0, 1)"),
    ("dimacs", "p edge 3 1\ne 1 4\n", "line 2: vertex out of range"),
    ("dimacs", "p edge 3 1\ne 0 1\n", "line 2: vertex out of range"),
    ("dimacs", "p edge 3 1\ne 1 x\n", "line 2: bad endpoints"),
    ("dimacs", "p edge 3 1\ne 1 2 3\n", "line 2: malformed edge line"),
    ("dimacs", "p edge 3 0\np edge 3 0\n", "line 2: duplicate problem line"),
    ("edgelist", "# k3\n0 1\n\n2 2\n", "line 4: self-loop"),
    ("edgelist", "0 1\n0 1\n", "line 2: duplicate edge (0, 1)"),
    ("edgelist", "2 1\n1 2 # again\n", "line 2: duplicate edge (1, 2)"),
    ("edgelist", "0 1\n1 0\n", "line 2: duplicate edge (0, 1)"),
    ("edgelist", "0 1\n0 258047\n",
     "line 2: vertex index outside 0..258046"),
    ("edgelist", "0 1\n0 x\n", "line 2: bad endpoints"),
    ("edgelist", "0 1\n0 1 2\n", "line 2: expected 'u v'"),
])
def test_edge_line_errors_name_the_line(fmt, text, message):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text, fmt)
    assert str(exc.value) == message


@pytest.mark.parametrize("tok", ["1_0", "+3", "٣"])  # ٣, Arabic-Indic 3
@pytest.mark.parametrize("fmt, template", [
    ("dimacs", "p edge {} 0\n"),
    ("dimacs", "p edge 10 1\ne 1 {}\n"),
    ("edgelist", "0 {}\n"),
])
def test_vertex_numbers_are_ascii_decimal(tok, fmt, template):
    # int() reads each of these tokens as 10 or 3.
    with pytest.raises(GraphFormatError):
        parse_graph(template.format(tok), fmt)


def test_roundtrip_identity_all_formats():
    rng = random.Random(3)
    for seed in range(12):
        g = gnp(rng.randint(2, 25), rng.uniform(0.1, 0.9), seed + 100)
        for fmt in FORMATS:
            back = parse_graph(emit_graph(g, fmt), fmt)
            assert back.edges == g.edges
            if fmt in ("graph6", "dimacs"):
                assert back.n == g.n
            elif g.degree(g.n - 1):
                # edge lists cannot carry trailing isolated vertices
                assert back.n == g.n


def test_sniff_format():
    assert sniff_format(emit_graph(cycle(5), "dimacs")) == "dimacs"
    assert sniff_format(b"0 1\n1 2\n") == "edgelist"
    assert sniff_format(emit_graph(cycle(5), "graph6")) == "graph6"
    assert sniff_format(b"# comment\n0 1\n") == "edgelist"
    assert sniff_format(b"0 1 # e\n1 2\n2 0\n") == "edgelist"
    assert sniff_format(b"0 1#e\n") == "edgelist"
    assert sniff_format(b">>graph6<<Dhc\n") == "graph6"
    assert sniff_format(b"\n  \n\t\n0 1\n") == "edgelist"
    assert sniff_format(b"e 1 2\np edge 2 1\n") == "dimacs"


@pytest.mark.parametrize("fmt, data", [
    ("dimacs", b"p edge -5 0"),
    ("dimacs", b"p edge 99999999999 0"),
    ("edgelist", b"0 99999999999"),
    # 258047 vertices is graph6's limit, so vertex 258047 is one too many.
    ("edgelist", b"0 258047"),
    ("graph6", b"~~" + b"?" * 6),  # the 8-byte size header
])
def test_vertex_count_outside_graph6_limit_rejected(fmt, data):
    with pytest.raises(GraphFormatError):
        parse_graph(data, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_emission_refuses_more_vertices_than_graph6_names(fmt):
    # No reader takes a vertex past graph6's limit, so no writer emits one.
    with pytest.raises(GraphFormatError, match="beyond 258047"):
        emit_graph(Graph(258048, [(0, 258047)]), fmt)


@pytest.mark.parametrize("fmt", ["edgelist", "dimacs"])
def test_graph6_limit_round_trips(fmt):
    # Not graph6: its body alone is n(n-1)/12 bytes, about 5.5 GB here.
    g = Graph(258047, [(0, 258046)])
    assert parse_graph(emit_graph(g, fmt), fmt) == g


_TOKENS = st.one_of(
    st.sampled_from(["p edge ", "p ", "edge", "e ", "c ", "c", "-", "#", " ",
                     "\n", "\t", ">>graph6<<", "~", "?", "_", "0", "1"]),
    st.integers(-3, 300).map(str),
    st.just("99999999999"))

_INPUTS = st.one_of(
    st.binary(max_size=60),
    st.lists(_TOKENS, max_size=25).map(lambda ts: "".join(ts).encode()))


@settings(max_examples=200, deadline=None)
@given(_INPUTS)
def test_parse_returns_graph_or_format_error(data):
    # Any bytes, in any format or the sniffed one, give a Graph or a
    # GraphFormatError, never another exception.
    for fmt in FORMATS + (sniff_format(data),):
        try:
            g = parse_graph(data, fmt)
        except GraphFormatError:
            continue
        assert isinstance(g, Graph)


@st.composite
def _graphs_up_to_70(draw):
    n = draw(st.integers(1, 70))
    ends = st.integers(0, n - 1)
    pairs = draw(st.sets(st.tuples(ends, ends), max_size=120))
    return Graph(n, {(min(e), max(e)) for e in pairs if e[0] != e[1]})


@settings(max_examples=100, deadline=None)
@given(_graphs_up_to_70())
def test_emit_parse_roundtrip_keeps_edges(g):
    # n >= 63 takes graph6's 4-byte size header.
    for fmt in FORMATS:
        back = parse_graph(emit_graph(g, fmt), fmt)
        assert back.edges == g.edges
        if fmt != "edgelist":  # edge lists drop trailing isolated vertices
            assert back.n == g.n
