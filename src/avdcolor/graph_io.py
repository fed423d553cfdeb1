"""Graph parsing and emission: graph6, DIMACS edge format, plain edge lists."""

from __future__ import annotations

import re

from .errors import GraphFormatError
from .graphs import Edge, Graph

FORMATS = ("graph6", "dimacs", "edgelist")

_G6_HEADER = ">>graph6<<"
# graph6 stores each 6-bit value plus 63, as a printable byte '?'..'~'.
_SUB_63 = bytes((b - 63) % 256 for b in range(256))
# Positions of the set bits of a 6-bit value, high bit first.
_SET_BITS = [[r for r in range(6) if b & (32 >> r)] for b in range(64)]

# Largest vertex count graph6 can describe (its 4-byte size header).  Every
# format refuses to read or to write more, so any parsed graph can be dumped
# as graph6, and any emitted one read back.
_MAX_VERTICES = 258047


def parse_graph(text: bytes | str, fmt: str) -> Graph:
    """Parse ``text`` in the named format; rejects malformed input."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"input is not ASCII: {exc}") from None
    if fmt == "graph6":
        return _parse_graph6(text)
    if fmt == "dimacs":
        return _parse_dimacs(text)
    if fmt == "edgelist":
        return _parse_edgelist(text)
    raise GraphFormatError(f"unknown format {fmt!r}")


def emit_graph(g: Graph, fmt: str) -> bytes:
    """Serialize ``g``; parse_graph(emit_graph(g, f), f) preserves the edge set."""
    if g.n > _MAX_VERTICES:
        raise GraphFormatError(
            f"vertex counts beyond {_MAX_VERTICES} not supported")
    if fmt == "graph6":
        return _emit_graph6(g)
    if fmt == "dimacs":
        return _emit_dimacs(g)
    if fmt == "edgelist":
        return _emit_edgelist(g)
    raise GraphFormatError(f"unknown format {fmt!r}")


def sniff_format(text: bytes | str) -> str:
    """Best-effort format guess from the first non-blank line, for the CLI."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    lines = text.lstrip().splitlines()
    if not lines:
        return "edgelist"
    line = lines[0].rstrip()
    if line.startswith(_G6_HEADER):
        return "graph6"
    if line.startswith(("c ", "c\t", "p ", "e ")) or line == "c":
        return "dimacs"
    if line.startswith("#"):
        return "edgelist"
    # An edge list's line may end in a comment, as ``_parse_edgelist`` reads.
    toks = line.split("#", 1)[0].split()
    if len(toks) == 2 and all(t.isdigit() for t in toks):
        return "edgelist"
    return "graph6"


# -- graph6 (McKay ASCII encoding) ----------------------------------------


def _parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise GraphFormatError("empty graph6 input")
    if re.search("[^?-~]", s):
        raise GraphFormatError("graph6 byte outside printable range")
    data = s.encode("ascii").translate(_SUB_63)
    if data[0] < 63:
        n, body = data[0], data[1:]
    else:
        if len(data) < 4:
            raise GraphFormatError("truncated graph6 size header")
        if data[1] == 63:
            raise GraphFormatError(
                f"graph6 sizes beyond {_MAX_VERTICES} not supported")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphFormatError(
            f"graph6 body length {len(body)} does not match n={n}")
    edges = []
    # Bit i, high bit first in byte i // 6, is the pair u < v with
    # i = base + u, base = v(v-1)/2.  Zero bytes are skipped at C speed;
    # bits past nbits are padding.
    v, base = 1, 0
    for match in re.finditer(rb"[^\x00]", body):
        j = match.start()
        for r in _SET_BITS[body[j]]:
            i = 6 * j + r
            if i >= nbits:
                break
            while i >= base + v:
                base += v
                v += 1
            edges.append((i - base, v))
    return Graph(n, edges)


def _emit_graph6(g: Graph) -> bytes:
    if g.vertices != tuple(range(g.n)):
        raise GraphFormatError("graph6 requires a dense vertex set 0..n-1")
    n = g.n
    head = [n] if n < 63 else [63, n >> 12, (n >> 6) & 63, n & 63]
    # One '?'-filled buffer (each 6-bit value 0) holds header and body;
    # bits are added, which ORs them, as distinct edges set distinct bits.
    out = bytearray(b"?") * (len(head) + (n * (n - 1) // 2 + 5) // 6)
    out[:len(head)] = bytes(b + 63 for b in head)
    off = 6 * len(head)
    for u, v in g.edges:
        i = v * (v - 1) // 2 + u + off
        out[i // 6] += 32 >> (i % 6)
    return bytes(out)


# -- DIMACS edge format -----------------------------------------------------


def _decimal(tok: str) -> int:
    """``tok`` as a number if it is ASCII decimal digits only, else ValueError.

    ``int`` alone also reads signs, underscores and non-ASCII digits, none
    of which DIMACS or edge lists allow.
    """
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"not a decimal number: {tok!r}")
    return int(tok)


def _add_edge(edges: dict[Edge, None], u: int, v: int, lineno: int) -> None:
    """Record the edge uv of line ``lineno`` in ``edges``, canonical; a
    self-loop or an edge already recorded, in either orientation, is an
    error."""
    if u == v:
        raise GraphFormatError(f"line {lineno}: self-loop")
    key = (u, v) if u < v else (v, u)
    if key in edges:
        raise GraphFormatError(f"line {lineno}: duplicate edge {key}")
    edges[key] = None


def _parse_dimacs(text: str) -> Graph:
    n = None
    m_declared = None
    edges: dict[Edge, None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        toks = line.split()
        if toks[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate problem line")
            if len(toks) != 4 or toks[1] != "edge":
                raise GraphFormatError(f"line {lineno}: malformed problem line")
            try:
                n, m_declared = _decimal(toks[2]), _decimal(toks[3])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad counts") from None
            if not 0 <= n <= _MAX_VERTICES:
                raise GraphFormatError(
                    f"line {lineno}: vertex count outside 0..{_MAX_VERTICES}")
        elif toks[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before problem line")
            if len(toks) != 3:
                raise GraphFormatError(f"line {lineno}: malformed edge line")
            try:
                u, v = _decimal(toks[1]) - 1, _decimal(toks[2]) - 1
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad endpoints") from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"line {lineno}: vertex out of range")
            _add_edge(edges, u, v, lineno)
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {toks[0]!r}")
    if n is None:
        raise GraphFormatError("missing problem line")
    if m_declared is not None and m_declared != len(edges):
        raise GraphFormatError(
            f"header declares {m_declared} edges, found {len(edges)}")
    return Graph(n, edges)


def _emit_dimacs(g: Graph) -> bytes:
    lines = [f"p edge {g.n} {g.edge_count}"]
    for u, v in g.sorted_edges():
        lines.append(f"e {u + 1} {v + 1}")
    return ("\n".join(lines) + "\n").encode("ascii")


# -- plain edge list --------------------------------------------------------


def _parse_edgelist(text: str) -> Graph:
    edges: dict[Edge, None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = _decimal(toks[0]), _decimal(toks[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: bad endpoints") from None
        if not (0 <= u < _MAX_VERTICES and 0 <= v < _MAX_VERTICES):
            raise GraphFormatError(
                f"line {lineno}: vertex index outside 0..{_MAX_VERTICES - 1}")
        _add_edge(edges, u, v, lineno)
    n = 1 + max((v for _, v in edges), default=-1)
    return Graph(n, edges)


def _emit_edgelist(g: Graph) -> bytes:
    lines = [f"{u} {v}" for u, v in g.sorted_edges()]
    return ("\n".join(lines) + ("\n" if lines else "")).encode("ascii")
