"""Command-line surface: color, partition, generate, verify, audit.

Exit status: 0 all checks pass, 1 a check failed, 2 usage or input error
(``audit`` over several files goes on past one that does not parse and
exits with the worst of 2, 1 and 0), 3 a potential counterexample, with
its state dump, which names the graph or part by its edge list, written
to ``*.counterexample.json``: the partition engine stalled, or a search
refuted a budget that a cited bound guarantees.  4 a part's guaranteed
search spent its node budget (after the part's repair at that budget,
which paths and cycles skip, failed as well), with the part's state
written to ``*.search-cap.json``.  A report that cannot be written is one
``error: <path>: <reason>`` line on stderr; the exit code, 3 or 4, stands.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import coloring as avd
from . import generators, verify
from .errors import (CapExceededError, CounterexampleFound,
                     InternalBoundViolationError, SearchCapExceededError,
                     StateDumpError)
from .graph_io import FORMATS, emit_graph, parse_graph, sniff_format
from .graphs import Graph, is_normal
from .partition import partition_p2, partition_regular

USAGE_EXIT = 2
CHECK_EXIT = 1
COUNTEREXAMPLE_EXIT = 3
SEARCH_CAP_EXIT = 4


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":"))
            + "\n").encode("ascii")


def _read_graph(path: str | None, fmt: str | None) -> Graph:
    """Parse the graph at ``path``; ``None`` or ``-`` reads stdin."""
    if path is None or path == "-":
        raw = sys.stdin.buffer.read()
    else:
        raw = Path(path).read_bytes()
    return parse_graph(raw, fmt or sniff_format(raw))


def _write_out(args, data: bytes) -> None:
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _dump_state(args, exc: StateDumpError, kind: str, code: int) -> int:
    stem = Path(getattr(args, "out", None) or "avdcolor").with_suffix("")
    path = Path(f"{stem}.{kind}.json")
    try:
        path.write_bytes(_json_bytes({"message": str(exc),
                                      "state": exc.payload}))
    except OSError as err:
        print(f"error: {path}: {err.strerror or err}", file=sys.stderr)
    else:
        print(f"{kind} report written to {path}", file=sys.stderr)
    return code


# -- subcommands ----------------------------------------------------------------


def _cmd_color(args) -> int:
    cert = args.driver(_read_graph(args.input, args.format))
    if args.out:
        _write_out(args, _json_bytes(avd.certificate_to_dict(cert)))
    print(f"colors={cert.colors_used} bound={cert.bound_claimed}")
    return 0


def _write_partition(args, g: Graph, parts, **checks) -> None:
    _write_out(args, _json_bytes({
        "type": "edge-partition",
        "vertex_count": g.n,
        "parts": [[list(e) for e in sorted(p)] for p in parts],
        **checks,
    }))


def _cmd_partition(args) -> int:
    g = _read_graph(args.input, args.format)
    if args.trace:
        with open(args.trace, "w", encoding="ascii") as handle:
            parts = partition_p2(g, trace=lambda entry: handle.write(
                json.dumps(entry, sort_keys=True, separators=(",", ":"))
                + "\n"))
    else:
        parts = partition_p2(g)
    rows = verify.check_partition(g, parts.parts)
    _write_partition(args, g, parts, checks=[list(row) for row in rows])
    ok = all(ok for _, ok, _ in rows)
    print(f"parts={len(parts)} k={parts.k} checks="
          + ("pass" if ok else "fail"))
    return 0 if ok else CHECK_EXIT


def _cmd_partition_regular(args) -> int:
    g = _read_graph(args.input, args.format)
    parts = partition_regular(g)
    graphs = parts.part_graphs()
    checklist = {
        "parts": len(parts),
        "max_degrees": [p.max_degree for p in graphs],
        "all_parts_normal": all(is_normal(p) for p in graphs),
    }
    _write_partition(args, g, parts, checklist=checklist)
    # A block is at most 4 color classes, so no vertex has more edges in it.
    ok = (checklist["all_parts_normal"]
          and max(checklist["max_degrees"]) <= 4)
    print(f"parts={len(parts)} checks=" + ("pass" if ok else "fail"))
    return 0 if ok else CHECK_EXIT


def _cmd_oracle(args) -> int:
    g = _read_graph(args.input, args.format)
    value = verify.exact_chi_a(g, cap=args.budget_cap,
                               edge_cap=args.oracle_edge_cap)
    print(value)
    return 0


def _cmd_gen(args) -> int:
    g = generators.generate(args.kind, seed=args.seed)
    _write_out(args, emit_graph(g, args.format or "graph6"))
    if args.out:
        print(f"wrote {args.kind}: n={g.n} m={g.edge_count}")
    return 0


def _cmd_verify(args) -> int:
    # An input error names the file it is about, as ``audit``'s do.
    try:
        g = _read_graph(args.graph, args.format)
    except ValueError as exc:
        raise ValueError(f"{args.graph}: {exc}") from None
    try:
        data = json.loads(Path(args.certificate).read_text(encoding="ascii"))
    except RecursionError:
        raise ValueError(
            f"{args.certificate}: JSON nested too deeply") from None
    except ValueError as exc:  # not ASCII, or not JSON
        raise ValueError(f"{args.certificate}: {exc}") from None
    try:
        cert = avd.certificate_from_dict(data, host=g)
    except ValueError as exc:
        print(f"FAIL certificate shape: {exc}")
        return CHECK_EXIT
    rows = verify.check_certificate(g, cert)
    for name, ok, detail in rows:
        print(("PASS " if ok else "FAIL ") + name
              + (f" ({detail})" if detail and not ok else ""))
    return 0 if all(ok for _, ok, _ in rows) else CHECK_EXIT


def _cmd_audit(args) -> int:
    paths: list[str | None]
    if args.dir:
        paths = [str(p) for p in sorted(Path(args.dir).iterdir())
                 if p.is_file()]
        if not paths:
            raise ValueError(f"no graph files in {args.dir}")
    elif args.inputs:
        paths = list(args.inputs)
    else:
        paths = [None]
    # A file that does not parse is reported and skipped; the exit code is
    # the worst of usage error, failed check and pass, in that order.
    code = 0
    for path in paths:
        try:
            g = _read_graph(path, args.format)
        except (ValueError, OSError) as exc:
            print(f"error: {path or '-'}: {exc}", file=sys.stderr)
            code = USAGE_EXIT
            continue
        report = verify.audit(g, oracle_edge_cap=args.oracle_edge_cap)
        if len(paths) > 1:
            print(f"== {path}")
        if args.json:
            sys.stdout.write(_json_bytes(report.to_dict()).decode("ascii"))
        else:
            print(report.to_text())
        if not report.overall_pass:
            code = max(code, CHECK_EXIT)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avdcolor",
        description="Adjacent-vertex-distinguishing edge colorings with "
                    "certificates, edge partitions, and exact oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", nargs="?",
                       help="graph file (stdin when omitted)")
        p.add_argument("--format", choices=FORMATS,
                       help="input format (sniffed when omitted)")
        p.add_argument("--out", help="output path (stdout when omitted)")

    p = sub.add_parser("color", help="AVD-color a normal graph")
    add_common(p)
    p.set_defaults(func=_cmd_color, driver=avd.avd_color)

    p = sub.add_parser("color-regular", help="AVD-color a regular graph")
    add_common(p)
    p.set_defaults(func=_cmd_color, driver=avd.avd_color_regular)

    p = sub.add_parser("partition", help="recursive bounded-degree partition")
    add_common(p)
    p.add_argument("--trace", help="stream move log to this path")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("partition-regular",
                       help="color-class grouping for a regular graph")
    add_common(p)
    p.set_defaults(func=_cmd_partition_regular)

    p = sub.add_parser("oracle", help="exact minimum AVD palette size")
    add_common(p)
    p.add_argument("--budget-cap", type=int, default=None,
                   help="largest palette to try")
    p.add_argument("--oracle-edge-cap", type=int,
                   default=verify.ORACLE_EDGE_CAP)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="generate a graph")
    p.add_argument("kind",
                   help="cycle:n | complete:n | petersen | "
                        "random-regular:n,r | gnp:n,p")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="re-validate a certificate file")
    p.add_argument("graph", help="graph file")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("--format", choices=FORMATS)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("audit", help="full pipeline with all checkers")
    p.add_argument("inputs", nargs="*", help="graph files (stdin when empty)")
    p.add_argument("--dir", help="audit every file in a directory")
    p.add_argument("--json", action="store_true",
                   help="machine-readable reports")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--oracle-edge-cap", type=int,
                   default=verify.ORACLE_EDGE_CAP)
    p.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CounterexampleFound, InternalBoundViolationError) as exc:
        return _dump_state(args, exc, "counterexample", COUNTEREXAMPLE_EXIT)
    except SearchCapExceededError as exc:
        return _dump_state(args, exc, "search-cap", SEARCH_CAP_EXIT)
    except (ValueError, CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
