"""Seeded, verified benchmark of avdcolor.

    python3 bench/run.py --workload search --seed 1 --seconds 25 --trace 0

Runs one workload (``search``, ``partition`` or ``audit``, see README.md)
in this process on one thread, as a closed loop: one graph after another,
whole passes over a corpus made from ``--seed``, until ``--seconds`` have
passed.  Each graph's time is its median over the passes, after each
operation's wall time is divided by the host slowdown that ``hostspeed``
gauged around it.  Every output is checked by ``checks.py``, outside the
timed call.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer split with ``--trace 1``.  The
same object, with per-graph and per-span detail, is written to
``results/``.

No clock decides the outcome of any operation: each graph either finishes
or fails the same way every time.  A run-level watchdog aborts a run that
stalls, naming the graph it was on, without printing a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

sys.dont_write_bytecode = True  # leave the source tree as it was checked out

import checks  # noqa: E402
import corpus  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
MODULES = ("coloring", "generators", "graph_io", "graphs", "partition",
           "verify", "vizing")
SETUP_REPEATS = 5
GAUGE_SHARE = 0.05        # reference work per second of operations
GAUGE_MARGIN_S = 0.5      # an operation's slowdown: reps this close to it
SETUP_GAUGE_SHARE = 0.25  # set-up is short, so gauge it for longer
TAIL_BEYOND = 10          # case_tail_s has this many graphs beyond it
MIN_CASES = 4 * TAIL_BEYOND
WATCHDOG_S = 170.0        # a run ends well before this, or is aborted
MOVE_TAGS = ("claim1.drop", "claim1.add", "claim2.add", "claim2.drop")


# -- the operations and their checks -------------------------------------------


def _search(mods, case):
    return mods.coloring.avd_color(case.graph)


def _search_check(case, cert):
    a = cert.coloring.assignment
    return (checks.certificate_problems(case.graph.edges, a, cert.colors_used),
            cert.colors_used)


def _partition(mods, case):
    return mods.partition.partition_p2(case.graph)


def _partition_check(case, parts):
    return (checks.partition_problems(case.graph.edges, parts.parts),
            sum(checks.part_palette(p) for p in parts.parts))


def _audit(mods, case):
    g = mods.graph_io.parse_graph(case.graph6, "graph6")
    return g, mods.verify.audit(g)


def _audit_check(case, out):
    g, report = out
    report = report.to_dict()
    problems = checks.audit_problems(case.graph.edges, report, case.chi_a)
    if (g.n, g.edges) != (case.graph.n, case.graph.edges):
        problems.append("graph6 bytes parsed to another graph")
    return problems, report["bound_table"].get("avd_colors_used")


OPERATIONS = {
    "search": (_search, _search_check),
    "partition": (_partition, _partition_check),
    "audit": (_audit, _audit_check),
}


def _warm_up(workload: str, mods) -> None:
    gen = mods.generators
    if workload == "search":
        mods.coloring.avd_color(gen.petersen())
    elif workload == "partition":
        mods.partition.partition_p2(gen.complete(9))
    else:
        mods.verify.audit(mods.graph_io.parse_graph(
            mods.graph_io.emit_graph(gen.cycle(6), "graph6"), "graph6"))


def _self_test(mods) -> list[str]:
    """Run every checker on fresh outputs and on tampered copies of them."""
    gen = mods.generators
    reg = gen.random_regular(20, 6, 1)
    rcert = mods.coloring.avd_color_regular(reg)
    misses = [f"regular driver output rejected: {p}"
              for p in checks.certificate_problems(
                  reg.edges, rcert.coloring.assignment, rcert.colors_used,
                  checks.regular_bound(6))]
    pet, k9, c5 = gen.petersen(), gen.complete(9), gen.cycle(5)
    cert = mods.coloring.avd_color(pet)
    parts = mods.partition.partition_p2(k9)
    report = mods.verify.audit(c5).to_dict()
    return misses + checks.self_test(
        pet.edges, cert.coloring.assignment, cert.colors_used,
        k9.edges, list(parts.parts), c5.edges, report, 5)


# -- set-up and the timed loop ---------------------------------------------------


def _import_program():
    for name in [m for m in sys.modules
                 if m == "avdcolor" or m.startswith("avdcolor.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"avdcolor.{m}")
                              for m in MODULES})


def _set_up(workload: str, seed: int, tracer):
    """Import, corpus and warm-up, several times; the last copy is used.

    Each set-up's wall time is divided by the host slowdown gauged right
    after it.
    """
    times, generate = [], []
    gauge = hostspeed.Gauge(SETUP_GAUGE_SHARE)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods = _import_program()
        if tracer is not None:
            tracer.reset()
            tracer.install(mods, spans.SETUP_POINTS)
        cases = corpus.CORPORA[workload](mods, seed)
        if tracer is not None:
            tracer.remove()
        _warm_up(workload, mods)
        took = time.perf_counter() - t0
        gauge.reset()
        gauge.keep_up(took)
        times.append(took / gauge.slowdown())
        if tracer is not None:
            generate.append(tracer.incl("generators.generate")
                            / gauge.slowdown())
    if tracer is not None:
        tracer.reset()
    return mods, cases, statistics.median(times), (
        statistics.median(generate) if generate else None)


class _Watchdog:
    """Aborts a stalled run, naming the graph it was on; never marks a case."""

    def __init__(self, limit_s: float):
        self.case = "set-up"
        self._limit = limit_s
        self._timer = threading.Timer(limit_s, self._fire)
        self._timer.daemon = True
        self._timer.start()

    def _fire(self) -> None:
        sys.stderr.write(f"bench: run exceeded {self._limit:.0f} s on "
                         f"{self.case}; aborted without a result\n")
        sys.stderr.flush()
        os._exit(3)

    def cancel(self) -> None:
        self._timer.cancel()


def _measure(workload, mods, cases, seconds, tracer, watchdog):
    """Whole passes over the corpus until ``seconds`` have passed.

    Records every operation's wall time, per graph and per kind of pass,
    and the host slowdown gauged over each pass; ``times`` holds the wall
    times, each divided by the slowdown of the gauge's reps within
    ``GAUGE_MARGIN_S`` of the operation.  With a tracer, passes
    alternate untraced and traced, so the tracing overhead is measured
    inside one run; end-to-end figures come from the untraced passes only.
    """
    operate, inspect = OPERATIONS[workload]
    times = {False: [[] for _ in cases], True: [[] for _ in cases]}
    raw = {False: [[] for _ in cases], True: [[] for _ in cases]}
    slowdowns = {False: [], True: []}
    gauge = hostspeed.Gauge(GAUGE_SHARE)
    failures: dict[int, str] = {}
    failed = 0
    colors: dict[int, int] = {}
    problems: list[str] = []
    passes = {False: 0, True: 0}
    start = time.perf_counter()
    while True:
        traced = tracer is not None and sum(passes.values()) % 2 == 1
        if traced:
            tracer.install(mods, spans.RUN_POINTS)
        gauge.reset()
        busy = 0.0
        when = []
        try:
            for i, case in enumerate(cases):
                watchdog.case = case.name
                t0 = time.perf_counter()
                try:
                    out = operate(mods, case)
                except Exception as exc:  # counted as failed, never retried
                    failures[i] = type(exc).__name__
                    failed += 1
                    out = None
                t1 = time.perf_counter()
                took = t1 - t0
                raw[traced][i].append(took)
                when.append((t0, t1))
                busy += took
                gauge.keep_up(busy)
                if out is None:
                    continue
                found, used = inspect(case, out)
                problems += [f"{case.name}: {p}" for p in found]
                if colors.setdefault(i, used) != used:
                    problems.append(f"{case.name}: output changed between passes")
        finally:
            if traced:
                tracer.remove()
        slowdowns[traced].append(gauge.slowdown())
        for i, (t0, t1) in enumerate(when):
            times[traced][i].append(raw[traced][i][-1] / gauge.slowdown_around(
                t0, t1, GAUGE_MARGIN_S))
        passes[traced] += 1
        if (time.perf_counter() - start >= seconds
                and (tracer is None or passes[True] > 0)):
            break
    return SimpleNamespace(times=times, raw=raw, slowdowns=slowdowns,
                           failures=failures, colors=colors,
                           problems=problems, passes=passes, failed=failed)


# -- metrics ---------------------------------------------------------------------


def _per_graph(res, traced: bool = False, wall: bool = False) -> list[float]:
    """Each graph's median time over its passes.

    Corrected for host slowdown, unless ``wall`` asks for plain wall time.
    """
    return [statistics.median(ts)
            for ts in (res.raw if wall else res.times)[traced]]


def _times(res, cases, per_graph: list[float]) -> dict:
    ranked = sorted(math.inf if i in res.failures else t
                    for i, t in enumerate(per_graph))
    p50 = statistics.median(ranked)
    tail = ranked[len(ranked) - 1 - TAIL_BEYOND]
    if not math.isfinite(p50) or not math.isfinite(tail):
        raise SystemExit("bench: too many failed operations to place "
                         "case_p50_s and case_tail_s")
    ok_edges = sum(c.graph.edge_count for i, c in enumerate(cases)
                   if i not in res.failures)
    return {
        "edges_per_s": (ok_edges / sum(per_graph), "1/s"),
        "case_p50_s": (p50, "s"),
        "case_tail_s": (tail, "s"),
    }


def _end_to_end(res, cases, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        **_times(res, cases, _per_graph(res)),
        "colors_total": (sum(res.colors.values()), "colors"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def _per_layer(tr, res, generate_s: float) -> dict:
    """Layer figures per traced pass; times corrected for host slowdown."""
    slowdown = statistics.mean(res.slowdowns[True])
    n = res.passes[True]
    c = tr.counts

    def secs(t: float):
        return t / (n * slowdown), "s"

    def count(k: float):
        return k / n, "count"

    audited = tr.calls("verify.audit")
    untraced, traced = sum(_per_graph(res)), sum(_per_graph(res, traced=True))
    metrics = {
        "generators.generate_s": (generate_s, "s"),
        "graph_io.parse_s": secs(tr.incl("graph_io.parse_graph")),
        "vizing.misra_gries_s": secs(tr.incl("vizing.misra_gries")),
        "vizing.misra_gries_calls": count(tr.calls("vizing.misra_gries")),
        "partition.p1_self_s": secs(tr.self_time("partition.partition_p1")),
        "partition.levels": count(tr.calls("partition.partition_p1")),
        "partition.regular_s": secs(tr.incl("partition.partition_regular")),
        "partition.moves": count(c["partition.moves"]),
    }
    for tag in MOVE_TAGS:
        metrics[f"partition.moves.{tag}"] = count(c[f"partition.moves.{tag}"])
    metrics["partition.moves.claims"] = count(sum(
        v for k, v in c.items() if k.startswith("partition.moves.claims.")))
    budget = "coloring.avd_color_budget"
    checks_ = ("verify.check_proper", "verify.check_avd")
    metrics.update({
        "coloring.budget_search_s": secs(tr.incl(budget)),
        "coloring.budget_calls": count(tr.calls(budget)),
        "coloring.cap_hits": count(c[f"{budget}!SearchCapExceededError"]),
        "coloring.refutations": count(c[f"{budget}:None"]),
        "coloring.subcubic_s": secs(tr.incl("coloring.avd_subcubic")),
        "coloring.compose_self_s": secs(tr.self_time("coloring.compose")),
        "verify.check_s": secs(tr.incl(*checks_, outermost=True)),
        "verify.check_calls": count(tr.calls(*checks_)),
        "verify.oracle_s": secs(tr.incl("verify.exact_chi_a",
                                        "verify.exact_chromatic_index")),
        "verify.audit_self_s": secs(tr.self_time("verify.audit")),
        "verify.pipeline_calls": (c["verify.pipeline_calls"] / audited
                                  if audited else 0.0, "count"),
        "ops_traced_s": (traced, "s"),
        "ops_untraced_s": (untraced, "s"),
        "tracing_overhead_pct": (100.0 * (traced / untraced - 1.0), "%"),
        "host_slowdown": (slowdown, "x"),
    })
    return metrics


def _split_lines(tr, res) -> list[str]:
    """Human-readable share of traced operation time per span."""
    total = sum(sum(ts) for ts in res.raw[True])
    lines = [f"traced operation time: {total:.4f} s in {res.passes[True]} passes",
             "span                              parent                       "
             "calls   incl_s    self_s  incl_share"]
    for name, parent, calls, incl, self_s in tr.table():
        lines.append(f"{name:<33} {str(parent):<28} {calls:>6} {incl:>9.4f} "
                     f"{self_s:>9.4f}  {incl / total:>9.1%}")
    tags = sorted((k, v) for k, v in tr.counts.items()
                  if k.startswith("partition.moves."))
    lines.append("moves by witness tag: " + (", ".join(
        f"{k[len('partition.moves.'):]}={v}" for k, v in tags) or "none"))
    return lines


# -- command line ----------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPERATIONS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "avdcolor" / "__init__.py").is_file():
        print(f"bench: no avdcolor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    watchdog = _Watchdog(max(WATCHDOG_S, args.seconds + 60.0))
    tracer = spans.Tracer() if args.trace else None
    mods, cases, setup_s, generate_s = _set_up(args.workload, args.seed, tracer)
    if len(cases) < MIN_CASES:
        print(f"bench: {len(cases)} graphs, need {MIN_CASES}", file=sys.stderr)
        return 2
    watchdog.case = "self-test"
    misses = _self_test(mods)
    res = _measure(args.workload, mods, cases, args.seconds, tracer, watchdog)
    watchdog.cancel()

    if tracer is None:
        metrics = _end_to_end(res, cases, setup_s)
    else:
        metrics = _per_layer(tracer, res, generate_s)
        print("\n".join(_split_lines(tracer, res)))
    rounds = sum(res.passes.values())
    for what in misses:
        print(f"self-test failed: {what}", file=sys.stderr)
    for p in res.problems[:20]:
        print(f"incorrect output: {p}", file=sys.stderr)
    for i, exc in sorted(res.failures.items()):
        print(f"failed: {cases[i].name}: {exc}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not res.problems and not misses,
        "attempted": rounds * len(cases),
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    per_graph, wall = _per_graph(res), _per_graph(res, wall=True)
    detail = dict(result, workload=args.workload, seed=args.seed,
                  passes={"untraced": res.passes[False],
                          "traced": res.passes[True]},
                  slowdowns=res.slowdowns,
                  wall_clock={name: value for name, (value, _) in
                              _times(res, cases, wall).items()},
                  python=sys.version.split()[0],
                  nproc=os.cpu_count(), graphs=[
                      {"name": c.name, "m": c.graph.edge_count,
                       "seconds": t, "wall_seconds": w,
                       "colors": res.colors.get(i),
                       "failed": res.failures.get(i)}
                      for i, (c, t, w) in enumerate(zip(cases, per_graph,
                                                        wall))])
    if tracer is not None:
        detail["spans"] = [list(row) for row in tracer.table()]
        detail["counts"] = dict(tracer.counts)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
