"""Seeded corpora for the three workloads.

Each corpus function takes the imported ``avdcolor`` submodules and the
workload seed, and returns the same list of cases for the same seed.  The
make-up of every corpus (families, sizes and counts) is fixed; the seed only
picks the random instances and the sizes of the seeded cycles, stars and
paths, so every seed gives the same number of graphs and failing cases.

Sizes are capped where the exact search is steady.  Larger instances of
the same families have single graphs that run for seconds to minutes; the
README lists them with the measurements behind each cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class Case:
    """One graph of a corpus, and what its output is checked against."""

    name: str
    graph: object
    graph6: bytes | None = None     # audit: the operation parses these bytes
    chi_a: int | None = None        # audit: published exact chi'_a, if known


# search: cycles, Petersen, seeded cubic / quartic / quintic regular graphs.
# The cubic graphs carry most of the time and the tail: each either
# succeeds on its budget-4 rung within a few milliseconds or runs into the
# node cap (about 50 ms), so their total time varies from seed to seed like
# a count of cap hits, by about sqrt(0.017 s x their total); 400 of them
# keep edges_per_s within about 5 % from seed to seed.  About one cubic
# graph in 200 and one quartic graph in 800 takes 70-300 ms; with these
# counts there are fewer than ten of them, so the 11th slowest graph sits
# among the single cap hits.  The quartic graphs hold the median: each
# takes under a millisecond.
SEARCH_CYCLES = 6
SEARCH_CYCLE_MAX = 600          # well below the recursion depth of _extend
SEARCH_REGULAR = (((32, 3), 200), ((36, 3), 200), ((24, 4), 900),
                  ((20, 5), 25), ((30, 5), 25))
# Longer than the interpreter's recursion limit; fail the same way each run.
SEARCH_LONG_CYCLES = (1200, 3001)

# partition: normal G(n, p), mostly m ~ 1.3k..1.5k with Delta ~ 18..27,
# plus one graph with m ~ 4.5k (Delta ~ 45) and one with m ~ 15k (Delta ~ 50).
PARTITION_SPECS = (((150, 0.12), 13), ((200, 0.07), 13), ((300, 0.035), 12),
                   ((300, 0.1), 1), ((1000, 0.03), 1))

# audit: small graphs with a published chi'_a (m <= 16, the oracles run) ...
AUDIT_SMALL = {"cycle": 8, "star": 8, "path": 8}   # plus K3..K6
# ... and medium graphs with Delta >= 6, regular ones included.
AUDIT_COMPLETE = range(12, 21)
AUDIT_GNP = (((50, 0.2), 48), ((40, 0.25), 40))
AUDIT_REGULAR = (30, (6, 7, 8, 9, 10), 12)   # n, degrees, graphs per degree


def _instance_seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def _normal_gnp(gen, graphs, n: int, p: float, rng: random.Random):
    # Every operation is defined on normal graphs only; redraw until normal.
    while True:
        s = _instance_seed(rng)
        g = gen.gnp(n, p, s)
        if graphs.is_normal(g):
            return f"gnp({n},{p},{s})", g


def search_corpus(mods, seed: int) -> list[Case]:
    gen = mods.generators
    rng = random.Random(f"search:{seed}")
    cases = [Case(f"cycle({n})", gen.cycle(n))
             for n in rng.sample(range(3, SEARCH_CYCLE_MAX + 1), SEARCH_CYCLES)]
    cases.append(Case("petersen()", gen.petersen()))
    for (n, r), count in SEARCH_REGULAR:
        for _ in range(count):
            s = _instance_seed(rng)
            cases.append(Case(f"random_regular({n},{r},{s})",
                              gen.random_regular(n, r, s)))
    cases += [Case(f"cycle({n})", gen.cycle(n)) for n in SEARCH_LONG_CYCLES]
    return cases


def partition_corpus(mods, seed: int) -> list[Case]:
    rng = random.Random(f"partition:{seed}")
    cases = []
    for (n, p), count in PARTITION_SPECS:
        for _ in range(count):
            name, g = _normal_gnp(mods.generators, mods.graphs, n, p, rng)
            cases.append(Case(name, g))
    return cases


def _star(graphs, t: int):
    return graphs.Graph(t + 1, [(0, i) for i in range(1, t + 1)])


def _path(graphs, n: int):
    return graphs.Graph(n, [(i, i + 1) for i in range(n - 1)])


def audit_corpus(mods, seed: int) -> list[Case]:
    gen, graphs, io = mods.generators, mods.graphs, mods.graph_io
    rng = random.Random(f"audit:{seed}")
    # (name, graph, published chi'_a); every family keeps m <= 16.
    small = [(f"cycle({n})", gen.cycle(n), 3 if n % 3 == 0 else 5 if n == 5 else 4)
             for n in sorted(rng.sample(range(3, 17), AUDIT_SMALL["cycle"]))]
    small += [(f"complete({n})", gen.complete(n), n if n % 2 else n + 1)
              for n in (3, 4, 5, 6)]
    small += [(f"star({t})", _star(graphs, t), t)
              for t in sorted(rng.sample(range(2, 17), AUDIT_SMALL["star"]))]
    small += [(f"path({n})", _path(graphs, n), 2 if n == 3 else 3)
              for n in sorted(rng.sample(range(3, 18), AUDIT_SMALL["path"]))]
    medium = [(f"complete({n})", gen.complete(n)) for n in AUDIT_COMPLETE]
    for (n, p), count in AUDIT_GNP:
        for _ in range(count):
            medium.append(_normal_gnp(gen, graphs, n, p, rng))
    n, degrees, count = AUDIT_REGULAR
    for r in degrees:
        for _ in range(count):
            s = _instance_seed(rng)
            medium.append((f"random_regular({n},{r},{s})",
                           gen.random_regular(n, r, s)))
    cases = [Case(name, g, chi_a=chi) for name, g, chi in small]
    cases += [Case(name, g) for name, g in medium]
    for case in cases:
        case.graph6 = io.emit_graph(case.graph, "graph6")
    return cases


CORPORA = {
    "search": search_corpus,
    "partition": partition_corpus,
    "audit": audit_corpus,
}
