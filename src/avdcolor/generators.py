"""Deterministic graph generators used by tests and the CLI."""

from __future__ import annotations

import random

from .errors import GenerationError
from .graphs import Graph

PAIRING_RETRY_BUDGET = 10_000


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def petersen() -> Graph:
    # Outer 5-cycle 0..4, spokes to 5..9, inner pentagram.
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def random_regular(n: int, r: int, seed: int) -> Graph:
    """Pairing-model sample of a simple r-regular graph.

    Leftover stubs from a shuffle round are re-shuffled while progress is
    still possible (plain whole-draw rejection has vanishing success
    probability beyond r ~ 5); a dead round restarts the draw.
    """
    if n * r % 2 != 0:
        raise ValueError("n * r must be even")
    if not 0 <= r < n:
        raise ValueError("need 0 <= r < n")
    rng = random.Random(seed)
    if r == 0:
        return Graph(n)

    def suitable(edges: set[tuple[int, int]], leftover: dict[int, int]) -> bool:
        if not leftover:
            return True
        nodes = sorted(leftover)
        for i, u in enumerate(nodes):
            for v in nodes[i + 1:]:
                if (u, v) not in edges:
                    return True
        return False

    for _ in range(PAIRING_RETRY_BUDGET):
        edges: set[tuple[int, int]] = set()
        stubs = list(range(n)) * r
        while stubs:
            rng.shuffle(stubs)
            leftover: dict[int, int] = {}
            it = iter(stubs)
            for u, v in zip(it, it):
                if u > v:
                    u, v = v, u
                if u != v and (u, v) not in edges:
                    edges.add((u, v))
                else:
                    leftover[u] = leftover.get(u, 0) + 1
                    leftover[v] = leftover.get(v, 0) + 1
            if not suitable(edges, leftover):
                break
            stubs = [v for v, cnt in sorted(leftover.items())
                     for _ in range(cnt)]
        else:
            return Graph(n, edges)
    raise GenerationError(
        f"no simple {r}-regular sample on {n} vertices in "
        f"{PAIRING_RETRY_BUDGET} draws")


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a fixed seed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


# Each kind's argument names, and its builder from the seed and the
# arguments as written.
_KINDS = {
    "cycle": (("n",), lambda seed, n: cycle(int(n))),
    "complete": (("n",), lambda seed, n: complete(int(n))),
    "petersen": ((), lambda seed: petersen()),
    "random-regular": (("n", "r"),
                       lambda seed, n, r: random_regular(int(n), int(r), seed)),
    "gnp": (("n", "p"), lambda seed, n, p: gnp(int(n), float(p), seed)),
}


def generate(spec: str, seed: int = 0) -> Graph:
    """Dispatch on a compact description like ``cycle:5`` or ``gnp:30,0.2``.

    Kinds: cycle:n, complete:n, petersen, random-regular:n,r (or
    random_regular), gnp:n,p.  The seed applies to the random kinds.  A
    spec with more or fewer arguments than its kind takes, an empty one
    between commas included, raises ValueError naming the count.
    """
    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "random_regular":
        kind = "random-regular"
    if kind not in _KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    names, build = _KINDS[kind]
    args = arg.split(",") if arg else []
    if len(args) != len(names):
        usage = ":".join([kind, ",".join(names)]) if names else kind
        raise ValueError(
            f"bad generator spec {spec!r}: {kind} takes {len(names)} "
            f"argument{'' if len(names) == 1 else 's'} ({usage}), "
            f"got {len(args)}")
    try:
        return build(seed, *args)
    except ValueError as exc:
        raise ValueError(f"bad generator spec {spec!r}: {exc}") from None
