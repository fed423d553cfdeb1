"""The drivers leave no cyclic garbage: with the collector off, a
``gc.collect()`` after each finds nothing unreachable, on its success
paths and on its typed failures alike.  So the collector's pauses during
a run free nothing."""

import gc
from contextlib import nullcontext

import pytest

from avdcolor import (CounterexampleFound, Graph, NotNormalError,
                      SearchCapExceededError, audit, avd_color,
                      avd_color_regular, complete, cycle, gnp, partition,
                      partition_p2, petersen, random_regular)
from helpers import exhaust_searches


def _garbage_after(fn, g, raises=None) -> int:
    """What ``gc.collect()`` finds unreachable after ``fn(g)``, run with
    the collector off; ``fn`` must raise ``raises`` when it is given."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(raises) if raises else nullcontext():
            fn(g)
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("fn, g", [
    (avd_color, petersen()),
    (avd_color, random_regular(24, 4, 1)),
    (avd_color, gnp(40, 0.3, 7)),
    (avd_color_regular, random_regular(30, 10, 1)),
    (partition_p2, gnp(200, 0.1, 1)),
    (audit, cycle(7)),
    (audit, complete(12)),
], ids=lambda x: getattr(x, "__name__", repr(x)))
def test_no_cyclic_garbage_on_success(fn, g):
    assert _garbage_after(fn, g) == 0


def test_no_cyclic_garbage_on_a_search_cap(monkeypatch):
    exhaust_searches(monkeypatch)
    for g in (petersen(), gnp(10, 0.5, 2)):
        assert _garbage_after(avd_color, g, SearchCapExceededError) == 0


def test_no_cyclic_garbage_on_a_stalled_engine(monkeypatch):
    def stall(g, sel):
        raise partition._counterexample("stalled", g, sel)

    monkeypatch.setattr(partition, "find_move", stall)
    g = gnp(200, 0.1, 1)
    for fn in (partition_p2, avd_color):
        assert _garbage_after(fn, g, CounterexampleFound) == 0


def test_no_cyclic_garbage_on_a_graph_that_is_not_normal():
    # K_7 with a pendant path: audit reports the error in its rows, and the
    # regular driver refuses the graph as not regular.
    g = Graph(9, sorted(complete(7).edges) + [(7, 8)])
    for fn in (avd_color, partition_p2):
        assert _garbage_after(fn, g, NotNormalError) == 0
    assert _garbage_after(audit, g) == 0
    assert _garbage_after(avd_color_regular, g, ValueError) == 0
