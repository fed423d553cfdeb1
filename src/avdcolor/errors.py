"""Exception types shared across the package."""

from __future__ import annotations


class GraphFormatError(ValueError):
    """Malformed graph input (bad header, bad index, duplicate edge, ...)."""


class NotNormalError(ValueError):
    """Operation requires a normal graph (no isolated vertices or edges)."""


class GenerationError(RuntimeError):
    """Random generator exhausted its rejection-sampling retry budget."""


class CapExceededError(RuntimeError):
    """An exact oracle hit its configured cap before finishing."""


class StateDumpError(RuntimeError):
    """An error whose ``payload`` holds the state needed to reproduce it."""

    def __init__(self, message: str, payload: dict | None = None):
        super().__init__(message)
        self.payload = payload or {}


class SearchCapExceededError(StateDumpError):
    """A budgeted coloring search hit its node cap before finishing.

    A guaranteed search that spends its whole node budget carries the part's
    edge list, the color budget, the nodes spent and the attempts made.
    """


class InternalBoundViolationError(StateDumpError):
    """A search refuted a budget that cited theory guarantees to be feasible.

    This is reported loudly: it means either an implementation bug or a
    counterexample to a published bound.
    """


class CounterexampleFound(StateDumpError):
    """The partition engine ran out of moves while its potential was positive.

    The counting argument behind the engine rules this out, so an instance is
    either an engine bug or research-grade.  The payload carries the full
    state dump needed to reproduce and inspect the configuration.
    """
