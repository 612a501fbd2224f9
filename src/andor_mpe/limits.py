"""The one budget a solve runs under, and the one check every stage calls."""

from __future__ import annotations

import time


class LimitExceeded(Exception):
    """A budget ran out; `status` is "timeout" or "memout"."""

    def __init__(self, status: str):
        super().__init__(status)
        self.status = status


class Budget:
    """A deadline `time_limit` seconds after the budget is made, a cap on
    the nodes a search holds and a cap on the table entries one sweep
    builds; None means no limit."""

    def __init__(self, time_limit: float | None = None,
                 max_nodes: int | None = None, max_entries: int | None = None):
        self.deadline = (None if time_limit is None
                         else time.perf_counter() + time_limit)
        self.max_nodes = max_nodes
        self.max_entries = max_entries

    def check(self, nodes: int = 0, entries: int = 0) -> None:
        """Raise LimitExceeded("timeout") once the deadline has passed, else
        LimitExceeded("memout") when `nodes` or `entries` exceed their cap."""
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            raise LimitExceeded("timeout")
        if ((self.max_nodes is not None and nodes > self.max_nodes)
                or (self.max_entries is not None and entries > self.max_entries)):
            raise LimitExceeded("memout")


UNLIMITED = Budget()  # the default of every stage: its check never raises
