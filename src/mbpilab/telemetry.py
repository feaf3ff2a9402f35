"""Run telemetry: named counters and stage timers for one run.

A record is opened with ``recording()`` and is visible, through a context
variable, to everything called inside the ``with`` block.  Outside one,
``add``, ``put`` and ``stage`` return at once, so instrumented code pays
one context-variable lookup per call site and nothing else.  Sites report
once per call of the work they describe (one ``estimate_pmf``, one stage),
never once per event.
"""

from __future__ import annotations

import contextlib
import contextvars
import time

_current = contextvars.ContextVar("mbpilab_telemetry", default=None)


class Record:
    """Counters (summed over calls), gauges (last value wins) and the wall
    time of each named stage, in seconds, summed over its entries."""

    def __init__(self):
        self.counters = {}
        self.stages = {}

    def as_dict(self) -> dict:
        return {"stages_s": dict(self.stages), "counters": dict(self.counters)}


@contextlib.contextmanager
def recording():
    """Collect everything reported inside the block into a fresh Record."""
    record = Record()
    token = _current.set(record)
    try:
        yield record
    finally:
        _current.reset(token)


def add(name: str, value=1) -> None:
    record = _current.get()
    if record is not None:
        record.counters[name] = record.counters.get(name, 0) + value


def put(name: str, value) -> None:
    record = _current.get()
    if record is not None:
        record.counters[name] = value


@contextlib.contextmanager
def stage(name: str):
    """Add the wall time of the block to stage ``name``."""
    record = _current.get()
    if record is None:
        yield
        return
    started = time.perf_counter()
    try:
        yield
    finally:
        record.stages[name] = (record.stages.get(name, 0.0)
                               + time.perf_counter() - started)
