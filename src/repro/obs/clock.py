"""Timing primitives for the observability layer.

Every timestamp in ``src/repro`` flows through these two helpers:

* :func:`wall_time` — epoch seconds, for *labelling* events (span start
  times, persistent-cache rows, log entries).  This is the one sanctioned
  use of ``time.time`` in the tree; CI greps for stray calls.
* :func:`monotonic` — a monotonic high-resolution clock, for *measuring*
  durations.  Wall clocks step (NTP, suspend/resume), so a duration
  computed from two wall readings can come out negative; a service that
  reports negative latencies poisons every histogram downstream.

:class:`Stopwatch` wraps the measuring side for call sites that want an
object instead of two reads.
"""

from __future__ import annotations

import time

__all__ = ["wall_time", "monotonic", "Stopwatch"]


# Both helpers are the clock functions themselves rather than wrappers,
# so a read on the instrumented paths costs one C call.

#: Epoch seconds — for labelling events, never for durations.
wall_time = time.time

#: Monotonic seconds — for measuring durations.
monotonic = time.perf_counter


class Stopwatch:
    """A started stopwatch; read :attr:`elapsed_s` as often as needed."""

    __slots__ = ("started",)

    def __init__(self) -> None:
        self.started = monotonic()

    @property
    def elapsed_s(self) -> float:
        return monotonic() - self.started

    def restart(self) -> float:
        """Reset the start point, returning the lap just completed."""
        now = monotonic()
        lap = now - self.started
        self.started = now
        return lap
