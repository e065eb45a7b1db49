"""Time-series telemetry over *simulated* time.

The metrics registry answers "how much, in total"; a regression hunt
needs "when did it start".  :class:`TelemetryStore` hands out named
:class:`TimeSeries` instruments that record ``(t, value)`` samples --
TCP queue depths, scheduler pass counts, xmem high-water, cumulative
CPU cycles -- against the simulator clock, never the wall clock, so a
given workload produces byte-identical series at any ``--jobs N``.

The store follows the same contracts as the registry:

* instruments are memoized by name, so hot paths cache the series once
  and pay one bound-method call per sample;
* every series is *mergeable* (``to_state``/``merge_state``/
  ``from_state``): per-worker stores fold together in task order by
  sample concatenation, the deterministic analogue of the gauge's
  "last writer wins";
* the null variant (:class:`NullTelemetryStore`) hands out one shared
  do-nothing series, so uninstrumented runs pay a single no-op call at
  each (already cadence-gated) sampling site.

Rendering is a fixed-width ASCII sparkline per series -- the columnar
samples also embed in bench snapshots, where :mod:`repro.obs.diff`
aligns two runs and names the first simulated-time divergence point.
"""

from __future__ import annotations

from typing import Callable

#: ASCII amplitude ramp for sparklines, lowest to highest.
SPARK_LEVELS = " .:-=+*#@"

#: Default sparkline width (samples are bucketed down to this many
#: columns over the series' time range).
SPARK_WIDTH = 48


class TimeSeries:
    """Columnar ``(t, value)`` samples for one named signal.

    Parallel ``times``/``values`` lists keep the store cheap to sample
    and trivially serializable; consecutive duplicate samples (same
    time, same value) collapse so change-driven recorders can fire
    unconditionally.
    """

    __slots__ = ("name", "times", "values", "_store")

    def __init__(self, name: str, store: "TelemetryStore | None" = None):
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []
        self._store = store

    @property
    def enabled(self) -> bool:
        return True

    def record(self, value: float) -> None:
        """Sample ``value`` at the owning store's current clock time."""
        store = self._store
        self.record_at(store.now() if store is not None else 0.0, value)

    def record_at(self, t: float, value: float) -> None:
        """Sample ``value`` at an explicit time (e.g. CPU-cycle time)."""
        t = float(t)
        value = float(value)
        times = self.times
        if times and times[-1] == t and self.values[-1] == value:
            return
        times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.times, self.values))

    @property
    def last(self) -> float:
        return self.values[-1] if self.values else 0.0

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else 0.0

    @property
    def minimum(self) -> float:
        return min(self.values) if self.values else 0.0

    def first_divergence(self, other: "TimeSeries") -> float | None:
        """Earliest simulated time where the two series disagree.

        Samples are compared index-by-index; a time or value mismatch
        diverges at the earlier of the two sample times, and a missing
        tail diverges at the longer series' first extra sample.  Returns
        ``None`` when the series are identical.
        """
        return first_divergence(
            {"times": self.times, "values": self.values},
            {"times": other.times, "values": other.values},
        )

    def sparkline(self, width: int = SPARK_WIDTH) -> str:
        """Fixed-width ASCII rendering of the series' shape.

        Samples bucket by time over ``[t_first, t_last]``; each bucket
        shows the max value it saw, empty buckets carry the previous
        level forward, and amplitude maps onto :data:`SPARK_LEVELS`.
        """
        if not self.times:
            return ""
        low, high = self.minimum, self.maximum
        span = high - low
        t0, t1 = self.times[0], self.times[-1]
        if t1 <= t0 or width <= 1:
            width = 1
        buckets: list[float | None] = [None] * width
        for t, value in zip(self.times, self.values):
            index = 0 if width == 1 else min(
                width - 1, int((t - t0) / (t1 - t0) * width)
            )
            if buckets[index] is None or value > buckets[index]:
                buckets[index] = value
        top = len(SPARK_LEVELS) - 1
        chars = []
        level = 0
        for bucket in buckets:
            if bucket is not None:
                level = top // 2 if span == 0.0 else int(
                    (bucket - low) / span * top
                )
            chars.append(SPARK_LEVELS[level])
        return "".join(chars)

    # -- merge / serialization -----------------------------------------
    def to_state(self) -> dict:
        return {"times": list(self.times), "values": list(self.values)}

    def merge_state(self, state: dict) -> None:
        # Merge order is task order, so concatenating each shard's
        # samples reproduces the sequential recording order exactly.
        self.times.extend(float(t) for t in state["times"])
        self.values.extend(float(v) for v in state["values"])


def first_divergence(a: dict, b: dict) -> float | None:
    """First divergence between two serialized series (plain dicts).

    Operates on the ``{"times": [...], "values": [...]}`` shape that
    ``to_state``/``snapshot`` emit, so snapshot JSON diffs without
    rebuilding instruments.
    """
    a_times, a_values = a.get("times", []), a.get("values", [])
    b_times, b_values = b.get("times", []), b.get("values", [])
    shared = min(len(a_times), len(b_times))
    for index in range(shared):
        if a_times[index] != b_times[index]:
            return min(a_times[index], b_times[index])
        if a_values[index] != b_values[index]:
            return a_times[index]
    if len(a_times) != len(b_times):
        longer = a_times if len(a_times) > shared else b_times
        return longer[shared]
    return None


class TelemetryStore:
    """Name -> :class:`TimeSeries`, memoized; the sampling handle.

    The clock is bound once by ``Obs.bind_clock`` (the simulator's
    ``now``); series sampled before a clock exists record at t=0, the
    same convention the tracer uses.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock = clock
        self._series: dict[str, TimeSeries] = {}

    @property
    def enabled(self) -> bool:
        return True

    def now(self) -> float:
        clock = self.clock
        return clock() if clock is not None else 0.0

    def series(self, name: str) -> TimeSeries:
        instrument = self._series.get(name)
        if instrument is None:
            instrument = self._series[name] = TimeSeries(name, self)
        return instrument

    def record(self, name: str, value: float) -> None:
        self.series(name).record(value)

    def names(self) -> list[str]:
        return sorted(self._series)

    # -- snapshots ------------------------------------------------------
    def snapshot(self) -> dict:
        """Columnar plain data, sorted by series name.

        Times round to 9 decimal places (nanosecond resolution, the
        flight recorder's convention) so rendered JSON stays stable
        byte-for-byte; values are recorded verbatim.
        """
        out = {}
        for name in sorted(self._series):
            series = self._series[name]
            out[name] = {
                "n": len(series),
                "last": series.last,
                "max": series.maximum,
                "times": [round(t, 9) for t in series.times],
                "values": list(series.values),
            }
        return out

    # -- merge / serialization -----------------------------------------
    def to_state(self) -> dict:
        return {
            "series": {
                name: self._series[name].to_state()
                for name in sorted(self._series)
            }
        }

    def merge_state(self, state: dict) -> "TelemetryStore":
        for name, series_state in state.get("series", {}).items():
            self.series(name).merge_state(series_state)
        return self

    @classmethod
    def from_state(cls, state: dict) -> "TelemetryStore":
        return cls().merge_state(state)

    def render_text(self, width: int = SPARK_WIDTH) -> str:
        """One sparkline row per series, sorted by name."""
        if not self._series:
            return "(no telemetry recorded)"
        lines = []
        for name in sorted(self._series):
            series = self._series[name]
            lines.append(
                f"{name:<36} n={len(series):>5} last={series.last:<12.6g} "
                f"max={series.maximum:<12.6g} |{series.sparkline(width)}|"
            )
        return "\n".join(lines)


class _NullTimeSeries(TimeSeries):
    """One shared sink for every disabled series."""

    __slots__ = ()

    def __init__(self):
        super().__init__("", None)

    @property
    def enabled(self) -> bool:
        return False

    def record(self, value: float) -> None:
        pass

    def record_at(self, t: float, value: float) -> None:
        pass


_NULL_SERIES = _NullTimeSeries()


class NullTelemetryStore(TelemetryStore):
    """Telemetry off: hands out the shared no-op series."""

    @property
    def enabled(self) -> bool:
        return False

    def series(self, name: str) -> TimeSeries:
        return _NULL_SERIES

    def record(self, name: str, value: float) -> None:
        pass
