"""Metrics: counters, gauges, fixed-bucket histograms, and sketches.

The registry is deliberately small: instruments are memoized by name so
hot paths can cache the instrument object once (``self._sent =
metrics.counter("issl.records.sent")``) and pay a single method call per
update.  Snapshots render as text tables through the experiment
harness's ``format_table`` and as JSON for the structured pipeline.

Every instrument is *mergeable*: ``to_state()`` produces a plain-data
serialized form, ``from_state()`` rebuilds it, and ``merge()`` folds
another instrument in, so per-worker registries from ``--jobs N``
fan-out combine (in task order) into one registry whose snapshot is
byte-identical to a single-process run.  :class:`QuantileSketch` is the
percentile instrument built for that world: a t-digest-style fixed
-centroid summary whose quantile estimates survive merging, unlike a
naive sorted-sample reservoir.

The null variant (:class:`NullMetricsRegistry`) hands out one shared
do-nothing instrument, the metrics half of the <5 %-overhead contract.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.floatsum import add_repeated


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_state(self):
        return self.value

    def merge_state(self, state) -> None:
        self.value += state


class Gauge:
    """A sampled level; also tracks its high-water mark."""

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def to_state(self):
        return {"value": self.value, "high_water": self.high_water}

    def merge_state(self, state) -> None:
        # Merge order is task order, so "last writer wins" for the level
        # is deterministic; the high-water mark is order-independent.
        self.value = state["value"]
        if state["high_water"] > self.high_water:
            self.high_water = state["high_water"]


class Histogram:
    """Fixed upper-bound buckets plus an overflow bucket.

    ``bounds`` are inclusive upper edges in ascending order; an
    observation lands in the first bucket whose bound is >= the value,
    or in the overflow bucket past the last bound.
    """

    __slots__ = ("name", "bounds", "counts", "overflow", "count", "total",
                 "_memo_value", "_memo_index")

    def __init__(self, name: str, bounds: tuple[float, ...]):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must ascend, got {bounds!r}")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        # One-element bucket memo: schedulers observe the same gap value
        # millions of times in a row.  NaN never equals itself, so it is
        # both the initial sentinel and naturally un-memoizable.
        self._memo_value = float("nan")
        self._memo_index = 0

    def observe(self, value: float, weight: int = 1) -> None:
        """Record ``value`` ``weight`` times; bit-identical to that many
        single observations (``total`` included, see ``add_repeated``)."""
        self.count += weight
        if weight == 1:
            self.total += value
        else:
            self.total = add_repeated(self.total, value, weight)
        if value == self._memo_value:
            self.counts[self._memo_index] += weight
            return
        # bisect_left finds the first bound >= value, same bucket the
        # linear scan chose; NaN compares false against every bound, so
        # it must land in overflow explicitly.
        if value != value:
            self.overflow += weight
            return
        index = bisect_left(self.bounds, value)
        if index < len(self.counts):
            self.counts[index] += weight
            self._memo_value = value
            self._memo_index = index
        else:
            self.overflow += weight

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``) from the buckets.

        Linear interpolation within the bucket holding the q-th
        observation, Prometheus ``histogram_quantile`` style: the first
        bucket's lower edge is 0 (or its bound, if negative) and
        observations are assumed uniform inside a bucket.  Quantiles
        that land in the overflow bucket clamp to the last finite bound
        -- the honest answer for "somewhere past the largest bucket".
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, (bound, bucket_count) in enumerate(
            zip(self.bounds, self.counts)
        ):
            if bucket_count > 0 and cumulative + bucket_count >= rank:
                lower = self.bounds[index - 1] if index else min(
                    0.0, self.bounds[0]
                )
                fraction = (rank - cumulative) / bucket_count
                return lower + (bound - lower) * fraction
            cumulative += bucket_count
        return self.bounds[-1]

    def percentiles(self) -> dict:
        """The p50/p95/p99 summary bench snapshots record."""
        return {
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def bucket_rows(self) -> list[dict]:
        rows = [
            {"le": bound, "count": count}
            for bound, count in zip(self.bounds, self.counts)
        ]
        rows.append({"le": "+inf", "count": self.overflow})
        return rows

    def to_state(self):
        return {
            "bounds": list(self.bounds), "counts": list(self.counts),
            "overflow": self.overflow, "count": self.count,
            "total": self.total,
        }

    def merge_state(self, state) -> None:
        if tuple(state["bounds"]) != self.bounds:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge bounds "
                f"{tuple(state['bounds'])!r} into {self.bounds!r}"
            )
        for index, count in enumerate(state["counts"]):
            self.counts[index] += count
        self.overflow += state["overflow"]
        self.count += state["count"]
        self.total += state["total"]


class QuantileSketch:
    """A fixed-size centroid sketch for mergeable percentiles.

    T-digest in spirit, deterministic by construction: observations
    accumulate into at most ``max_centroids`` ``[mean, weight]`` pairs
    kept sorted by mean; past the cap, the two *closest* adjacent
    centroids merge (ties break toward the lower index), so the same
    observation sequence always yields the same centroids, and merging
    the same per-worker sketch states in the same order always yields
    the same result -- which is what keeps a ``--jobs N`` registry merge
    byte-identical to the sequential merge of the same shards.

    Quantiles interpolate between centroid means using midpoint
    cumulative weights (the t-digest estimator) and clamp to the exact
    observed min/max, which the sketch tracks losslessly.
    """

    __slots__ = ("name", "max_centroids", "centroids", "count", "total",
                 "min", "max")

    def __init__(self, name: str, max_centroids: int = 64):
        if max_centroids < 2:
            raise ValueError(
                f"max_centroids must be >= 2, got {max_centroids!r}"
            )
        self.name = name
        self.max_centroids = max_centroids
        self.centroids: list[list[float]] = []  # [mean, weight], sorted
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float, weight: int = 1) -> None:
        self.count += weight
        self.total += value * weight
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        centroids = self.centroids
        index = bisect_left(centroids, [value])
        if index < len(centroids) and centroids[index][0] == value:
            centroids[index][1] += weight
            return
        centroids.insert(index, [value, float(weight)])
        if len(centroids) > self.max_centroids:
            self._compress()

    def _compress(self) -> None:
        centroids = self.centroids
        while len(centroids) > self.max_centroids:
            best = 0
            best_gap = centroids[1][0] - centroids[0][0]
            for index in range(1, len(centroids) - 1):
                gap = centroids[index + 1][0] - centroids[index][0]
                if gap < best_gap:
                    best = index
                    best_gap = gap
            mean_a, weight_a = centroids[best]
            mean_b, weight_b = centroids[best + 1]
            weight = weight_a + weight_b
            centroids[best] = [
                (mean_a * weight_a + mean_b * weight_b) / weight, weight,
            ]
            del centroids[best + 1]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        if len(self.centroids) == 1:
            return self.centroids[0][0]
        rank = q * self.count
        cumulative = 0.0
        previous_mid = 0.0
        previous_mean = self.min if self.min is not None else 0.0
        for mean, weight in self.centroids:
            mid = cumulative + weight / 2.0
            if rank <= mid:
                if mid == previous_mid:
                    return mean
                fraction = (rank - previous_mid) / (mid - previous_mid)
                value = previous_mean + (mean - previous_mean) * fraction
                break
            cumulative += weight
            previous_mid = mid
            previous_mean = mean
        else:
            value = self.centroids[-1][0] + (
                (self.max if self.max is not None else self.centroids[-1][0])
                - self.centroids[-1][0]
            ) * min(1.0, (rank - previous_mid) / max(
                self.count - previous_mid, 1e-12
            ))
        low = self.min if self.min is not None else value
        high = self.max if self.max is not None else value
        return min(max(value, low), high)

    def percentiles(self) -> dict:
        return {
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def to_state(self):
        return {
            "max_centroids": self.max_centroids,
            "centroids": [[mean, weight] for mean, weight in self.centroids],
            "count": self.count, "total": self.total,
            "min": self.min, "max": self.max,
        }

    def merge_state(self, state) -> None:
        if state["max_centroids"] != self.max_centroids:
            raise ValueError(
                f"sketch {self.name!r}: cannot merge max_centroids "
                f"{state['max_centroids']!r} into {self.max_centroids!r}"
            )
        for mean, weight in state["centroids"]:
            centroids = self.centroids
            index = bisect_left(centroids, [mean])
            if index < len(centroids) and centroids[index][0] == mean:
                centroids[index][1] += weight
            else:
                centroids.insert(index, [mean, weight])
        if len(self.centroids) > self.max_centroids:
            self._compress()
        self.count += state["count"]
        self.total += state["total"]
        if state["min"] is not None and (
            self.min is None or state["min"] < self.min
        ):
            self.min = state["min"]
        if state["max"] is not None and (
            self.max is None or state["max"] > self.max
        ):
            self.max = state["max"]


class MetricsRegistry:
    """Name -> instrument, memoized; the one handle a layer needs."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._sketches: dict[str, QuantileSketch] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = ()) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        return instrument

    def sketch(self, name: str, max_centroids: int = 64) -> QuantileSketch:
        instrument = self._sketches.get(name)
        if instrument is None:
            instrument = self._sketches[name] = QuantileSketch(
                name, max_centroids
            )
        return instrument

    @property
    def enabled(self) -> bool:
        return True

    # -- snapshots ------------------------------------------------------
    def snapshot(self) -> dict:
        """Everything, as plain data (the JSON export shape).

        Key order is *sorted by metric name* in every section, not
        insertion order, so snapshots from differently-ordered runs
        (``--jobs N`` shards, merged registries) diff cleanly and the
        rendered JSON is stable byte-for-byte.
        """
        return {
            "counters": {c.name: c.value
                         for c in sorted(self._counters.values(),
                                         key=lambda c: c.name)},
            "gauges": {g.name: {"value": g.value,
                                "high_water": g.high_water}
                       for g in sorted(self._gauges.values(),
                                       key=lambda g: g.name)},
            "histograms": {
                h.name: {"count": h.count, "mean": h.mean,
                         **h.percentiles(), "buckets": h.bucket_rows()}
                for h in sorted(self._histograms.values(),
                                key=lambda h: h.name)
            },
            "sketches": {
                s.name: {"count": s.count, "mean": s.mean,
                         "min": s.min, "max": s.max, **s.percentiles()}
                for s in sorted(self._sketches.values(),
                                key=lambda s: s.name)
            },
        }

    # -- merge / serialization -----------------------------------------
    def to_state(self) -> dict:
        """Full-fidelity plain-data form (unlike ``snapshot``, which
        summarizes histograms/sketches down to percentiles)."""
        return {
            "counters": {c.name: c.to_state()
                         for c in sorted(self._counters.values(),
                                         key=lambda c: c.name)},
            "gauges": {g.name: g.to_state()
                       for g in sorted(self._gauges.values(),
                                       key=lambda g: g.name)},
            "histograms": {h.name: h.to_state()
                           for h in sorted(self._histograms.values(),
                                           key=lambda h: h.name)},
            "sketches": {s.name: s.to_state()
                         for s in sorted(self._sketches.values(),
                                         key=lambda s: s.name)},
        }

    def merge_state(self, state: dict) -> "MetricsRegistry":
        """Fold one ``to_state()`` document in; returns self.

        Instruments are matched by name and created on demand, so
        merging worker shards into a fresh registry in task order
        reproduces the sequential registry exactly.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).merge_state(value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).merge_state(value)
        for name, value in state.get("histograms", {}).items():
            self.histogram(name, tuple(value["bounds"])).merge_state(value)
        for name, value in state.get("sketches", {}).items():
            self.sketch(name, value["max_centroids"]).merge_state(value)
        return self

    @classmethod
    def from_state(cls, state: dict) -> "MetricsRegistry":
        return cls().merge_state(state)

    def rows(self, prefix: str = "") -> list[dict]:
        """One row per instrument, for table rendering."""
        rows = []
        for counter in self._counters.values():
            if counter.name.startswith(prefix):
                rows.append({"metric": counter.name, "type": "counter",
                             "value": counter.value, "high water": None})
        for gauge in self._gauges.values():
            if gauge.name.startswith(prefix):
                rows.append({"metric": gauge.name, "type": "gauge",
                             "value": gauge.value,
                             "high water": gauge.high_water})
        for histogram in self._histograms.values():
            if histogram.name.startswith(prefix):
                rows.append({
                    "metric": histogram.name, "type": "histogram",
                    "value": f"n={histogram.count} mean={histogram.mean:.4g}",
                    "high water": None,
                })
        for sketch in self._sketches.values():
            if sketch.name.startswith(prefix):
                rows.append({
                    "metric": sketch.name, "type": "sketch",
                    "value": f"n={sketch.count} mean={sketch.mean:.4g}",
                    "high water": None,
                })
        return sorted(rows, key=lambda row: row["metric"])

    def render_text(self, prefix: str = "") -> str:
        # Imported lazily: the harness sits in repro.experiments, which
        # imports runners that import repro.obs back.
        from repro.experiments.harness import format_table
        rows = self.rows(prefix)
        return format_table(rows) if rows else "(no metrics recorded)"


class _NullInstrument:
    """One shared sink for every disabled counter/gauge/histogram."""

    __slots__ = ()
    name = ""
    value = 0
    high_water = 0.0
    count = 0
    total = 0.0
    mean = 0.0
    min = None
    max = None

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, weight: int = 1) -> None:
        pass

    def to_state(self):
        return None

    def merge_state(self, state) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def percentiles(self) -> dict:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def bucket_rows(self) -> list:
        return []


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """Observability off: hands out the shared no-op instrument."""

    def counter(self, name: str):
        return _NULL_INSTRUMENT

    def gauge(self, name: str):
        return _NULL_INSTRUMENT

    def histogram(self, name: str, bounds: tuple[float, ...] = ()):
        return _NULL_INSTRUMENT

    def sketch(self, name: str, max_centroids: int = 64):
        return _NULL_INSTRUMENT

    @property
    def enabled(self) -> bool:
        return False
