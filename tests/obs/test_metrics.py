"""Metrics registry: instruments, bucket math, snapshots, null variant."""

import json

import pytest

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    QuantileSketch,
)


class TestCounter:
    def test_inc_default_and_amount(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_memoized_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.counter("c") is not registry.counter("d")


class TestGauge:
    def test_high_water_survives_drops(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(3.0)
        gauge.set(7.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.high_water == 7.0


class TestHistogram:
    def test_bounds_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram("h", (2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", ())

    def test_bucket_edges_are_inclusive_upper(self):
        histogram = Histogram("h", (1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 4.0, 5.0):
            histogram.observe(value)
        # 0.5 and 1.0 land in [..1.0]; 1.5 in (1.0..2.0]; 4.0 exactly on
        # the last edge stays in (2.0..4.0]; 5.0 overflows.
        assert histogram.counts == [2, 1, 1]
        assert histogram.overflow == 1
        assert histogram.count == 5
        assert histogram.mean == pytest.approx(12.0 / 5)

    def test_bucket_rows_end_with_overflow(self):
        histogram = Histogram("h", (10.0,))
        histogram.observe(100.0)
        assert histogram.bucket_rows() == [
            {"le": 10.0, "count": 0},
            {"le": "+inf", "count": 1},
        ]

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram("h", (1.0,)).mean == 0.0


class TestHistogramPercentiles:
    def test_quantile_domain(self):
        histogram = Histogram("h", (1.0,))
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                histogram.percentile(bad)

    def test_empty_histogram_percentile_is_zero(self):
        assert Histogram("h", (1.0,)).percentile(0.5) == 0.0

    def test_uniform_single_bucket_interpolation(self):
        # 10 observations in (0..100]: rank of p50 is 5, so the estimate
        # interpolates halfway up the only bucket.
        histogram = Histogram("h", (100.0,))
        for _ in range(10):
            histogram.observe(50.0)
        assert histogram.percentile(0.5) == pytest.approx(50.0)
        assert histogram.percentile(1.0) == pytest.approx(100.0)

    def test_multi_bucket_interpolation(self):
        # 8 obs <= 10, 2 obs in (10..20]: p50 -> rank 5 of 8 in the
        # first bucket = 10 * 5/8; p90 -> rank 9, the first of the two
        # in (10..20], interpolated halfway through that bucket.
        histogram = Histogram("h", (10.0, 20.0))
        for _ in range(8):
            histogram.observe(5.0)
        for _ in range(2):
            histogram.observe(15.0)
        assert histogram.percentile(0.5) == pytest.approx(10.0 * 5 / 8)
        assert histogram.percentile(0.9) == pytest.approx(10.0 + 10.0 * 0.5)

    def test_skips_empty_buckets(self):
        histogram = Histogram("h", (1.0, 2.0, 3.0))
        for _ in range(4):
            histogram.observe(2.5)
        # Everything sits in (2.0..3.0]; p50 interpolates there.
        assert histogram.percentile(0.5) == pytest.approx(2.5)

    def test_overflow_clamps_to_last_bound(self):
        histogram = Histogram("h", (1.0, 2.0))
        histogram.observe(0.5)
        for _ in range(9):
            histogram.observe(99.0)
        assert histogram.percentile(0.99) == 2.0

    def test_negative_first_bound_extends_lower_edge(self):
        # Both land in (-10..0]; the bucket's lower edge is the previous
        # bound, so p50 interpolates to the middle of that range.
        histogram = Histogram("h", (-10.0, 0.0))
        for _ in range(2):
            histogram.observe(-5.0)
        assert histogram.percentile(0.5) == pytest.approx(-5.0)

    def test_percentiles_summary_keys(self):
        histogram = Histogram("h", (1.0,))
        histogram.observe(0.5)
        summary = histogram.percentiles()
        assert sorted(summary) == ["p50", "p95", "p99"]

    def test_snapshot_carries_percentiles(self):
        registry = MetricsRegistry()
        registry.histogram("h", (4.0,)).observe(2.0)
        snapshot = registry.snapshot()["histograms"]["h"]
        assert snapshot["p50"] == pytest.approx(2.0)
        assert snapshot["p99"] == pytest.approx(3.96)

    def test_null_registry_percentiles(self):
        instrument = NullMetricsRegistry().histogram("h", (1.0,))
        assert instrument.percentile(0.5) == 0.0
        assert instrument.percentiles() == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }


class TestRegistrySnapshots:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("issl.records.sent").inc(12)
        registry.gauge("xalloc.used").set(4096)
        registry.histogram("costate.gap_s", (0.001, 0.01)).observe(0.002)
        return registry

    def test_snapshot_shape(self):
        snapshot = self._populated().snapshot()
        assert snapshot["counters"] == {"issl.records.sent": 12}
        assert snapshot["gauges"]["xalloc.used"]["high_water"] == 4096
        histogram = snapshot["histograms"]["costate.gap_s"]
        assert histogram["count"] == 1
        assert histogram["buckets"][-1] == {"le": "+inf", "count": 0}

    def test_rows_filter_by_prefix_and_sort(self):
        registry = self._populated()
        assert [r["metric"] for r in registry.rows()] == [
            "costate.gap_s", "issl.records.sent", "xalloc.used",
        ]
        assert [r["metric"] for r in registry.rows("issl.")] == [
            "issl.records.sent",
        ]

    def test_render_text_and_json(self):
        registry = self._populated()
        text = registry.render_text()
        assert "issl.records.sent" in text
        assert "12" in text
        assert MetricsRegistry().render_text() == "(no metrics recorded)"
        parsed = json.loads(json.dumps(registry.snapshot()))
        assert parsed == registry.snapshot()


class TestQuantileSketch:
    def test_exact_on_few_observations(self):
        sketch = QuantileSketch("lat", max_centroids=64)
        for value in (1.0, 2.0, 3.0, 4.0):
            sketch.observe(value)
        assert sketch.count == 4
        assert sketch.mean == 2.5
        assert (sketch.min, sketch.max) == (1.0, 4.0)
        assert sketch.percentile(1.0) == 4.0

    def test_compression_caps_centroids_and_keeps_totals(self):
        sketch = QuantileSketch("lat", max_centroids=8)
        for index in range(1000):
            sketch.observe(index / 1000.0)
        assert len(sketch.centroids) <= 8
        assert sketch.count == 1000
        # ~2% accuracy from 8 centroids over a uniform distribution.
        assert abs(sketch.percentile(0.5) - 0.5) < 0.05
        assert abs(sketch.percentile(0.95) - 0.95) < 0.05

    def test_percentiles_clamp_to_observed_range(self):
        sketch = QuantileSketch("lat", max_centroids=4)
        for value in (5.0, 5.0, 5.0, 100.0):
            sketch.observe(value)
        assert sketch.percentile(0.01) >= 5.0
        assert sketch.percentile(1.0) <= 100.0

    def test_merge_matches_sequential_observation(self):
        # The mergeability contract: merging shard states in shard
        # order equals observing the shards' values in the same order.
        values = [float(v % 17) / 7.0 for v in range(200)]
        sequential = QuantileSketch("lat", max_centroids=16)
        shard_a = QuantileSketch("lat", max_centroids=16)
        shard_b = QuantileSketch("lat", max_centroids=16)
        for value in values[:100]:
            shard_a.observe(value)
        for value in values[100:]:
            shard_b.observe(value)
        merged = QuantileSketch("lat", max_centroids=16)
        merged.merge_state(shard_a.to_state())
        merged.merge_state(shard_b.to_state())
        for value in values:
            sequential.observe(value)
        assert merged.count == sequential.count == 200
        assert merged.total == pytest.approx(sequential.total)
        assert merged.percentile(0.5) == pytest.approx(
            sequential.percentile(0.5), abs=0.2
        )

    def test_merge_rejects_mismatched_sizes(self):
        sketch = QuantileSketch("lat", max_centroids=8)
        other = QuantileSketch("lat", max_centroids=16)
        with pytest.raises(ValueError):
            sketch.merge_state(other.to_state())

    def test_rejects_tiny_cap(self):
        with pytest.raises(ValueError):
            QuantileSketch("lat", max_centroids=1)


class TestRegistryMerge:
    def _shard(self, factor: int) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("reqs").inc(10 * factor)
        registry.gauge("active").set(2.0 * factor)
        registry.histogram("gap", (0.01, 0.1)).observe(0.05 * factor)
        registry.sketch("lat").observe(0.5 * factor)
        return registry

    def test_merged_shards_equal_sequential_snapshot(self):
        merged = MetricsRegistry()
        merged.merge_state(self._shard(1).to_state())
        merged.merge_state(self._shard(2).to_state())
        sequential = MetricsRegistry()
        sequential.counter("reqs").inc(10)
        sequential.counter("reqs").inc(20)
        sequential.gauge("active").set(2.0)
        sequential.gauge("active").set(4.0)
        histogram = sequential.histogram("gap", (0.01, 0.1))
        histogram.observe(0.05)
        histogram.observe(0.10)
        sketch = sequential.sketch("lat")
        sketch.observe(0.5)
        sketch.observe(1.0)
        assert merged.snapshot() == sequential.snapshot()
        assert (json.dumps(merged.snapshot())
                == json.dumps(sequential.snapshot()))

    def test_from_state_round_trips(self):
        original = self._shard(3)
        rebuilt = MetricsRegistry.from_state(original.to_state())
        assert rebuilt.snapshot() == original.snapshot()
        assert rebuilt.to_state() == original.to_state()

    def test_merge_registry_objects(self):
        merged = self._shard(1).merge_state(self._shard(1).to_state())
        assert merged.snapshot()["counters"]["reqs"] == 20

    def test_gauge_merge_is_last_writer_with_max_high_water(self):
        low = MetricsRegistry()
        low.gauge("level").set(9.0)
        low.gauge("level").set(1.0)
        merged = MetricsRegistry()
        merged.gauge("level").set(4.0)
        merged.merge_state(low.to_state())
        gauge = merged.snapshot()["gauges"]["level"]
        assert gauge["value"] == 1.0
        assert gauge["high_water"] == 9.0

    def test_histogram_merge_rejects_different_bounds(self):
        left = MetricsRegistry()
        left.histogram("gap", (0.01,)).observe(0.005)
        right = MetricsRegistry()
        right.histogram("gap", (0.5,)).observe(0.25)
        with pytest.raises(ValueError):
            left.merge_state(right.to_state())

    def test_snapshot_key_order_is_sorted_not_insertion(self):
        backwards = MetricsRegistry()
        backwards.counter("z.last").inc()
        backwards.counter("a.first").inc()
        forwards = MetricsRegistry()
        forwards.counter("a.first").inc()
        forwards.counter("z.last").inc()
        assert (list(backwards.snapshot()["counters"])
                == list(forwards.snapshot()["counters"])
                == ["a.first", "z.last"])
        assert (json.dumps(backwards.snapshot())
                == json.dumps(forwards.snapshot()))


class TestNullRegistry:
    def test_hands_out_one_shared_noop(self):
        registry = NullMetricsRegistry()
        counter = registry.counter("a")
        assert counter is registry.gauge("b")
        assert counter is registry.histogram("c", (1.0,))
        counter.inc()
        counter.set(5.0)
        counter.observe(1.0)
        assert counter.value == 0
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}, "sketches": {},
        }
        assert not registry.enabled
