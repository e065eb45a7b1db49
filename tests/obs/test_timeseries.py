"""Simulated-time telemetry: the columnar store behind forensics.

The contract that matters is the one the bench snapshot relies on:
samples are keyed by *simulated* time, the store merges shard-by-shard
into the same sequence a sequential run records, and the rendered
report is deterministic text.
"""

import pytest

from repro.obs import NULL_OBS, Obs
from repro.obs.timeseries import (
    NullTelemetryStore,
    TelemetryStore,
    TimeSeries,
    first_divergence,
)


class TestTimeSeries:
    def test_record_uses_the_bound_clock(self):
        store = TelemetryStore()
        now = {"t": 0.0}
        store.clock = lambda: now["t"]
        series = store.series("queue.depth")
        series.record(1.0)
        now["t"] = 2.5
        series.record(4.0)
        assert series.samples() == [(0.0, 1.0), (2.5, 4.0)]
        assert series.last == 4.0
        assert series.maximum == 4.0

    def test_exact_duplicate_of_last_sample_is_skipped(self):
        series = TelemetryStore().series("s")
        series.record_at(1.0, 5.0)
        series.record_at(1.0, 5.0)
        series.record_at(2.0, 5.0)  # same value, new time: kept
        assert series.samples() == [(1.0, 5.0), (2.0, 5.0)]

    def test_sparkline_is_fixed_width_ascii(self):
        series = TelemetryStore().series("s")
        for i in range(10):
            series.record_at(float(i), float(i))
        line = series.sparkline(width=16)
        assert len(line) == 16
        assert line[0] == " " and line[-1] == "@"

    def test_sparkline_of_flat_series_is_mid_level(self):
        series = TelemetryStore().series("s")
        series.record_at(0.0, 7.0)
        series.record_at(1.0, 7.0)
        line = series.sparkline(width=8)
        assert len(line) == 8
        assert len(set(line)) == 1


class TestFirstDivergence:
    def _cols(self, *samples):
        return {"times": [t for t, _ in samples],
                "values": [v for _, v in samples]}

    def test_identical_series_never_diverge(self):
        a = self._cols((0.0, 1.0), (1.0, 2.0))
        assert first_divergence(a, dict(a)) is None

    def test_value_mismatch_names_that_sample_time(self):
        a = self._cols((0.0, 1.0), (1.5, 2.0))
        b = self._cols((0.0, 1.0), (1.5, 3.0))
        assert first_divergence(a, b) == 1.5

    def test_time_mismatch_names_the_earlier_time(self):
        a = self._cols((0.0, 1.0), (1.0, 2.0))
        b = self._cols((0.0, 1.0), (4.0, 2.0))
        assert first_divergence(a, b) == 1.0

    def test_length_mismatch_names_the_first_extra_sample(self):
        a = self._cols((0.0, 1.0))
        b = self._cols((0.0, 1.0), (2.0, 2.0))
        assert first_divergence(a, b) == 2.0
        assert first_divergence(b, a) == 2.0


class TestTelemetryStore:
    def test_snapshot_is_sorted_and_columnar(self):
        store = TelemetryStore()
        store.series("z").record_at(0.0, 1.0)
        store.series("a").record_at(0.5, 2.0)
        snap = store.snapshot()
        assert list(snap) == ["a", "z"]
        assert snap["a"] == {"n": 1, "last": 2.0, "max": 2.0,
                             "times": [0.5], "values": [2.0]}

    def test_merge_reproduces_sequential_recording(self):
        # Shard the same sample stream over two stores; merging in task
        # order must equal the one-store run byte for byte.
        sequential = TelemetryStore()
        shard_a, shard_b = TelemetryStore(), TelemetryStore()
        for i in range(10):
            sequential.series("s").record_at(float(i), float(i * i))
            shard = shard_a if i < 5 else shard_b
            shard.series("s").record_at(float(i), float(i * i))
        merged = TelemetryStore()
        merged.merge_state(shard_a.to_state())
        merged.merge_state(shard_b.to_state())
        assert merged.snapshot() == sequential.snapshot()

    def test_state_round_trip(self):
        store = TelemetryStore()
        store.series("s").record_at(1.0, 2.0)
        clone = TelemetryStore.from_state(store.to_state())
        assert clone.snapshot() == store.snapshot()

    def test_render_text_mentions_every_series(self):
        store = TelemetryStore()
        store.series("tcp.rmc.send_queue").record_at(0.0, 3.0)
        text = store.render_text()
        assert "tcp.rmc.send_queue" in text
        assert "n=" in text and "|" in text
        assert TelemetryStore().render_text() == "(no telemetry recorded)"

    def test_null_store_records_nothing(self):
        null = NullTelemetryStore()
        assert not null.enabled
        null.record("s", 1.0)
        null.series("s").record_at(0.0, 1.0)
        assert null.snapshot() == {}


class TestObsIntegration:
    def test_obs_handle_carries_a_store_and_binds_its_clock(self):
        obs = Obs()
        assert obs.telemetry.enabled
        obs.bind_clock(lambda: 42.0)
        obs.telemetry.record("s", 1.0)
        assert obs.telemetry.series("s").samples() == [(42.0, 1.0)]

    def test_null_obs_telemetry_is_disabled(self):
        assert not NULL_OBS.telemetry.enabled

    def test_simulator_clock_drives_sample_times(self):
        from repro.net.sim import Simulator, sleep

        obs = Obs()
        sim = Simulator(obs=obs)
        series = obs.telemetry.series("probe")

        def probe():
            series.record(1.0)
            yield from sleep(0.5)
            series.record(2.0)

        sim.run_until_complete(sim.spawn(probe()))
        assert series.samples() == [(0.0, 1.0), (0.5, 2.0)]


class TestTimeSeriesSlots:
    def test_series_are_memoized_per_name(self):
        store = TelemetryStore()
        assert store.series("x") is store.series("x")
        assert isinstance(store.series("x"), TimeSeries)

    def test_unknown_attributes_are_rejected(self):
        with pytest.raises(AttributeError):
            TelemetryStore().series("x").bogus = 1
