"""Unit tests for the process-wide metrics registry."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramState,
    MetricsRegistry,
    get_registry,
)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("hits_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_rejects_negative(self):
        counter = Counter("hits_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labelled_series_are_independent(self):
        counter = Counter("queries_total", labelnames=("kind",))
        counter.inc(kind="range")
        counter.inc(kind="range")
        counter.inc(kind="knn")
        assert counter.value(kind="range") == 2
        assert counter.value(kind="knn") == 1

    def test_wrong_label_set_rejected(self):
        counter = Counter("queries_total", labelnames=("kind",))
        with pytest.raises(ValueError):
            counter.inc(flavor="range")
        with pytest.raises(ValueError):
            counter.inc()

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name")
        with pytest.raises(ValueError):
            Counter("fine", labelnames=("bad-label",))


class TestGauge:
    def test_up_down_set(self):
        gauge = Gauge("queue_depth")
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value() == 3
        gauge.set(-7)
        assert gauge.value() == -7


def _record(instrument, **labels):
    if isinstance(instrument, Histogram):
        instrument.observe(0.5, **labels)
    else:
        instrument.inc(**labels)


class TestLabelSets:
    """Every instrument takes exactly its declared label names."""

    KINDS = (Counter, Gauge, Histogram)

    @pytest.mark.parametrize("kind", KINDS)
    def test_unlabelled_rejects_any_label(self, kind):
        instrument = kind("plain_total")
        _record(instrument)
        with pytest.raises(ValueError):
            _record(instrument, kind="range")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "labels",
        [{}, {"kind": "range"}, {"shard": "0"}, {"kind": "range", "phase": "x"},
         {"kind": "range", "shard": "0", "phase": "x"}],
    )
    def test_wrong_missing_or_extra_labels_rejected(self, kind, labels):
        instrument = kind("split_total", labelnames=("kind", "shard"))
        with pytest.raises(ValueError, match="takes labels"):
            _record(instrument, **labels)

    @pytest.mark.parametrize("kind", KINDS)
    def test_label_order_is_free_and_series_are_keyed_by_value(self, kind):
        instrument = kind("split_total", labelnames=("kind", "shard"))
        _record(instrument, kind="range", shard=0)
        _record(instrument, shard="0", kind="range")
        _record(instrument, kind="knn", shard="1")
        if isinstance(instrument, Histogram):
            assert instrument.state(kind="range", shard="0").total == 2
        else:
            assert instrument.values() == {("range", "0"): 2, ("knn", "1"): 1}


class TestHistogramState:
    def test_identical_to_latency_histogram_contract(self):
        state = HistogramState()
        for value in (0.001, 0.01, 0.1):
            state.record(value)
        assert state.total == 3
        assert state.sum == pytest.approx(0.111)
        data = state.to_dict()
        assert data["count"] == 3
        assert data["min_seconds"] == 0.001
        assert state.max == 0.1
        assert json.loads(json.dumps(data)) == data

    def test_empty_is_zero(self):
        state = HistogramState()
        assert state.mean == 0.0
        assert state.quantile(50) == 0.0

    def test_quantile_within_bucket(self):
        state = HistogramState()
        for _ in range(100):
            state.record(0.005)
        # every sample is 5 ms; any percentile must land in its bucket
        assert state.quantile(50) == pytest.approx(0.005, rel=1.0)

    def test_quantiles_monotone(self):
        state = HistogramState()
        for i in range(1, 100):
            state.record(i / 1000.0)
        p50, p90, p99 = (state.quantile(p) for p in (50, 90, 99))
        assert state.min <= p50 <= p90 <= p99 <= state.max


class TestHistogramInstrument:
    def test_labelled_observations(self):
        histogram = Histogram("latency_seconds", labelnames=("kind",))
        histogram.observe(0.01, kind="range")
        histogram.observe(0.02, kind="range")
        histogram.observe(0.5, kind="knn")
        assert histogram.state(kind="range").total == 2
        assert histogram.state(kind="knn").total == 1

    def test_custom_bounds(self):
        histogram = Histogram("x_seconds", bounds=(1.0, 2.0))
        histogram.observe(1.5)
        assert histogram.state().counts == [0, 1, 0]


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("hits_total", "help text")
        second = registry.counter("hits_total")
        assert first is second
        assert len(registry) == 1

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labelnames=("kind",))
        with pytest.raises(ValueError):
            registry.counter("x_total", labelnames=("phase",))

    def test_contains_and_get(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total")
        assert "x_total" in registry
        assert registry.get("x_total") is counter
        assert registry.get("missing") is None

    def test_reset_keeps_registrations(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total")
        counter.inc(4)
        registry.reset()
        assert registry.get("x_total") is counter
        assert counter.value() == 0

    def test_snapshot_and_json(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "hits").inc(2)
        registry.histogram("lat_seconds", labelnames=("kind",)).observe(
            0.1, kind="range"
        )
        snapshot = json.loads(registry.to_json())
        assert snapshot["hits_total"]["value"] == 2
        assert snapshot["hits_total"]["type"] == "counter"
        assert snapshot["lat_seconds"]["value"]["range"]["count"] == 1

    def test_default_registry_is_shared(self):
        assert get_registry() is get_registry()


class TestPrometheusText:
    def test_counter_exposition(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_hits_total", "Cache hits.", ("kind",))
        counter.inc(3, kind="range")
        text = registry.prometheus_text()
        assert "# HELP repro_hits_total Cache hits." in text
        assert "# TYPE repro_hits_total counter" in text
        assert 'repro_hits_total{kind="range"} 3.0' in text
        assert text.endswith("\n")

    def test_unlabelled_counter_exposes_zero(self):
        registry = MetricsRegistry()
        registry.counter("repro_errors_total")
        assert "repro_errors_total 0.0" in registry.prometheus_text()

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", labelnames=("name",))
        counter.inc(name='we"ird\\la\nbel')
        text = registry.prometheus_text()
        assert 'name="we\\"ird\\\\la\\nbel"' in text

    def test_histogram_buckets_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_lat_seconds", bounds=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        text = registry.prometheus_text()
        assert '# TYPE repro_lat_seconds histogram' in text
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1.0"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_lat_seconds_count 3" in text
        assert "repro_lat_seconds_sum 5.55" in text

    def test_exposition_parses_line_by_line(self):
        """Every non-comment line must be `name{labels} value`."""
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "a", ("k",)).inc(k="v")
        registry.gauge("repro_g", "g").set(2.5)
        registry.histogram("repro_h_seconds", "h").observe(0.01)
        for line in registry.prometheus_text().splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, value_part = line.rsplit(" ", 1)
            assert name_part.startswith("repro_")
            float(value_part)  # must parse
