"""Distributed telemetry: deltas, merge semantics, health rules, reports."""

from __future__ import annotations

import json
import math

import pytest

from repro.data import BatchIterator, make_sequential_mnist
from repro.models import MnistLSTMClassifier
from repro.obs import (
    DeltaExporter,
    HealthMonitor,
    MetricsRegistry,
    NonFiniteRule,
    Obs,
    SpikeRule,
    ThresholdRule,
    Tracer,
    default_serving_rules,
    default_training_rules,
    render_report,
    save_report,
)
from repro.optim import Momentum
from repro.parallel import LossFaultInjector
from repro.schedules import ConstantLR
from repro.train import Rollback, Trainer
from repro.utils import CheckpointManager

BUCKETS = (1.0, 2.0, 5.0)


class TestHistogramPercentile:
    def test_interpolates_within_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", BUCKETS)
        for v in (0.5, 1.5, 1.5, 4.0):
            h.observe(v)
        # p50 rank = 2: halfway through the (1, 2] bucket's two entries
        assert h.percentile(50.0) == pytest.approx(1.5)
        # estimates never leave [vmin, vmax]
        assert h.percentile(0.0) == pytest.approx(0.5)
        assert h.percentile(100.0) == pytest.approx(4.0)

    def test_empty_is_nan_and_bounds_checked(self):
        h = MetricsRegistry().histogram("h", BUCKETS)
        assert math.isnan(h.percentile(50.0))
        with pytest.raises(ValueError):
            h.percentile(101.0)

    def test_single_value_collapses_to_it(self):
        h = MetricsRegistry().histogram("h", BUCKETS)
        h.observe(3.0)
        for p in (0.0, 50.0, 99.0):
            assert h.percentile(p) == pytest.approx(3.0)


class TestRegistryMerge:
    def _worker_snapshot(self):
        src = MetricsRegistry()
        src.counter("steps").inc(3)
        src.gauge("loss").set(0.25)
        h = src.histogram("step_ms", BUCKETS)
        h.observe(1.5)
        h.observe(10.0)
        return src.snapshot()

    def test_counters_add(self):
        reg = MetricsRegistry()
        reg.counter("parallel/w0/steps").inc(2)
        reg.merge(self._worker_snapshot(), prefix="parallel/w0/")
        assert reg.counter("parallel/w0/steps").value == 5.0

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("parallel/w0/loss").set(9.0)
        reg.merge(self._worker_snapshot(), prefix="parallel/w0/")
        assert reg.gauge("parallel/w0/loss").value == 0.25

    def test_histograms_merge_bucket_wise(self):
        reg = MetricsRegistry()
        local = reg.histogram("parallel/w0/step_ms", BUCKETS)
        local.observe(0.5)
        reg.merge(self._worker_snapshot(), prefix="parallel/w0/")
        assert local.count == 3
        assert local.counts == [1, 1, 0, 1]  # 0.5→le1, 1.5→le2, 10→+inf
        assert local.total == pytest.approx(12.0)
        assert local.vmin == 0.5 and local.vmax == 10.0

    def test_histogram_bucket_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("step_ms", (1.0, 2.0))
        with pytest.raises(ValueError, match="bucket bounds"):
            reg.merge(self._worker_snapshot())

    def test_remerge_of_same_seq_is_idempotent(self):
        reg = MetricsRegistry()
        snap = self._worker_snapshot()
        assert reg.merge(snap, prefix="w0/", source="w0:1", seq=1) is True
        assert reg.merge(snap, prefix="w0/", source="w0:1", seq=1) is False
        assert reg.counter("w0/steps").value == 3.0  # not double-counted
        # a newer seq from the same source applies
        assert reg.merge(snap, prefix="w0/", source="w0:1", seq=2) is True
        assert reg.counter("w0/steps").value == 6.0
        # a respawned worker (new pid in the source key) starts fresh
        assert reg.merge(snap, prefix="w0/", source="w0:2", seq=1) is True

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError, match="unknown instrument"):
            MetricsRegistry().merge([{"type": "what", "name": "x", "value": 1}])


class TestTimeSeries:
    def test_sample_appends_bounded_ring(self):
        reg = MetricsRegistry(ring=4)
        reg.counter("c").inc()
        for i in range(6):
            reg.sample(step=i, t=float(i))
        assert len(reg.samples) == 4
        assert [s["step"] for s in reg.samples] == [2, 3, 4, 5]
        record = reg.samples[-1]
        assert record["type"] == "sample" and record["t"] == 5.0
        assert record["instruments"][0]["name"] == "c"

    def test_stream_writes_jsonl_and_final_snapshot(self, tmp_path):
        path = tmp_path / "series.jsonl"
        reg = MetricsRegistry()
        reg.stream_to(str(path))
        assert reg.streaming
        reg.gauge("g").set(1.0)
        reg.sample(step=0, t=0.0)
        reg.gauge("g").set(2.0)
        reg.sample(step=1, t=1.0)
        reg.close_stream(final_snapshot=True)
        assert not reg.streaming
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        samples = [l for l in lines if l["type"] == "sample"]
        finals = [l for l in lines if l["type"] != "sample"]
        assert [s["step"] for s in samples] == [0, 1]
        assert samples[0]["instruments"][0]["value"] == 1.0
        assert finals == [{"type": "gauge", "name": "g", "value": 2.0}]


class TestDeltaExporter:
    def test_ships_only_changes(self):
        reg = MetricsRegistry()
        exp = DeltaExporter(reg)
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.0)
        reg.histogram("h", BUCKETS).observe(1.5)
        first = exp.export()
        assert first["seq"] == 1
        assert {d["name"] for d in first["metrics"]} == {"c", "g", "h"}
        # quiet interval: nothing ships
        second = exp.export()
        assert second["seq"] == 2 and second["metrics"] == []

    def test_counter_and_histogram_ship_increments(self):
        reg = MetricsRegistry()
        exp = DeltaExporter(reg)
        reg.counter("c").inc(5)
        h = reg.histogram("h", BUCKETS)
        h.observe(0.5)
        exp.export()
        reg.counter("c").inc(3)
        h.observe(10.0)
        delta = {d["name"]: d for d in exp.export()["metrics"]}
        assert delta["c"]["value"] == 3.0  # the gain, not the total
        assert delta["h"]["count"] == 1
        assert delta["h"]["sum"] == pytest.approx(10.0)
        assert delta["h"]["buckets"][-1] == [math.inf, 1]
        assert delta["h"]["buckets"][0][1] == 0  # earlier obs not re-shipped

    def test_deltas_merge_to_ground_truth(self):
        worker, driver = MetricsRegistry(), MetricsRegistry()
        exp = DeltaExporter(worker)
        for round_ in range(3):
            worker.counter("steps").inc()
            worker.gauge("loss").set(1.0 / (round_ + 1))
            worker.histogram("ms", BUCKETS).observe(float(round_))
            d = exp.export()
            driver.merge(d["metrics"], prefix="w0/", source="w0", seq=d["seq"])
        assert driver.counter("w0/steps").value == 3.0
        assert driver.gauge("w0/loss").value == pytest.approx(1.0 / 3)
        merged = driver.histogram("w0/ms", BUCKETS)
        assert merged.count == 3 and merged.total == pytest.approx(3.0)

    def test_nan_gauge_not_reshipped(self):
        reg = MetricsRegistry()
        exp = DeltaExporter(reg)
        reg.gauge("g")  # untouched gauge is NaN
        assert len(exp.export()["metrics"]) == 1  # first sight ships
        assert exp.export()["metrics"] == []  # NaN == NaN for dedupe


def _sample_of(**values):
    """A synthetic sample record holding gauge snapshots."""
    return {
        "type": "sample",
        "t": 0.0,
        "step": 0,
        "instruments": [
            {"type": "gauge", "name": name, "value": value}
            for name, value in values.items()
        ],
    }


class TestHealthMonitor:
    def test_nonfinite_rule_is_critical(self):
        mon = HealthMonitor(default_training_rules())
        assert mon.observe(_sample_of(**{"train/loss": 0.5})) == []
        events = mon.observe(_sample_of(**{"train/loss": math.nan}))
        assert len(events) == 1
        ev = events[0]
        assert ev.rule == "nonfinite-loss" and ev.critical
        assert ev.instrument == "train/loss"
        assert mon.critical_count == 1
        assert ev.to_dict()["type"] == "health_event"

    def test_threshold_rule_bounds_and_validation(self):
        rule = ThresholdRule("t", "x", above=2.0)
        mon = HealthMonitor([rule])
        assert mon.observe(_sample_of(x=2.0)) == []  # exclusive bound
        assert len(mon.observe(_sample_of(x=2.5))) == 1
        with pytest.raises(ValueError):
            ThresholdRule("t", "x")
        with pytest.raises(ValueError):
            ThresholdRule("t", "x", above=1.0, severity="fatal")

    def test_spike_rule_needs_history(self):
        mon = HealthMonitor([SpikeRule("s", "x", factor=10.0, min_history=4)])
        for _ in range(4):
            assert mon.observe(_sample_of(x=1.0)) == []
        events = mon.observe(_sample_of(x=50.0))
        assert len(events) == 1
        assert "spiked" in events[0].message

    def test_cooldown_suppresses_refires(self):
        mon = HealthMonitor(
            [ThresholdRule("t", "x", above=0.0, cooldown=2)]
        )
        assert len(mon.observe(_sample_of(x=1.0))) == 1
        assert mon.observe(_sample_of(x=1.0)) == []  # cooling
        assert mon.observe(_sample_of(x=1.0)) == []
        assert len(mon.observe(_sample_of(x=1.0))) == 1  # cooled off

    def test_counter_derives_interval_increment(self):
        reg = MetricsRegistry()
        mon = HealthMonitor(default_serving_rules())
        reg.counter("serve/shed")
        assert mon.observe(reg.sample()) == []  # increment 0: quiet
        reg.counter("serve/shed").inc(4)
        events = mon.observe(reg.sample())
        assert [e.rule for e in events] == ["shed-alarm"]
        assert events[0].value == 4.0 and events[0].critical
        assert mon.observe(reg.sample()) == []  # no new sheds, no alarm

    def test_histogram_derives_interval_mean(self):
        reg = MetricsRegistry()
        mon = HealthMonitor(
            [ThresholdRule("slow", "ms", above=5.0)]
        )
        h = reg.histogram("ms", BUCKETS)
        h.observe(1.0)
        assert mon.observe(reg.sample()) == []
        assert mon.observe(reg.sample()) == []  # empty interval: no value
        h.observe(100.0)
        events = mon.observe(reg.sample())
        assert len(events) == 1 and events[0].value == pytest.approx(100.0)

    def test_fnmatch_patterns_cover_worker_labels(self):
        mon = HealthMonitor(default_training_rules())
        events = mon.observe(
            _sample_of(**{"parallel/w3/loss": math.inf})
        )
        assert [e.rule for e in events] == ["worker-nonfinite-loss"]
        assert not events[0].critical  # a worker blip is a warning


class TestTracerTelemetry:
    def test_span_tags_exception_and_reraises(self):
        tr = Tracer()
        with pytest.raises(KeyError):
            with tr.span("doomed"):
                raise KeyError("boom")
        assert tr.open_spans == 0
        event = tr.events[-1]
        assert event.name == "doomed"
        assert "KeyError" in event.error
        # the error surfaces in the chrome trace args
        spans = [
            e for e in tr.to_chrome_trace()["traceEvents"] if e["ph"] == "X"
        ]
        assert spans[0]["args"]["error"].startswith("KeyError")

    def test_absorb_prefixes_and_aligns_clocks(self):
        driver, worker = Tracer(), Tracer()
        worker.pid = driver.pid + 1  # simulate a separate process
        with driver.span("driver_step"):
            pass
        with worker.span("step"):
            pass
        driver.absorb(
            worker.dump(0), prefix="w0", process_name="worker 0"
        )
        paths = sorted(e.path for e in driver.events)
        assert paths == ["driver_step", "w0/step"]
        absorbed = next(e for e in driver.events if e.path == "w0/step")
        assert absorbed.pid == worker.pid
        # worker times are re-expressed on the driver's clock: the offset
        # applied is the wall-clock epoch difference
        trace = driver.to_chrome_trace()
        proc_names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert proc_names == {"driver", "worker 0"}


class TestRunReport:
    def _populated(self):
        reg = MetricsRegistry()
        tr = Tracer()
        mon = HealthMonitor(default_training_rules())
        for i in range(4):
            reg.counter("train/iterations").inc()
            reg.gauge("train/loss").set(1.0 / (i + 1))
            with tr.span("step"):
                pass
            mon.observe(reg.sample(step=i, t=float(i)))
        mon.observe(_sample_of(**{"train/loss": math.nan}))
        return reg, tr, mon

    def test_markdown_has_all_sections(self):
        reg, tr, mon = self._populated()
        text = render_report("run", registry=reg, tracer=tr, health=mon)
        assert "# run" in text
        assert "`train/loss`" in text
        assert "Span flame summary" in text
        assert "nonfinite-loss" in text and "critical" in text

    def test_html_escapes_and_renders(self):
        reg, tr, mon = self._populated()
        html = render_report(
            "<run>", registry=reg, tracer=tr, health=mon, fmt="html"
        )
        assert html.startswith("<!DOCTYPE html>")
        assert "&lt;run&gt;" in html
        assert "train/loss" in html

    def test_save_report_picks_format_by_extension(self, tmp_path):
        reg, tr, mon = self._populated()
        md = tmp_path / "report.md"
        html = tmp_path / "report.html"
        assert save_report(str(md), "r", registry=reg) == "markdown"
        assert save_report(str(html), "r", registry=reg) == "html"
        assert md.read_text().startswith("# r")
        assert "<html" in html.read_text()

    def test_empty_report_renders(self):
        text = render_report("empty")
        assert "# empty" in text


@pytest.mark.slow
class TestResilientTrainerHealth:
    def test_injected_nan_fires_health_event_and_rolls_back(self, tmp_path):
        train, _ = make_sequential_mnist(32, 8, rng=0, size=8)
        model = MnistLSTMClassifier(
            rng=3, input_dim=8, transform_dim=8, hidden=8
        )
        obs = Obs(metrics=True)
        injector = LossFaultInjector(1.0, seed=0, max_faults=1)
        trainer = Trainer(
            model.loss, Momentum(model, lr=0.05), ConstantLR(0.05),
            BatchIterator(train, 8, rng=1), model=model,
            checkpoint=CheckpointManager(tmp_path),
            faults=Rollback(injector=injector),
            obs=obs, metrics_every=1,
        )
        result = trainer.run(2)
        assert not result.diverged
        assert result.final_metrics["faults_detected"] == 1.0
        events = [e for e in trainer.faults.health.events if e.critical]
        assert any(e.rule == "nonfinite-loss" for e in events)
        # the time series sampled every iteration
        assert len(obs.metrics.samples) > 0
        assert result.final_metrics["health_events"] >= 1.0
