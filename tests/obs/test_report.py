"""Unit tests for the run-report builders/renderers (repro.obs.report).

Renderers return strings — nothing in the module prints (the T20
no-print sweep in ``test_logging.py`` enforces that mechanically);
these tests pin the document shape, the determinism split between the
byte-stable body and the opt-in ``wall_timings`` leg, and the
sparkline resampler.
"""

from __future__ import annotations

import json

from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    TIMELINE_SERIES,
    build_scenario_report,
    build_sweep_report,
    phase_timings,
    render_report_markdown,
    render_report_terminal,
    render_sweep_report_markdown,
    render_sweep_report_terminal,
    sparkline,
)
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner


def _introspected_run(name="steady-state", seed=0, trace=False):
    obs = Observability.introspected(seed=seed, trace=trace)
    runner = ScenarioRunner(get_scenario(name), seed=seed, obs=obs)
    metrics = runner.run()
    return obs, metrics


class TestSparkline:
    def test_empty_and_flat(self):
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0, 0.0]) == "▁▁▁"

    def test_peak_gets_the_tallest_glyph(self):
        chart = sparkline([0.0, 1.0, 8.0, 1.0])
        assert len(chart) == 4
        assert chart[2] == "█"
        assert chart[0] == "▁"

    def test_resampling_preserves_spike_mass(self):
        values = [0.0] * 100
        values[73] = 50.0
        chart = sparkline(values)
        assert len(chart) == 48
        assert "█" in chart  # the spike survives 100:48 resampling

    def test_none_and_nan_render_as_zero(self):
        assert sparkline([None, float("nan"), 4.0]) == "▁▁█"


class TestScenarioReport:
    def test_document_shape(self):
        obs, metrics = _introspected_run()
        report = build_scenario_report(
            metrics.to_dict(),
            timeline=obs.timeline,
            provenance=obs.provenance,
            violations=metrics.violations,
        )
        assert report["scenario"] == "steady-state"
        assert report["headline"]["detections"] == metrics.detections
        assert report["timeline"]["rounds"] > 0
        assert report["freshness"]["detections"] > 0
        assert "wall_timings" not in report  # no registry passed

    def test_default_report_is_byte_stable(self):
        def build():
            obs, metrics = _introspected_run()
            return json.dumps(
                build_scenario_report(
                    metrics.to_dict(),
                    timeline=obs.timeline,
                    provenance=obs.provenance,
                ),
                sort_keys=True,
            )

        assert build() == build()

    def test_wall_timings_only_with_traced_registry(self):
        obs, metrics = _introspected_run(trace=True)
        report = build_scenario_report(
            metrics.to_dict(),
            timeline=obs.timeline,
            provenance=obs.provenance,
            registry=obs.registry,
        )
        assert "wall_timings" in report
        assert "poll_batch" in report["wall_timings"]
        # …and renders as its own clearly-labeled section
        assert "nondeterministic" in render_report_terminal(report)

    def test_phase_timings_none_without_spans(self):
        assert phase_timings(MetricsRegistry()) is None

    def test_renderers_cover_every_timeline_series(self):
        obs, metrics = _introspected_run()
        report = build_scenario_report(
            metrics.to_dict(),
            timeline=obs.timeline,
            provenance=obs.provenance,
        )
        for rendered in (
            render_report_terminal(report),
            render_report_markdown(report),
        ):
            for series in TIMELINE_SERIES:
                assert series in rendered
            for component in ("staleness", "path_delay", "freshness"):
                assert component in rendered

    def test_markdown_renderer_emits_tables(self):
        obs, metrics = _introspected_run()
        report = build_scenario_report(
            metrics.to_dict(),
            timeline=obs.timeline,
            provenance=obs.provenance,
        )
        rendered = render_report_markdown(report)
        assert rendered.startswith("# Run report — steady-state")
        assert "| component | p50 |" in rendered


class TestSweepReport:
    def _document(self):
        obs, metrics = _introspected_run()
        scenario_report = build_scenario_report(
            metrics.to_dict(),
            timeline=obs.timeline,
            provenance=obs.provenance,
        )
        return build_sweep_report(
            "demo-sweep",
            [
                {
                    "key": "steady-state/base/0",
                    "scenario": "steady-state",
                    "variant": "base",
                    "seed": 0,
                    "status": "ok",
                    "report": scenario_report,
                },
                {
                    "key": "steady-state/base/1",
                    "scenario": "steady-state",
                    "variant": "base",
                    "seed": 1,
                    "status": "failed",
                    "report": None,
                },
            ],
        )

    def test_counts_and_rows(self):
        document = self._document()
        assert document["counts"] == {"total": 2, "reported": 1}
        rendered = render_sweep_report_terminal(document)
        assert "demo-sweep" in rendered
        assert "1/2" in rendered
        assert "steady-state/base/1" in rendered  # failed row present

    def test_markdown_table(self):
        rendered = render_sweep_report_markdown(self._document())
        assert "| task | status |" in rendered
        assert rendered.count("\n| steady-state/base/") == 2
