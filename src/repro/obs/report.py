"""Run reports: one document per run, renderable three ways.

``repro report`` (see :mod:`repro.cli`) runs a scenario — or a sweep
grid — with the full introspection plane attached
(:meth:`repro.obs.Observability.introspected`) and reduces the run
into a single report document combining:

* the gated scenario metrics (exactly ``ScenarioMetrics.to_dict()``),
* the per-round registry timeline (:mod:`repro.obs.timeline`) with
  delta sparklines,
* the update-freshness percentiles (:mod:`repro.obs.provenance`),
* invariant-monitor violations (when monitoring ran), and
* optionally the span-derived per-phase wall timings — the one
  nondeterministic leg, segregated under ``wall_timings`` and opt-in,
  so a default report is byte-identical across invocations.

This module is pure reduction + rendering: builders take plain dicts
and observer objects, renderers return strings — nothing here prints
(the ruff ``T20`` no-print rule covers this file like the rest of
``src/repro``; only the CLI writes to stdout) and nothing here runs
scenarios, so the runner never imports it.
"""

from __future__ import annotations

import math

from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import COMPONENTS, ProvenanceTracker
from repro.obs.timeline import TimelineSampler

__all__ = [
    "TIMELINE_SERIES",
    "build_scenario_report",
    "build_sweep_report",
    "phase_timings",
    "render_report_markdown",
    "render_report_terminal",
    "render_sweep_report_markdown",
    "render_sweep_report_terminal",
    "sparkline",
]


#: Registry series the rendered timeline section always shows, in
#: order — the activity profile of a run at a glance.  Series absent
#: from the sampler render as flat zero (they still answer "when?":
#: never).
TIMELINE_SERIES: tuple[str, ...] = (
    "polls",
    "maintenance_messages",
    "diff_messages",
    "retransmissions",
    "messages_dropped",
    "repair_diffs",
    "queue_drops",
    "polls_shed",
)

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float] | tuple[float, ...]) -> str:
    """A unicode mini-chart of ``values`` (resampled to 48 columns)."""
    width = 48
    if not values:
        return ""
    series = [0.0 if v is None or math.isnan(v) else float(v) for v in values]
    if len(series) > width:
        # Bucket-sum resampling: activity mass is preserved, so spikes
        # stay visible however long the run was.
        chunk = len(series) / width
        series = [
            sum(series[int(i * chunk):int((i + 1) * chunk)] or [0.0])
            for i in range(width)
        ]
    top = max(series)
    if top <= 0:
        return _SPARK_LEVELS[0] * len(series)
    scale = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[min(scale, int(round(v / top * scale)))]
        for v in series
    )


def phase_timings(registry: MetricsRegistry) -> dict | None:
    """Span-derived per-phase wall-clock summary (None untraced).

    Wall clocks are inherently nondeterministic — callers must keep
    this out of any byte-compared document (the report builders file
    it under the segregated ``wall_timings`` key).
    """
    metric = registry.get("phase_wall_seconds")
    if metric is None or not metric.children():
        return None
    out: dict[str, dict] = {}
    for key, child in sorted(metric.children().items()):
        phase = dict(key).get("phase", "?")
        count = child.count
        out[phase] = {
            "count": count,
            "total_seconds": child.sum,
            "mean_seconds": child.sum / count if count else None,
            "max_seconds": child.max if count else None,
        }
    return out


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def build_scenario_report(
    metrics: dict,
    timeline: TimelineSampler | None = None,
    provenance: ProvenanceTracker | None = None,
    violations: list | None = None,
    registry: MetricsRegistry | None = None,
) -> dict:
    """Reduce one scenario run into the report document.

    ``metrics`` is ``ScenarioMetrics.to_dict()``.  Everything in the
    returned dict is deterministic (same spec + seed ⇒ same bytes)
    except ``wall_timings``, which only appears when ``registry``
    carries span-derived phase histograms — pass ``registry=None``
    for a byte-stable report.
    """
    report: dict = {
        "scenario": metrics.get("scenario"),
        "variant": metrics.get("variant"),
        "seed": metrics.get("seed"),
        "headline": {
            "detections": metrics.get("detections"),
            "mean_detection_delay": metrics.get("mean_detection_delay"),
            "legacy_detection_delay": metrics.get("legacy_detection_delay"),
            "mean_polls_per_min": metrics.get("mean_polls_per_min"),
            "legacy_polls_per_min": metrics.get("legacy_polls_per_min"),
        },
        "metrics": metrics,
        "timeline": timeline.to_dict() if timeline is not None else None,
        "freshness": (
            provenance.to_dict() if provenance is not None else None
        ),
        "violations": list(violations or []),
    }
    if registry is not None:
        timings = phase_timings(registry)
        if timings:
            report["wall_timings"] = timings
    return report


def build_sweep_report(name: str, tasks: list[dict]) -> dict:
    """Merge per-task report documents into one sweep report.

    ``tasks`` entries carry ``key``/``scenario``/``variant``/``seed``/
    ``status`` plus ``report`` (a :func:`build_scenario_report` dict,
    or ``None`` for failed tasks) — enumeration order, like every
    sweep artifact.
    """
    ok = sum(1 for task in tasks if task.get("report") is not None)
    return {
        "sweep": name,
        "counts": {"total": len(tasks), "reported": ok},
        "tasks": tasks,
    }


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt(value, digits: int = 3) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        return f"{value:.{digits}f}"
    return str(value)


def _timeline_rows(timeline: dict | None) -> list[tuple[str, str, str]]:
    """(series, sparkline, total) rows for the timeline section."""
    series = (timeline or {}).get("series", {})
    times = (timeline or {}).get("times", [])
    rows = []
    for name in TIMELINE_SERIES:
        column = series.get(name)
        if column is None:
            deltas = [0.0] * len(times)
            total = 0.0
        else:
            deltas = column["deltas"]
            total = column["cumulative"][-1] if column["cumulative"] else 0.0
        rows.append((name, sparkline(deltas), _fmt(total, 0)))
    return rows


def _counter_items(metrics: dict) -> list[tuple[str, int]]:
    """The integer-valued scalar metrics, in serialization order."""
    skip = {"seed"}
    return [
        (key, value)
        for key, value in metrics.items()
        if isinstance(value, int)
        and not isinstance(value, bool)
        and key not in skip
    ]


def _report_sections(report: dict, markdown: bool) -> list[str]:
    """Shared section assembly for the markdown/terminal renderers."""
    def table(headers: list[str], rows: list[list[str]]) -> str:
        if markdown:
            lines = [
                "| " + " | ".join(headers) + " |",
                "|" + "|".join(" --- " for _ in headers) + "|",
            ]
            lines += ["| " + " | ".join(row) + " |" for row in rows]
            return "\n".join(lines)
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in rows))
            if rows
            else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
            "  ".join("-" * widths[i] for i in range(len(headers))),
        ]
        lines += [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            for row in rows
        ]
        return "\n".join(lines)

    def heading(level: int, text: str) -> str:
        if markdown:
            return "#" * level + " " + text
        underline = "=" if level == 1 else "-"
        return text + "\n" + underline * len(text)

    scenario = report.get("scenario", "?")
    variant = report.get("variant", "base")
    seed = report.get("seed", 0)
    sections = [
        heading(1, f"Run report — {scenario} [{variant}] (seed {seed})")
    ]

    headline = report.get("headline", {})
    sections.append(
        heading(2, "Headline")
        + "\n"
        + table(
            ["metric", "value"],
            [[key, _fmt(value)] for key, value in headline.items()],
        )
    )

    freshness = report.get("freshness")
    if freshness is not None:
        percentiles = freshness.get("percentiles", {})
        rows = []
        for component in COMPONENTS:
            stats = percentiles.get(component, {})
            rows.append(
                [
                    component,
                    _fmt(stats.get("p50")),
                    _fmt(stats.get("p95")),
                    _fmt(stats.get("p99")),
                    _fmt(stats.get("max")),
                    _fmt(stats.get("mean")),
                    _fmt(stats.get("count")),
                ]
            )
        sections.append(
            heading(
                2,
                "Freshness (publish → subscriber, seconds, "
                f"{freshness.get('detections', 0)} detections)",
            )
            + "\n"
            + table(
                ["component", "p50", "p95", "p99", "max", "mean", "count"],
                rows,
            )
        )

    timeline = report.get("timeline")
    if timeline is not None:
        rows = [
            [name, spark or _SPARK_LEVELS[0], total]
            for name, spark, total in _timeline_rows(timeline)
        ]
        stride = timeline.get("stride", 1)
        rounds = timeline.get("rounds", 0)
        retained = len(timeline.get("times", []))
        sections.append(
            heading(
                2,
                f"Timeline ({rounds} rounds, {retained} samples "
                f"retained at stride {stride})",
            )
            + "\n"
            + table(["series", "per-round activity", "total"], rows)
        )

    metrics = report.get("metrics", {})
    counter_rows = [
        [key, str(value)] for key, value in _counter_items(metrics)
    ]
    if counter_rows:
        sections.append(
            heading(2, "Counters")
            + "\n"
            + table(["counter", "value"], counter_rows)
        )

    violations = report.get("violations", [])
    lines = [heading(2, f"Invariant violations ({len(violations)})")]
    for entry in violations:
        lines.append(
            f"- {entry.get('invariant', '?')} at "
            f"t={_fmt(entry.get('at'), 0)}: {entry.get('detail', '')}"
        )
    if not violations:
        lines.append("none (or monitors not attached)")
    sections.append("\n".join(lines))

    timings = report.get("wall_timings")
    if timings:
        rows = [
            [
                phase,
                _fmt(stats.get("count")),
                _fmt(stats.get("total_seconds"), 6),
                _fmt(stats.get("mean_seconds"), 6),
                _fmt(stats.get("max_seconds"), 6),
            ]
            for phase, stats in timings.items()
        ]
        sections.append(
            heading(2, "Phase timings (wall clock — nondeterministic)")
            + "\n"
            + table(
                ["phase", "count", "total (s)", "mean (s)", "max (s)"],
                rows,
            )
        )
    return sections


def render_report_markdown(report: dict) -> str:
    """One scenario-run report as GitHub-flavored markdown."""
    return "\n\n".join(_report_sections(report, markdown=True)) + "\n"


def render_report_terminal(report: dict) -> str:
    """One scenario-run report as aligned plain text."""
    return "\n\n".join(_report_sections(report, markdown=False)) + "\n"


def _sweep_sections(sweep_report: dict, markdown: bool) -> str:
    name = sweep_report.get("sweep", "?")
    counts = sweep_report.get("counts", {})
    title = (
        f"Sweep report — {name} "
        f"({counts.get('reported', 0)}/{counts.get('total', 0)} "
        "tasks reported)"
    )
    rows = []
    for task in sweep_report.get("tasks", []):
        report = task.get("report")
        if report is None:
            rows.append(
                [task.get("key", "?"), task.get("status", "failed")]
                + ["-"] * 5
            )
            continue
        freshness = (report.get("freshness") or {}).get("percentiles", {})
        total = freshness.get("freshness", {})
        retrans = (
            ((report.get("timeline") or {}).get("series", {}))
            .get("retransmissions", {})
            .get("cumulative", [])
        )
        rows.append(
            [
                task.get("key", "?"),
                task.get("status", "ok"),
                _fmt(report.get("headline", {}).get("detections")),
                _fmt(total.get("p50")),
                _fmt(total.get("p95")),
                _fmt(total.get("p99")),
                _fmt(retrans[-1] if retrans else 0.0, 0),
            ]
        )
    headers = [
        "task", "status", "detections",
        "freshness p50", "p95", "p99", "retransmits",
    ]
    if markdown:
        lines = [
            f"# {title}",
            "",
            "| " + " | ".join(headers) + " |",
            "|" + "|".join(" --- " for _ in headers) + "|",
        ]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
        return "\n".join(lines) + "\n"
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        title,
        "=" * len(title),
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    lines += [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def render_sweep_report_markdown(sweep_report: dict) -> str:
    """A sweep's merged report as a markdown summary table."""
    return _sweep_sections(sweep_report, markdown=True)


def render_sweep_report_terminal(sweep_report: dict) -> str:
    """A sweep's merged report as aligned plain text."""
    return _sweep_sections(sweep_report, markdown=False)
