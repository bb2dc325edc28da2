"""Layer-wrap table, span recorder and per-layer metric definitions.

The program is measured from outside: a traced rep patches timing
wrappers around each layer's public entry points, *where the name is
looked up* (``repro.core.node.diff_lines``, not
``repro.diffengine.differ.diff_lines``), and nothing under ``src/``
knows.  Timed reps never import this module.

A span is (name, start, end, parent); all spans of a rep share the
rep's run id, stored once in the dump.  Self time is a span's
duration minus its children's.  A target that no longer resolves is
reported under ``unresolved`` and every metric that needs it reads
``None`` — never a crash, so a refactor shows up as a hole in the
ledger instead of a broken benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

_clock = time.monotonic


class Recorder:
    """Spans as four parallel lists; appended to, never searched."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.current = -1
        #: Counts taken at the same boundaries (bytes in, diffs out).
        self.counters: dict[str, int] = defaultdict(int)
        #: "module:attr" of targets that did not resolve, and the span
        #: names that are therefore incomplete.
        self.unresolved: list[str] = []
        self.unresolved_spans: set[str] = set()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: float, end: float) -> None:
        """A top-level span taken from stamps rather than a wrapper."""
        self.name_id.append(self.intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(-1)

    def wrap(self, name: str, fn: Callable, observe: Callable | None):
        name_ids, starts, ends, parents = (
            self.name_id, self.start, self.end, self.parent,
        )
        nid = self.intern(name)
        counters = self.counters

        def traced(*args, **kwargs):
            me = len(starts)
            name_ids.append(nid)
            parents.append(self.current)
            ends.append(0.0)
            starts.append(_clock())
            self.current = me
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[me] = _clock()
                self.current = parents[me]
            if observe is not None:
                observe(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def to_dict(self, run_id: str) -> dict[str, Any]:
        return {
            "run_id": run_id,
            "names": self.names,
            "name": self.name_id,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counters": dict(self.counters),
            "unresolved": self.unresolved,
            "unresolved_spans": sorted(self.unresolved_spans),
        }


# ----------------------------------------------------------------------
# the wrap table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    span: str  # "<layer>.<what>"; targets sharing a span are one group
    where: str  # module in which the program looks the name up
    attr: str  # "function" or "Class.method"
    observe: Callable | None = None


def _bytes_in(counters, args, _result) -> None:
    counters["bytes_in"] += len(args[1])


def _diff_emitted(counters, _args, result) -> None:
    if result is not None:
        counters["diffs_emitted"] += 1


def _events(counters, _args, result) -> None:
    counters["events"] += result


_SYSTEM = "repro.core.system"
_NODE = "repro.core.node"
_FARM = "repro.simulation.webserver"
_NETWORK = "repro.overlay.network"
_AGGREGATION = "repro.honeycomb.aggregation"
_MACRO = "repro.simulation.macro"

#: Methods are patched on their class (through the public package
#: where there is one); functions bound by ``from x import f`` are
#: patched in the importing module, which is where calls find them.
TARGETS: tuple[Target, ...] = (
    Target("scenarios.execute", "repro.scenarios", "ScenarioRunner.run"),
    Target("engine.loop", "repro.simulation.engine",
           "EventEngine.run_until", _events),
    Target("workload.trace", "repro.scenarios.runner", "generate_trace"),
    Target("workload.trace", "repro.workload.trace", "generate_trace"),
    Target("webserver.host", _FARM, "WebServerFarm.host"),
    Target("webserver.fetch", _FARM, "WebServerFarm.fetch"),
    Target("webserver.advance", _FARM, "WebServerFarm.advance_to"),
    Target("overlay.build", _NETWORK, "OverlayNetwork.build"),
    Target("overlay.add_node", _NETWORK, "OverlayNetwork.add_node"),
    Target("overlay.remove_nodes", _NETWORK, "OverlayNetwork.remove_nodes"),
    Target("overlay.wedge_plan", _SYSTEM, "wedge_recipients"),
    Target("core.system_init", _SYSTEM, "CoronaSystem.__init__"),
    Target("core.subscribe", _SYSTEM, "CoronaSystem.subscribe"),
    Target("core.poll_due", _SYSTEM, "CoronaSystem.poll_due"),
    Target("core.maintenance", _SYSTEM, "CoronaSystem.run_maintenance_round"),
    Target("core.churn", _SYSTEM, "CoronaSystem.join_nodes"),
    Target("core.churn", _SYSTEM, "CoronaSystem.crash_nodes"),
    Target("core.churn", _SYSTEM, "CoronaSystem.recover_nodes"),
    Target("core.churn", _SYSTEM, "CoronaSystem.heal_partition"),
    Target("core.deliver_plan", _SYSTEM, "deliver_plan"),
    Target("core.execute_poll", _NODE, "CoronaNode.execute_poll",
           _diff_emitted),
    Target("core.handle_diff", _NODE, "CoronaNode.handle_diff"),
    Target("core.optimize", _NODE, "CoronaNode.run_optimization"),
    Target("diffengine.extract", "repro.diffengine.extractor",
           "CoreContentExtractor.core_lines", _bytes_in),
    Target("diffengine.tokenize", "repro.diffengine.extractor", "tokenize"),
    Target("diffengine.diff", _NODE, "diff_lines"),
    Target("honeycomb.aggregate", _AGGREGATION,
           "DecentralizedAggregator.refresh_locals"),
    Target("honeycomb.aggregate", _AGGREGATION,
           "DecentralizedAggregator.run_round"),
    Target("honeycomb.solve", "repro.honeycomb.solver",
           "HoneycombSolver.solve"),
    Target("faults.transmit", "repro.faults", "FaultPlane.transmit"),
    Target("macro.init", _MACRO, "MacroSimulator.__init__"),
    Target("macro.run", _MACRO, "MacroSimulator.run"),
)


def install(recorder: Recorder, targets=TARGETS) -> None:
    """Patch every resolvable target; list the rest as unresolved."""
    for target in targets:
        *path, leaf = target.attr.split(".")
        try:
            owner = importlib.import_module(target.where)
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, leaf)
        except (ImportError, AttributeError):
            recorder.unresolved.append(f"{target.where}:{target.attr}")
            recorder.unresolved_spans.add(target.span)
            continue
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                recorder.wrap(target.span, raw.__func__, target.observe)
            )
        else:
            wrapped = recorder.wrap(target.span, raw, target.observe)
        setattr(owner, leaf, wrapped)


# ----------------------------------------------------------------------
# reduction: one rep's spans -> per-name seconds and calls
# ----------------------------------------------------------------------
class Unresolved(Exception):
    """A metric needs a span whose target did not resolve."""


class Reduced:
    """What the PER_LAYER formulas read: one traced rep, reduced.

    ``dump`` is :meth:`Recorder.to_dict`; ``counts`` are the run's
    registry counts as the child reported them.
    """

    def __init__(self, dump: dict[str, Any], counts: dict[str, float]):
        self._names: list[str] = dump["names"]
        self._name_id: list[int] = dump["name"]
        self._parent: list[int] = dump["parent"]
        self._duration = [
            end - start for start, end in zip(dump["start"], dump["end"])
        ]
        self._missing = set(dump["unresolved_spans"])
        self._counters = defaultdict(int, dump["counters"])
        self.counts = counts
        child_seconds = [0.0] * len(self._name_id)
        for index, up in enumerate(self._parent):
            if up >= 0:
                child_seconds[up] += self._duration[index]
        self._total: dict[str, float] = defaultdict(float)
        self._self: dict[str, float] = defaultdict(float)
        self._calls: dict[str, int] = defaultdict(int)
        for index, nid in enumerate(self._name_id):
            name = self._names[nid]
            self._calls[name] += 1
            self._self[name] += self._duration[index] - child_seconds[index]
            # Inclusive time counts a group's outermost span only
            # (heal_partition may call recover_nodes: both core.churn).
            if not self._under(index, nid):
                self._total[name] += self._duration[index]

    def _under(self, index: int, ancestor_id: int) -> bool:
        up = self._parent[index]
        while up >= 0:
            if self._name_id[up] == ancestor_id:
                return True
            up = self._parent[up]
        return False

    def _resolved(self, *names: str) -> None:
        for name in names:
            if name in self._missing:
                raise Unresolved(name)

    def seconds(self, name: str) -> float:
        """Inclusive seconds of the span group ``name``."""
        self._resolved(name)
        return self._total[name]

    def self_seconds(self, name: str) -> float:
        self._resolved(name)
        return self._self[name]

    def calls(self, name: str) -> int:
        self._resolved(name)
        return self._calls[name]

    def counter(self, key: str, taken_at: str) -> int:
        """A count an ``observe`` hook took at the ``taken_at`` span."""
        self._resolved(taken_at)
        return self._counters[key]

    def outside(self, name: str, ancestor: str) -> tuple[float, int]:
        """Seconds and calls of ``name`` spans not under ``ancestor``."""
        self._resolved(name, ancestor)
        if ancestor not in self._names:
            return self._total[name], self._calls[name]
        ancestor_id = self._names.index(ancestor)
        seconds, calls = 0.0, 0
        for index, nid in enumerate(self._name_id):
            if self._names[nid] == name and not self._under(
                index, ancestor_id
            ):
                seconds += self._duration[index]
                calls += 1
        return seconds, calls

    def all_self_seconds(self) -> float:
        return sum(self._self.values())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _seconds(name: str):
    return lambda r: r.seconds(name)


def _self(name: str):
    return lambda r: r.self_seconds(name)


def _calls(name: str):
    return lambda r: r.calls(name)


def _count(name: str):
    return lambda r: r.counts[name]


def _churn(r: Reduced) -> tuple[float, int]:
    """Overlay mutation after the bulk build: joins plus removals."""
    seconds, calls = r.outside("overlay.add_node", "overlay.build")
    return (
        seconds + r.seconds("overlay.remove_nodes"),
        calls + r.calls("overlay.remove_nodes"),
    )


def _bytes(r: Reduced) -> int:
    return r.counter("bytes_in", "diffengine.extract")


def _solve_hit_ratio(r: Reduced) -> float:
    hits = (
        r.counts["solver_work_memo_hits"]
        + r.counts["solver_work_shared_hits"]
    )
    return _ratio(hits, hits + r.counts["solver_work_problems_solved"])


#: metric -> formula over one traced rep.  Units and directions are
#: declared once, in BENCHMARK.json; ``trace.*`` and
#: ``scenarios.verify_overhead_ratio`` need the untraced reps too and
#: are computed in run.py.
PER_LAYER: dict[str, Callable[[Reduced], Any]] = dict((
    ("cli.import_s", _seconds("cli.import")),
    ("cli.serialize_s", _seconds("cli.serialize")),
    ("workload.trace_s", _seconds("workload.trace")),
    ("webserver.host_s", _seconds("webserver.host")),
    ("webserver.fetch_s", _seconds("webserver.fetch")),
    ("webserver.fetch_calls", _calls("webserver.fetch")),
    ("webserver.advance_s", _seconds("webserver.advance")),
    ("overlay.build_s", _seconds("overlay.build")),
    ("overlay.add_node_calls", _calls("overlay.add_node")),
    ("overlay.churn_s", lambda r: _churn(r)[0]),
    ("overlay.churn_ops", lambda r: _churn(r)[1]),
    ("overlay.wedge_plan_s", _seconds("overlay.wedge_plan")),
    ("overlay.wedge_plan_calls", _calls("overlay.wedge_plan")),
    ("core.system_init_self_s", _self("core.system_init")),
    ("core.subscribe_s", _seconds("core.subscribe")),
    ("core.poll_due_self_s", _self("core.poll_due")),
    ("core.execute_poll_self_s", _self("core.execute_poll")),
    ("core.handle_diff_s", _seconds("core.handle_diff")),
    ("core.handle_diff_calls", _calls("core.handle_diff")),
    ("core.deliver_plan_s", _seconds("core.deliver_plan")),
    ("core.maintenance_self_s", _self("core.maintenance")),
    ("core.optimize_s", _seconds("core.optimize")),
    ("core.churn_s", _seconds("core.churn")),
    ("core.polls", _count("polls")),
    ("core.detections", _count("detections")),
    ("core.poll_yield",
     lambda r: _ratio(r.counts["detections"], r.counts["polls"])),
    ("core.diff_messages", _count("diff_messages")),
    ("core.maintenance_messages", _count("maintenance_messages")),
    ("diffengine.extract_self_s", _self("diffengine.extract")),
    ("diffengine.tokenize_s", _seconds("diffengine.tokenize")),
    ("diffengine.extract_calls", _calls("diffengine.extract")),
    ("diffengine.bytes_in", _bytes),
    ("diffengine.ns_per_byte",
     lambda r: _ratio(r.seconds("diffengine.extract") * 1e9, _bytes(r))),
    ("diffengine.diff_s", _seconds("diffengine.diff")),
    ("diffengine.diff_calls", _calls("diffengine.diff")),
    ("diffengine.changed_ratio",
     lambda r: _ratio(r.counter("diffs_emitted", "core.execute_poll"),
                      r.calls("diffengine.extract"))),
    ("honeycomb.aggregate_s", _seconds("honeycomb.aggregate")),
    ("honeycomb.solve_s", _seconds("honeycomb.solve")),
    ("honeycomb.solve_calls", _calls("honeycomb.solve")),
    ("honeycomb.solve_hit_ratio", _solve_hit_ratio),
    ("honeycomb.summaries_rebuilt", _count("work_summaries_rebuilt")),
    ("honeycomb.cluster_merges", _count("work_cluster_merges")),
    ("faults.transmit_s", _seconds("faults.transmit")),
    ("faults.transmit_calls", _calls("faults.transmit")),
    ("faults.messages_dropped", _count("messages_dropped")),
    ("faults.retransmissions", _count("retransmissions")),
    ("faults.queue_drops", _count("queue_drops")),
    ("faults.polls_shed", _count("polls_shed")),
    ("faults.failed_polls", _count("failed_polls")),
    ("faults.repair_diffs", _count("repair_diffs")),
    ("macro.init_s", _seconds("macro.init")),
    ("macro.run_self_s", _self("macro.run")),
    ("engine.loop_self_s", _self("engine.loop")),
    ("engine.events", lambda r: r.counter("events", "engine.loop")),
    ("scenarios.execute_self_s", _self("scenarios.execute")),
))


def per_layer_metrics(reduced: Reduced) -> dict[str, Any]:
    """Every PER_LAYER metric of one traced rep (None if unresolved)."""
    out: dict[str, Any] = {}
    for name, formula in PER_LAYER.items():
        try:
            out[name] = formula(reduced)
        except Unresolved:
            out[name] = None
    return out
