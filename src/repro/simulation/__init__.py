"""Simulation substrate: everything the paper ran on real infrastructure.

The paper evaluates Corona against live web servers from PlanetLab;
this package supplies the simulated equivalents:

* :mod:`repro.simulation.engine` — a discrete-event core (time-ordered
  heap, cancellable events);
* :mod:`repro.simulation.latency` — a wide-area message delay model;
* :mod:`repro.simulation.webserver` — exogenous content servers:
  synthetic feeds with survey-calibrated update processes, conditional
  GET semantics, per-source rate limiting, flash-crowd hooks;
* :mod:`repro.simulation.metrics` — the bucketed time series the
  event-driven experiments collate;
* :mod:`repro.simulation.macro` — the scalable hybrid simulator behind
  the §5.1 experiments (1024 nodes, 20 000 channels, 10⁶ subs);
* :mod:`repro.simulation.deployment` — the message-level simulator
  behind the §5.2 PlanetLab experiments (80 full-protocol nodes), and
  the subscribe → maintain → poll loop it shares with the scenario
  runner (:mod:`repro.scenarios.runner`).
"""

from repro.simulation.engine import EventEngine
from repro.simulation.latency import LatencyModel
from repro.simulation.metrics import TimeSeries
from repro.simulation.webserver import WebServerFarm

__all__ = [
    "EventEngine",
    "LatencyModel",
    "TimeSeries",
    "WebServerFarm",
]
