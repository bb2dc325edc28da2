"""Corona: a high-performance publish-subscribe system for the Web.

A complete, from-scratch reproduction of *Corona* (Ramasubramanian,
Peterson, Sirer — NSDI 2006): cooperative polling over a Pastry-style
structured overlay, with polling bandwidth allocated optimally by the
Honeycomb numerical optimizer.

Quickstart::

    from repro import CoronaConfig, CoronaSystem, WebServerFarm

    farm = WebServerFarm(seed=1)
    farm.host("http://news.example/feed.rss", update_interval=600.0)

    config = CoronaConfig(polling_interval=300.0, scheme="lite")
    corona = CoronaSystem(n_nodes=32, config=config, fetcher=farm)
    corona.subscribe("http://news.example/feed.rss", client="alice")

    now = 0.0
    for step in range(24):
        now += 150.0
        corona.poll_due(now)
        if step % 4 == 3:
            corona.run_maintenance_round(now)
    print(corona.detections)

Package map (one subpackage per subsystem; see README.md, "Layout"):

========================  ==============================================
``repro.core``            Corona itself: channels, objectives (Table 1),
                          cooperative polling, maintenance, dissemination
``repro.honeycomb``       the optimization toolkit (solver, clusters,
                          decentralized aggregation)
``repro.overlay``         Pastry-style structured overlay
``repro.diffengine``      tolerant HTML/XML diffing with core-content
                          extraction
``repro.feeds``           RSS/Atom formats and synthetic feeds
``repro.im``              instant-messaging front end
``repro.workload``        Cornell-survey workload models
``repro.simulation``      web servers, event engine, macro & deployment
                          simulators, legacy-RSS baseline
``repro.analysis``        result statistics and table rendering
========================  ==============================================
"""

from repro.core.config import CoronaConfig
from repro.core.node import CoronaNode, DetectionEvent, FetchResult
from repro.core.objectives import LegacyRss, Scheme
from repro.core.system import CoronaSystem
from repro.honeycomb.solver import HoneycombSolver
from repro.overlay.network import OverlayNetwork
from repro.simulation.webserver import WebServerFarm
from repro.workload.trace import generate_trace

__version__ = "1.0.0"

__all__ = [
    "CoronaConfig",
    "CoronaNode",
    "CoronaSystem",
    "DetectionEvent",
    "FetchResult",
    "HoneycombSolver",
    "LegacyRss",
    "OverlayNetwork",
    "Scheme",
    "WebServerFarm",
    "generate_trace",
    "__version__",
]
