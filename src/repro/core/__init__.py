"""Corona core: the paper's primary contribution.

This package implements the Corona publish-subscribe system proper —
everything above the overlay and below the user interface:

* :mod:`repro.core.config` — system-wide configuration;
* :mod:`repro.core.channel` — channels (URL topics) and the per-channel
  statistics owners maintain (subscribers, content size, estimated
  update interval);
* :mod:`repro.core.objectives` — the five optimization schemes of
  Table 1 (Corona-Lite/Fast/Fair/Fair-Sqrt/Fair-Log) expressed as
  Honeycomb tradeoff functions;
* :mod:`repro.core.subscription` — subscription registry with
  owner-replica state transfer;
* :mod:`repro.core.update` — content versions and cached content;
* :mod:`repro.core.polling` — cooperative polling schedules;
* :mod:`repro.core.maintenance` — the periodic level raise/lower
  protocol along the wedge DAG;
* :mod:`repro.core.dissemination` — diff fan-out inside a wedge;
* :mod:`repro.core.node` — a full protocol node;
* :mod:`repro.core.system` — the Corona cloud assembled end to end.
"""

from repro.core.channel import Channel, ChannelStats
from repro.core.config import CoronaConfig
from repro.core.node import CoronaNode
from repro.core.objectives import (
    Scheme,
    build_problem,
    detection_time,
    scheme_by_name,
)
from repro.core.subscription import SubscriptionRegistry
from repro.core.system import CoronaSystem
from repro.core.update import VersionClock

__all__ = [
    "Channel",
    "ChannelStats",
    "CoronaConfig",
    "CoronaNode",
    "CoronaSystem",
    "Scheme",
    "SubscriptionRegistry",
    "VersionClock",
    "build_problem",
    "detection_time",
    "scheme_by_name",
]
