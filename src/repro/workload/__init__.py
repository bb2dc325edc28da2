"""Workload models: the Cornell RSS survey, reconstructed.

The paper's simulations and deployment are "driven by real-life RSS
traces collected at Cornell" (§5): 158 clients, ~62 000 requests, 667
feeds at the department gateway, plus active polling of ~100 000 feeds
from syndic8.com.  The traces themselves are not available, but the
paper states every distribution the evaluation consumes:

* channel popularity follows **Zipf with exponent 0.5** (§5);
* update intervals are **widely distributed** — ≈10 % of channels
  change within an hour, ≈50 % never changed during 5 days of polling
  and are assigned a one-week interval (§5.1);
* the average update touches **17 lines / 6.8 % of content** [19].

This package regenerates equivalent workloads from those published
parameters:

* :mod:`repro.workload.zipf` — Zipf popularity and subscriber counts;
* :mod:`repro.workload.rss_survey` — the survey's update-interval and
  content-size distributions;
* :mod:`repro.workload.trace` — full subscription traces binding
  clients to channels.
"""

from repro.workload.rss_survey import SurveyDistributions
from repro.workload.trace import SubscriptionTrace, generate_trace
from repro.workload.zipf import zipf_popularity

__all__ = [
    "SubscriptionTrace",
    "SurveyDistributions",
    "generate_trace",
    "zipf_popularity",
]
