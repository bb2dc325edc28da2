"""Seeded chaos schedules: one integer → one fault timeline.

:func:`chaos_timeline` expands a chaos seed into a deterministic
scenario event timeline drawn from the recovery-capable fault
families — loss bursts, partition+heal pairs, crash+recover waves,
correlated manager failures (each followed by a matching recovery)
and link degradations (congested, slow or asymmetrically lossy link
sets that lift their own imposition at the window's end).
The expansion is pure: the same ``(seed, horizon, n_nodes)`` always
produces the same timeline, byte for byte, so a chaos run is exactly
as diffable and CI-gateable as a hand-written scenario — ``repro
scenario run chaos-soak --variant chaos-1`` reproduces bit-identical
metrics on every machine.

Timelines are emitted as plain JSON-shaped event dicts (the format
:meth:`ScenarioSpec.from_dict` and variant ``events`` overrides
accept) rather than event dataclasses, keeping this module free of
scenario imports — the scenario package's builtins import *us*.

Structural guarantees, matched to spec validation:

* every incident lands on a 30 s grid inside a quiet head/tail, so
  the cloud has converged before chaos starts and has time to
  re-converge before collation;
* partition names are unique per timeline and every partition has a
  strictly later heal;
* every crash wave is followed by a recovery of the same count, and
  total nominal crashes stay at or below ``n_nodes // 4`` — the
  timeline always leaves survivors.
"""

from __future__ import annotations

import random

__all__ = ["chaos_timeline", "CHAOS_FAMILIES"]

#: Incident families a chaos seed draws from.  ``link`` incidents
#: degrade a seeded fraction of the population's links (congestion,
#: slow links or asymmetric loss via the per-link table) and heal at
#: the window's end, like every other family.
CHAOS_FAMILIES = ("loss", "partition", "crash", "managers", "link")

#: Event times snap to this grid (seconds) — coarse enough to read,
#: fine enough that timelines differ meaningfully across seeds.
_GRID = 30.0


def _quantize(value: float) -> float:
    return round(value / _GRID) * _GRID


def chaos_timeline(
    seed: int,
    horizon: float,
    n_nodes: int,
    incidents: int | None = None,
) -> list[dict]:
    """Expand ``seed`` into a deterministic fault+recovery timeline.

    Returns JSON-shaped event dicts sorted by firing time.
    ``incidents`` overrides the drawn incident count (default 3–5).
    String seeding hashes via SHA-512, so the expansion is stable
    across processes and platforms.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if n_nodes < 8:
        raise ValueError("chaos timelines need n_nodes >= 8")
    rng = random.Random(f"chaos-{seed}")
    head = _quantize(min(600.0, horizon * 0.2))
    tail = _quantize(min(600.0, horizon * 0.2))
    window_end = horizon - tail
    if window_end <= head + _GRID:
        raise ValueError("horizon too short for a chaos timeline")
    count = incidents if incidents is not None else rng.randint(3, 5)
    if count < 1:
        raise ValueError("incident count must be >= 1")
    crash_budget = max(2, n_nodes // 4)
    crashes_used = 0
    partition_index = 0
    events: list[dict] = []
    for _ in range(count):
        family = rng.choice(CHAOS_FAMILIES)
        at = _quantize(rng.uniform(head, window_end - _GRID))
        if family in ("crash", "managers") and (
            crash_budget - crashes_used < 2
        ):
            family = "loss"  # budget spent: degrade to a loss burst
        if family == "loss":
            events.append(
                {
                    "kind": "message-loss",
                    "at": at,
                    "duration": _quantize(rng.uniform(300.0, 900.0)),
                    "rate": round(rng.uniform(0.05, 0.2), 3),
                    "duplicate_rate": round(rng.uniform(0.0, 0.05), 3),
                }
            )
        elif family == "link":
            # Link degradation: one of three flavors, bounded duration
            # (the event lifts its own imposition — always healing).
            flavor = rng.choice(("congested", "slow", "lossy"))
            incident = {
                "kind": "link-degradation",
                "at": at,
                "duration": _quantize(rng.uniform(300.0, 900.0)),
                "fraction": round(rng.uniform(0.15, 0.35), 3),
                "direction": rng.choice(("outbound", "inbound", "both")),
            }
            if flavor == "congested":
                incident["bandwidth"] = round(rng.uniform(0.01, 0.05), 3)
                incident["queue_limit"] = rng.randint(4, 10)
            elif flavor == "slow":
                incident["latency"] = round(rng.uniform(0.5, 2.0), 3)
                incident["jitter"] = round(rng.uniform(0.0, 0.5), 3)
            else:
                incident["loss"] = round(rng.uniform(0.1, 0.4), 3)
            events.append(incident)
        elif family == "partition":
            partition_index += 1
            heal_at = min(
                _quantize(at + rng.uniform(600.0, 1200.0)), window_end
            )
            heal_at = max(heal_at, at + _GRID)
            name = f"chaos-island-{partition_index}"
            events.append(
                {
                    "kind": "partition",
                    "at": at,
                    "name": name,
                    "fraction": round(rng.uniform(0.15, 0.35), 3),
                    "isolates_servers": rng.random() < 0.5,
                }
            )
            events.append(
                {"kind": "partition-heal", "at": heal_at, "name": name}
            )
        else:  # crash or managers: a wave plus its recovery
            wave = rng.randint(2, min(4, crash_budget - crashes_used))
            crashes_used += wave
            recover_at = min(
                _quantize(at + rng.uniform(300.0, 900.0)), horizon
            )
            recover_at = max(recover_at, at + _GRID)
            if family == "managers":
                events.append(
                    {
                        "kind": "correlated-manager-failure",
                        "at": at,
                        "count": wave,
                    }
                )
            else:
                events.append(
                    {
                        "kind": "node-crash",
                        "at": at,
                        "count": wave,
                        "target": rng.choice(("any", "managers")),
                    }
                )
            events.append(
                {"kind": "node-recovery", "at": recover_at, "count": wave}
            )
    events.sort(key=lambda entry: entry["at"])
    return events
