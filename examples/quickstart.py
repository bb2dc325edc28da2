#!/usr/bin/env python
"""Quickstart: a tiny Corona cloud end to end.

Builds a 32-node Corona overlay over three synthetic feeds, subscribes
two users through the instant-messaging front end, runs the protocol
for a simulated hour, and prints the update notifications the users
received plus the cloud's operating statistics.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.config import CoronaConfig
from repro.core.system import CoronaSystem
from repro.diffengine.differ import Diff
from repro.im.gateway import ImGateway
from repro.im.messages import Notification
from repro.im.service import SimIMService
from repro.simulation.webserver import WebServerFarm

FEEDS = {
    "http://news.example/world.rss": 300.0,  # updates every ~5 min
    "http://blog.example/posts.rss": 900.0,  # every ~15 min
    "http://wiki.example/changes.rss": 1800.0,  # every ~30 min
}


def main() -> None:
    # --- content servers (exogenous; Corona never modifies them) ----
    farm = WebServerFarm(seed=7)
    for url, interval in FEEDS.items():
        farm.host(url, update_interval=interval)

    # --- the IM front end ------------------------------------------
    service = SimIMService()
    gateway = ImGateway(service=service)  # 5 notifications/s per client
    for user in ("alice", "bob"):
        service.register(user)
        service.connect(user)

    def notifier(url: str, subscribers, diff: Diff, now: float) -> None:
        for client in subscribers:
            gateway.notify(
                client,
                Notification(
                    url=url,
                    version=diff.new_version,
                    summary=diff.render(),
                    detected_at=now,
                ),
                now,
            )

    # --- the Corona cloud ------------------------------------------
    config = CoronaConfig(
        polling_interval=120.0,  # 2-minute polls for a quick demo
        maintenance_interval=240.0,
        base=4,
        scheme="lite",
    )
    corona = CoronaSystem(
        n_nodes=32, config=config, fetcher=farm, seed=11, notifier=notifier
    )

    # Users subscribe by chatting to the Corona handle.
    for user, text in (
        ("alice", "subscribe http://news.example/world.rss"),
        ("alice", "subscribe http://blog.example/posts.rss"),
        ("bob", "subscribe http://news.example/world.rss"),
        ("bob", "subscribe http://wiki.example/changes.rss"),
    ):
        command = gateway.receive_chat(user, text)
        assert command is not None
        corona.subscribe(command.url, user, now=0.0)

    # A background crowd makes the channels popular enough for the
    # optimizer to recruit wedges (Corona-Lite's budget is the load
    # the subscribers would impose polling on their own).
    for index, url in enumerate(FEEDS):
        for crowd in range(60 // (index + 1)):
            reader = f"reader-{index}-{crowd}"
            service.register(reader)  # offline: the IM buffers for them
            corona.subscribe(url, reader, now=0.0)

    # --- drive one simulated hour -----------------------------------
    now = 0.0
    for step in range(120):
        now += 30.0
        farm.advance_to(now)
        corona.poll_due(now)
        gateway.pump(now)
        if step % 8 == 7:
            corona.run_maintenance_round(now)

    # --- report ------------------------------------------------------
    print("=== Corona quickstart (1 simulated hour) ===")
    print(f"nodes: {len(corona.overlay)}   channels: {len(corona.managers)}")
    print(f"polls issued: {corona.counters.polls}")
    print(f"updates detected: {corona.counters.detections}")
    halves = ([], [])
    for event in corona.detections:
        if event.published_at is None:
            continue
        half = 0 if event.detected_at < now / 2 else 1
        halves[half].append(event.detected_at - event.published_at)
    for label, delays in zip(("ramp-up half", "converged half"), halves):
        if delays:
            mean = sum(delays) / len(delays)
            print(
                f"mean detection delay, {label}: {mean:.1f}s "
                f"(single-reader expectation: "
                f"{config.polling_interval / 2:.0f}s)"
            )
    for url in FEEDS:
        level = corona.channel_level(url)
        pollers = len(corona.pollers_of(url))
        print(f"  {url}: level {level}, {pollers} cooperative pollers")
    for user in ("alice", "bob"):
        inbox = service.inbox(user)
        print(f"{user}: {len(inbox)} IM notifications")
        if inbox:
            first_line = inbox[-1].body.splitlines()[0]
            print(f"  latest: {first_line}")


if __name__ == "__main__":
    main()
