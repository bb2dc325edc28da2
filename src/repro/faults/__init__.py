"""Message-level fault injection.

The paper evaluates Corona on PlanetLab, where message loss, slow
links and partitions are the environment, not an edge case.  This
package models that environment as a :class:`~repro.faults.plane.
FaultPlane` sitting between the protocol stack and the event engine:
every dissemination hop, maintenance flood and server poll is offered
to the plane, which decides — deterministically, from its own seeded
generator — whether the message is delivered, dropped, duplicated or
delayed, and whether a named partition separates the endpoints.

The determinism contract: an *inactive* plane (``FaultPlane()``,
or any plane whose rates are zero and whose partition set is empty)
draws no randomness and takes no code path the fault-free system did
not already take, so fault-off runs are bit-identical to runs with no
plane installed at all (``tests/faults/test_fault_equivalence.py``).

:mod:`repro.faults.links` refines the uniform plane with per-link
state — asymmetric loss overrides, latency/jitter, token-bucket
bandwidth caps with bounded queues, multi-DC latency matrices — under
the same contract: an inactive :class:`~repro.faults.links.LinkTable`
is byte-identical to no table at all.
"""

from repro.faults.links import (
    LinkSpec,
    LinkTable,
    assign_topology,
    build_link_table,
    validate_links_config,
)
from repro.faults.plane import (
    FaultCounters,
    FaultPlane,
    PartitionIsland,
    TransmitOutcome,
)

__all__ = [
    "FaultCounters",
    "FaultPlane",
    "LinkSpec",
    "LinkTable",
    "PartitionIsland",
    "TransmitOutcome",
    "assign_topology",
    "build_link_table",
    "validate_links_config",
]
