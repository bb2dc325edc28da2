"""Pastry-style structured overlay substrate.

Corona (the paper's §3) is layered on a prefix-routing structured
overlay with uniform node degree.  This package is a from-scratch
implementation of the pieces Corona depends on:

* 160-bit circular identifier space with base-``b`` digits
  (:mod:`repro.overlay.nodeid`),
* prefix routing tables and leaf sets (:mod:`repro.overlay.routing`,
  :mod:`repro.overlay.leafset`),
* Pastry nodes with one routing step each (:mod:`repro.overlay.node`),
* an overlay container running the join, multi-hop routing and
  failure repair (:mod:`repro.overlay.network`),
* wedge membership — the set of nodes sharing ``l`` prefix digits with
  a channel identifier (:mod:`repro.overlay.wedge`),
* the dissemination DAG rooted at each node
  (:mod:`repro.overlay.dag`), and
* SHA-1 consistent hashing of URLs and addresses
  (:mod:`repro.overlay.hashing`).
"""

from repro.overlay.dag import dissemination_tree
from repro.overlay.hashing import channel_id, node_id_for_address
from repro.overlay.leafset import LeafSet
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import PastryNode
from repro.overlay.nodeid import ID_BITS, NodeId
from repro.overlay.routing import RoutingTable
from repro.overlay.wedge import wedge_members

__all__ = [
    "ID_BITS",
    "LeafSet",
    "NodeId",
    "OverlayNetwork",
    "PastryNode",
    "RoutingTable",
    "channel_id",
    "dissemination_tree",
    "node_id_for_address",
    "wedge_members",
]
