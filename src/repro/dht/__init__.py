"""A from-scratch Kademlia-style DHT.

This substrate replaces the paper's Overlay Weaver deployment.  It provides:

- 160-bit node identifiers under the XOR metric (:mod:`repro.dht.node_id`);
- per-node k-bucket routing tables (:mod:`repro.dht.routing_table`);
- RPC message types — PING, FIND_NODE and the protocol's DELIVER
  (:mod:`repro.dht.rpc`); the overlay stores no values, the ciphertext
  lives in the cloud store;
- a simulated transport that delivers RPCs with latency and respects node
  liveness (:mod:`repro.dht.network`);
- the node protocol logic with iterative lookup (:mod:`repro.dht.kademlia`);
- a bootstrap helper that stands up an N-node overlay
  (:mod:`repro.dht.bootstrap`).

The self-emerging key protocol uses the overlay in two ways: to *select*
holders pseudo-randomly (pick a random 160-bit target, look up the closest
live node) and to *deliver* onion packages and key shares between holders.
"""

from repro.dht.bootstrap import build_network

__all__ = ["build_network"]
