"""The cloud entity (paper §II-A).

A plain storage service: it holds the *encrypted* message for the whole
emerging period and serves it to any authenticated receiver at any time
after the start time.  Confidentiality never depends on the cloud — only on
the key hidden in the DHT — so the implementation is deliberately a simple
access-controlled blob store.
"""

from repro.cloud.storage import CloudStore

__all__ = ["CloudStore"]
