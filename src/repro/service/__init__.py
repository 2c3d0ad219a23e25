"""The sweep service: concurrent sweep jobs over one fleet, via TCP.

The asyncio daemon behind ``repro serve``:

- :mod:`repro.service.server` — :class:`~repro.service.server.SweepService`,
  the length-prefixed-JSON protocol server (``submit``/``status``/``watch``/
  ``cancel``/``stats``/``shutdown``) and its background-thread handle;
- :mod:`repro.service.scheduler` — ``JobScheduler``, fair-sharing
  points across concurrent jobs over one shared execution backend and
  deduplicating overlapping work through the content-addressed store;
- :mod:`repro.service.jobs` — the job table and lifecycle states;
- :mod:`repro.service.client` — the synchronous client the CLI
  (``repro jobs ...``) and :mod:`repro.api` ride on.

The package re-exports the client functions only: a client imports the
wire framing and nothing else, so ``repro jobs ...`` loads neither the
scenario registry nor numpy.  Import the daemon's names from their
modules.

CLI: ``repro serve`` and ``repro jobs submit/status/watch/cancel``.
"""

from repro.service.client import (
    cancel_job,
    job_status,
    service_stats,
    shutdown_service,
    submit_job,
    watch_job,
)

__all__ = [
    "cancel_job",
    "job_status",
    "service_stats",
    "shutdown_service",
    "submit_job",
    "watch_job",
]
