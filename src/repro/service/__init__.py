"""The sweep service: concurrent sweep jobs over one fleet, via TCP.

The asyncio daemon behind ``repro serve``:

- :mod:`repro.service.server` — :class:`SweepService`, the
  length-prefixed-JSON protocol server (``submit``/``status``/``watch``/
  ``cancel``/``stats``/``shutdown``) and its background-thread handle;
- :mod:`repro.service.scheduler` — :class:`JobScheduler`, fair-sharing
  points across concurrent jobs over one shared execution backend and
  deduplicating overlapping work through the content-addressed store;
- :mod:`repro.service.jobs` — the job table and lifecycle states;
- :mod:`repro.service.client` — the synchronous client the CLI
  (``repro jobs ...``) and :mod:`repro.api` ride on.

CLI: ``repro serve`` and ``repro jobs submit/status/watch/cancel``.
"""

from repro.service.client import (
    cancel_job,
    job_status,
    service_request,
    service_stats,
    shutdown_service,
    submit_job,
    watch_job,
)
from repro.service.jobs import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    TERMINAL_STATES,
    Job,
    JobTable,
)
from repro.service.scheduler import JobScheduler
from repro.service.server import SERVICE_ROLE, ServiceHandle, SweepService

__all__ = [
    "JOB_CANCELLED",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "Job",
    "JobScheduler",
    "JobTable",
    "SERVICE_ROLE",
    "ServiceHandle",
    "SweepService",
    "TERMINAL_STATES",
    "cancel_job",
    "job_status",
    "service_request",
    "service_stats",
    "shutdown_service",
    "submit_job",
    "watch_job",
]
