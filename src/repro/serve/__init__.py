"""Serving layer: the engine's builders behind a concurrent HTTP service.

``python -m repro serve`` boots :class:`ExpansionService` — an asyncio
HTTP/JSON front over the content-addressed
:class:`~repro.engine.cache.EngineCache`, with single-flight request
deduplication and a worker pool for the CPU-bound builds.  See
:mod:`repro.serve.service` for the concurrency model and
:mod:`repro.serve.jobs` for the endpoint grammar.
"""

from repro.serve.http import Request, Response, fetch_json, json_response, parse_request
from repro.serve.jobs import (
    JOB_KINDS,
    Job,
    build_payload,
    parse_job,
    run_job_inline,
    run_job_pooled,
)
from repro.serve.service import ExpansionService, ServeConfig, run

__all__ = [
    "JOB_KINDS",
    "ExpansionService",
    "Job",
    "Request",
    "Response",
    "ServeConfig",
    "build_payload",
    "fetch_json",
    "json_response",
    "parse_job",
    "parse_request",
    "run",
    "run_job_inline",
    "run_job_pooled",
]
