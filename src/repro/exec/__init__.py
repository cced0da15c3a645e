"""Execution subsystem: job model, persistent result cache, parallel runner.

Three layers (see docs/PERFORMANCE.md for the architecture):

* :class:`SimJob` — one deterministic simulation, canonically
  fingerprinted, and :func:`execute_job`, its reference run on the
  generator event loop (:mod:`repro.exec.job`);
* :class:`ResultCache` — content-addressed persistent store with
  code-salt invalidation (:mod:`repro.exec.cache`);
* :class:`ParallelRunner` — memo → cache → seed dedupe → replay executor,
  inline or on a worker pool, with deterministic ordering, plus the
  process-wide default runner the CLI flags configure
  (:mod:`repro.exec.runner`).
"""

from repro.exec.cache import (
    CACHE_SCHEMA,
    CacheStats,
    ResultCache,
    code_salt,
    default_cache_dir,
)
from repro.exec.job import JOB_KINDS, SimJob, execute_job
from repro.exec.runner import (
    ExecStats,
    ParallelRunner,
    configure,
    cpu_count,
    default_runner,
    reset_default_runner,
)

__all__ = [
    "CACHE_SCHEMA",
    "CacheStats",
    "ExecStats",
    "JOB_KINDS",
    "ParallelRunner",
    "ResultCache",
    "SimJob",
    "code_salt",
    "configure",
    "cpu_count",
    "default_cache_dir",
    "default_runner",
    "execute_job",
    "reset_default_runner",
]
