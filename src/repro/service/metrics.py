"""Minimal Prometheus-text-format instrumentation for the service.

Stdlib-only counterparts of the ``prometheus_client`` primitives the
serving layer needs: labelled counters, one cumulative-bucket histogram,
and gauges.  Rendering follows the text exposition format
(``# HELP`` / ``# TYPE`` preamble, ``name{label="v"} value`` samples,
``_bucket``/``_sum``/``_count`` for histograms) so the output scrapes
cleanly.  See docs/SERVICE.md for the metrics glossary.

Thread-safety: mutation happens on the server's single event loop; the
only cross-thread access is rendering, which reads plain dicts of floats
— safe under the GIL for this monitoring use.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double quote and newline are the three characters the
    format requires escaping inside ``name{label="value"}``; anything
    else passes through verbatim.  Without this, a label value such as a
    load error message containing ``"`` (artifact paths, JSON fragments)
    produces an unparseable exposition document.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(value)}"' for key, value in labels
    )
    return "{" + body + "}"


@dataclass
class Counter:
    """A monotonically increasing, optionally labelled counter.

    ``labelled=True`` declares that every sample of this counter carries
    labels.  Such counters render *no* sample while empty: the previous
    behaviour of emitting a bare ``name 0`` created a phantom unlabelled
    series alongside the real labelled ones, which double-counts in
    ``sum(name)`` aggregations and confuses absent-metric alerts.
    """

    name: str
    help: str
    labelled: bool = False
    _samples: dict[tuple[tuple[str, str], ...], float] = field(
        default_factory=dict
    )

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = tuple(sorted(labels.items()))
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def inc_key(self, key: tuple[tuple[str, str], ...], amount: float = 1.0) -> None:
        """Increment by a precomputed label key (the serving hot path).

        ``key`` must be what :meth:`inc` would build: label pairs sorted
        by label name.  Skipping the per-call sort matters at 10^5 qps.
        """
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._samples.get(tuple(sorted(labels.items())), 0.0)

    def total(self) -> float:
        return sum(self._samples.values())

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} counter",
        ]
        for key in sorted(self._samples):
            lines.append(
                f"{self.name}{_format_labels(key)} "
                f"{_format_value(self._samples[key])}"
            )
        if not self._samples and not self.labelled:
            lines.append(f"{self.name} 0")
        return lines


@dataclass
class Gauge:
    """A value that can go up and down (e.g. artifacts currently loaded).

    Optionally labelled, with the same convention as :class:`Counter`:
    a ``labelled=True`` gauge renders no sample until a labelled value is
    set (no phantom unlabelled series), while an unlabelled gauge keeps
    the original always-one-sample behaviour (``name 0`` before any
    :meth:`set`).
    """

    name: str
    help: str
    labelled: bool = False
    _samples: dict[tuple[tuple[str, str], ...], float] = field(
        default_factory=dict
    )

    def set(self, value: float, **labels: str) -> None:
        self._samples[tuple(sorted(labels.items()))] = float(value)

    def value(self, **labels: str) -> float:
        return self._samples.get(tuple(sorted(labels.items())), 0.0)

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} gauge",
        ]
        for key in sorted(self._samples):
            lines.append(
                f"{self.name}{_format_labels(key)} "
                f"{_format_value(self._samples[key])}"
            )
        if not self._samples and not self.labelled:
            lines.append(f"{self.name} 0")
        return lines


#: Request-latency buckets (seconds): 50 µs .. 1 s, then +Inf.
DEFAULT_BUCKETS = (
    50e-6, 100e-6, 250e-6, 500e-6,
    1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 1.0,
)


@dataclass
class Histogram:
    """A cumulative-bucket histogram in the Prometheus layout."""

    name: str
    help: str
    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    _counts: list[int] = field(default_factory=list)
    _sum: float = 0.0
    _count: int = 0

    def __post_init__(self) -> None:
        self.buckets = tuple(sorted(self.buckets))
        self._counts = [0] * len(self.buckets)

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        if index < len(self._counts):
            self._counts[index] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    def quantile(self, q: float) -> float:
        """Upper bucket bound containing the ``q`` quantile (0 if empty)."""
        if not self._count:
            return 0.0
        target = q * self._count
        running = 0
        for bound, bucket_count in zip(self.buckets, self._counts):
            running += bucket_count
            if running >= target:
                return bound
        return float("inf")

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} histogram",
        ]
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, self._counts):
            cumulative += bucket_count
            lines.append(f'{self.name}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {self._count}')
        lines.append(f"{self.name}_sum {repr(self._sum)}")
        lines.append(f"{self.name}_count {self._count}")
        return lines


class ServiceMetrics:
    """Everything ``GET /metrics`` exposes, in one registry."""

    def __init__(self):
        self.requests = Counter(
            "repro_requests_total",
            "HTTP requests served, by endpoint and status code.",
            labelled=True,
        )
        self.request_seconds = Histogram(
            "repro_request_seconds",
            "Wall-clock request handling latency in seconds.",
        )
        self.selections = Counter(
            "repro_selections_total",
            "Algorithm selections returned, by operation and algorithm.",
            labelled=True,
        )
        self.clamped = Counter(
            "repro_select_clamped_total",
            "Queries below the decision grid answered by clamping to the "
            "first grid cell, by operation.",
            labelled=True,
        )
        self.queries = Counter(
            "repro_select_queries_total",
            "Individual (collective, P, m) queries answered "
            "(batched requests count each query).",
        )
        self.batch_queries = Counter(
            "repro_select_batch_queries_total",
            "Queries answered on the batched flat-array path (a subset "
            "of repro_select_queries_total; batch queries bypass the "
            "LRU, so they never count as cache hits or misses).",
        )
        self.cache_hits = Counter(
            "repro_query_cache_hits_total",
            "Lookups answered from the in-memory LRU query cache.",
        )
        self.cache_misses = Counter(
            "repro_query_cache_misses_total",
            "Lookups that had to consult a decision table.",
        )
        self.artifacts_loaded = Gauge(
            "repro_artifacts_loaded",
            "Selection artifacts currently loaded and servable.",
        )
        self.reloads = Counter(
            "repro_artifact_reloads_total",
            "Hot artifact-registry rescans performed.",
        )
        self.reload_failures = Counter(
            "repro_artifact_reload_failures_total",
            "Rescans that failed outright; the previous registry state "
            "keeps serving.",
        )
        self.degraded = Gauge(
            "repro_service_degraded",
            "1 while serving last-known-good data (failed reload, "
            "corrupted artifact on disk, or failed recalibration), "
            "0 when healthy.",
        )
        # -- self-tuning loop (see docs/ROBUSTNESS.md) -------------------
        self.drift_samples = Counter(
            "repro_drift_samples_total",
            "Served selections replayed against the measured oracle, "
            "by operation.",
            labelled=True,
        )
        self.drift_error = Gauge(
            "repro_drift_mean_error",
            "Windowed mean relative regret of served selections versus "
            "the measured oracle, by operation.",
            labelled=True,
        )
        self.drift_cusum = Gauge(
            "repro_drift_cusum",
            "Current one-sided CUSUM drift statistic, by operation.",
            labelled=True,
        )
        self.drift_triggers = Counter(
            "repro_drift_triggers_total",
            "Times the drift detector fired, by operation.",
            labelled=True,
        )
        self.recalibrations = Counter(
            "repro_recalibrations_total",
            "Incremental artifact rebuilds attempted by the self-tuning "
            "loop, by operation and outcome (ok/failed).",
            labelled=True,
        )
        self.guideline_violations = Gauge(
            "repro_guideline_violations",
            "Violations in the most recent guideline verification of the "
            "served artifact.",
        )

    def observe_request_span(self, span) -> None:
        """Feed the request metrics from one finished ``http.request`` span.

        The span is the single timing source for the serving layer: its
        monotonic duration lands in the latency histogram and its ``endpoint``/``status`` attributes label
        the request counter, so traces and metrics can never disagree
        about what was measured.
        """
        self.request_seconds.observe(span.duration)
        self.requests.inc(
            endpoint=str(span.attributes.get("endpoint", "(unknown)")),
            status=str(span.attributes.get("status", "(unknown)")),
        )

    def cache_hit_ratio(self) -> float:
        hits = self.cache_hits.total()
        total = hits + self.cache_misses.total()
        return hits / total if total else 0.0

    def render(self) -> str:
        """The Prometheus text exposition document."""
        parts = (
            self.requests.render()
            + self.batch_queries.render()
            + self.request_seconds.render()
            + self.selections.render()
            + self.clamped.render()
            + self.queries.render()
            + self.cache_hits.render()
            + self.cache_misses.render()
            + [
                "# HELP repro_query_cache_hit_ratio "
                "Fraction of queries answered by the LRU cache.",
                "# TYPE repro_query_cache_hit_ratio gauge",
                f"repro_query_cache_hit_ratio {repr(self.cache_hit_ratio())}",
            ]
            + self.artifacts_loaded.render()
            + self.reloads.render()
            + self.reload_failures.render()
            + self.degraded.render()
            + self.drift_samples.render()
            + self.drift_error.render()
            + self.drift_cusum.render()
            + self.drift_triggers.render()
            + self.recalibrations.render()
            + self.guideline_violations.render()
        )
        return "\n".join(parts) + "\n"

