"""Per-layer attribution of a traced run.

The traced run enables :mod:`repro.obs`.  Where the program already
brackets a layer with a span (``artifact.*``, ``calibrate.*``,
``estimate.*``, ``exec.run``, ``sim.batch``) that span is used as is;
the remaining public entry points are wrapped with ``obs.span`` from
benchmark code by :class:`Instrumentation` (nothing is added inside
``src/``).  :func:`self_times` turns the finished spans into self times
through ``obs.build_tree``; :func:`layer_of` assigns every span name to
one of the program's modules.  Only spans under the benchmark's own
``bench.*`` root spans are attributed: those roots bracket the measured
work, and whatever the benchmark does between them (checking outputs,
scoring regret) stays out of every layer.
"""

from __future__ import annotations

import contextlib
import functools
import sys

from common import COLLECTIVES

#: The modules time is attributed to, in report order.  ``bench`` is the
#: benchmark's own root span: its self time is the unattributed residual.
LAYERS = ("sim", "exec", "estimation", "selection", "tuning", "service")

#: Span-name prefixes, most specific first, and the layer each maps to.
_PREFIXES = (
    ("artifact.calibrate", "estimation"),
    ("artifact.tables", "selection"),
    ("artifact.codegen", "selection"),
    ("artifact.guidelines", "tuning"),
    ("sim.", "sim"),
    ("exec.", "exec"),
    ("calibrate.", "estimation"),
    ("estimate.", "estimation"),
    ("estimation.", "estimation"),
    ("selection.", "selection"),
    ("tuning.", "tuning"),
    ("artifact.", "service"),
    ("service.", "service"),
    ("select.", "service"),
    ("http.", "service"),
    ("bench.", "bench"),
)


def layer_of(name: str) -> str:
    for prefix, layer in _PREFIXES:
        if name.startswith(prefix):
            return layer
    raise ValueError(f"span {name!r} belongs to no known layer")


def self_times(records) -> list[dict]:
    """Every span dict under a ``bench.*`` root, with ``self``,
    ``operation``, ``root`` and ``nested`` set.

    ``self`` is the span's duration minus the part its children cover
    (children run sequentially inside their parent, so their durations
    are summed).  ``operation`` is inherited from the nearest ancestor
    carrying an ``operation`` attribute, so calibration time can be split
    by collective.  ``root`` marks the ``bench.*`` roots, whose durations
    make the end-to-end time.  ``nested`` is true when an ancestor has
    the same name (``MeasuredOracle.best`` calling ``measure``), so the
    span's duration is already inside that ancestor's.
    """
    from repro import obs

    flat: list[dict] = []

    def visit(node: dict, operation: str | None, above: frozenset) -> None:
        operation = node.get("attributes", {}).get("operation", operation)
        covered = sum(child["duration"] for child in node["children"])
        flat.append({
            "name": node["name"],
            "duration": node["duration"],
            "self": node["duration"] - covered,
            "attributes": node.get("attributes", {}),
            "operation": operation,
            "root": not above,
            "nested": node["name"] in above,
        })
        above = above | {node["name"]}
        for child in node["children"]:
            visit(child, operation, above)

    for root in obs.build_tree(records):
        if layer_of(root["name"]) == "bench":
            visit(root, None, frozenset())
    return flat


def attribute(records) -> dict:
    """Layer self times, the end-to-end time of the roots and the residual.

    The end-to-end time is the summed duration of the ``bench.*`` root
    spans; ``residual_s`` is the part of it no layer span covers, so the
    layer self times plus the residual equal the end-to-end time.
    """
    spans = self_times(records)
    layers = {layer: 0.0 for layer in LAYERS}
    residual = 0.0
    end_to_end = 0.0
    for span in spans:
        layer = layer_of(span["name"])
        if layer == "bench":
            residual += span["self"]
            end_to_end += span["duration"] * span["root"]
        else:
            layers[layer] += span["self"]
    return {
        "spans": spans,
        "layers": layers,
        "end_to_end_s": end_to_end,
        "residual_s": residual,
    }


class Instrumentation:
    """Wraps public entry points of the program in ``obs`` spans.

    Functions are replaced in every loaded ``repro`` module that bound
    them by name (``from x import f`` copies the reference); methods are
    replaced on their class.  :meth:`close` restores the originals.
    """

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def wrap_method(self, cls, name: str, span_name: str, annotate=None):
        self._set(cls, name, _spanned(getattr(cls, name), span_name, annotate))

    def wrap_function(self, func, span_name: str, annotate=None):
        wrapped = _spanned(func, span_name, annotate)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._set(module, attr, wrapped)

    def install(self) -> "Instrumentation":
        """Wrap the entry points the per-layer metrics are read from."""
        from repro.estimation import statistics
        from repro.exec import cache, job
        from repro.selection.oracle import MeasuredOracle
        from repro.service import artifact, server
        from repro.tuning import guidelines
        from repro.tuning.tuner import SelfTuner

        self.wrap_function(job.execute_job, "sim.event_loop")
        self.wrap_method(cache.ResultCache, "get", "exec.cache_get")
        self.wrap_method(cache.ResultCache, "put", "exec.cache_put")
        self.wrap_method(cache.ResultCache, "put_many", "exec.cache_put")
        self.wrap_function(
            statistics.adaptive_measure, "estimation.measure",
            lambda span, result: span.set_attr("reps", result.n),
        )
        self.wrap_method(MeasuredOracle, "best", "selection.oracle")
        self.wrap_method(MeasuredOracle, "measure", "selection.oracle")
        self.wrap_function(artifact.stamp_guidelines, "tuning.guidelines")
        # Every guideline check, strict (which raises on a violation) or
        # not, goes through verify_guidelines and its report.
        self.wrap_function(
            guidelines.verify_guidelines, "tuning.verify",
            lambda span, report: span.set_attr(
                "violations", len(report.violations)
            ),
        )
        self.wrap_method(SelfTuner, "observe", "tuning.observe")
        self.wrap_method(SelfTuner, "recalibrate", "tuning.recalibrate")
        self.wrap_method(artifact.SelectionArtifact, "save", "artifact.save")
        self.wrap_function(artifact.load_artifact, "artifact.load")
        self.wrap_method(
            artifact.SelectionArtifact, "flat_tables", "service.compile"
        )
        self.wrap_method(server.SelectionService, "reload", "service.reload")
        self.wrap_method(
            server.SelectionService, "select_body", "service.select"
        )
        return self

    def close(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


@contextlib.contextmanager
def tracing(path: str | None):
    """Record the spans of the ``with`` body into ``path``.

    The body brackets the work to attribute in ``bench.*`` spans.
    ``path=None`` runs the body untraced, with nothing installed (those
    spans are then no-ops), so the untraced and traced runs execute the
    same benchmark code.
    """
    if path is None:
        yield
        return
    from repro import obs

    recorder = obs.enable()
    recorder.clear()
    instrumentation = Instrumentation().install()
    try:
        yield
    finally:
        instrumentation.close()
        obs.disable()
        obs.save_jsonl(recorder.finished(), path)
        recorder.clear()


def load_records(paths) -> list[dict]:
    from repro import obs

    records: list[dict] = []
    for path in paths:
        records.extend(obs.load_jsonl(path))
    return records


def _spanned(func, span_name: str, annotate=None):
    from repro import obs

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with obs.span(span_name) as span:
            result = func(*args, **kwargs)
            if annotate is not None:
                annotate(span, result)
            return result

    return wrapper


def _total(spans, name: str, key: str = "duration") -> float:
    """Summed ``key`` of the spans called ``name``; durations only of the
    outermost, since a nested one's is inside its ancestor's."""
    return sum(
        span[key] for span in spans
        if span["name"] == name and not (key == "duration" and span["nested"])
    )


def _count(spans, name: str) -> int:
    return sum(1 for span in spans if span["name"] == name)


#: Per-layer metrics measured outside the span tree: by the ``serve``
#: workload (offline replay, the server's ``/metrics``) and by the
#: ``drift`` workload (the tuning loop's counters).  A workload that does
#: not exercise them reports them as :func:`unexercised`.
SERVING_METRICS = (
    "selection.lookup_ns", "service.parse_us", "service.answer_us.single",
    "service.answer_us.batch", "service.http_residual_us",
    "service.lru_hit_ratio", "service.batch_query_share",
)
TUNING_LOOP_METRICS = (
    "tuning.recalibrations_ok", "tuning.recalibrations_failed",
    "tuning.samples", "tuning.queries_to_fire", "tuning.served_regret_pct",
    "tuning.error_rate",
)


#: The executor counters of a process that ran no runner.
NO_RUNNER = dict.fromkeys(
    ("simulations", "memo_hits", "cache_hits", "deduped_cells"), 0
)


def unexercised(names) -> dict:
    """Explicit zeros for metrics of a path the workload does not run."""
    return dict.fromkeys(names, 0)


def layer_metrics(attribution: dict, exec_stats: dict) -> dict:
    """The per-layer metrics read from spans and executor counters.

    A metric whose wrapped entry point the traced run never called comes
    out as 0.  Metrics measured outside the span tree
    (:data:`SERVING_METRICS`, :data:`TUNING_LOOP_METRICS`) are merged in
    by the workloads themselves.
    """
    spans = attribution["spans"]
    columnar_cells = sum(
        span["attributes"].get("columnar", 0)
        for span in spans if span["name"] == "sim.batch"
    )
    event_loop_cells = _count(spans, "sim.event_loop")
    simulated = columnar_cells + event_loop_cells
    hits = exec_stats["memo_hits"] + exec_stats["cache_hits"]
    lookups = hits + exec_stats["simulations"]
    metrics = {
        "sim.columnar_s": _total(spans, "sim.batch", "self"),
        "sim.event_loop_s": _total(spans, "sim.event_loop"),
        "sim.columnar_cells": columnar_cells,
        "sim.event_loop_cells": event_loop_cells,
        "sim.columnar_share": columnar_cells / simulated if simulated else 0.0,
        "sim.deduped_cells": exec_stats["deduped_cells"],
        "exec.simulations": exec_stats["simulations"],
        "exec.memo_hits": exec_stats["memo_hits"],
        "exec.cache_hits": exec_stats["cache_hits"],
        "exec.hit_ratio": hits / lookups if lookups else 0.0,
        "exec.cache_get_s": _total(spans, "exec.cache_get"),
        "exec.cache_put_s": _total(spans, "exec.cache_put"),
        "estimation.measurements": _count(spans, "estimation.measure"),
        "estimation.reps": sum(
            span["attributes"].get("reps", 0)
            for span in spans if span["name"] == "estimation.measure"
        ),
        "selection.table_s": _total(spans, "artifact.tables", "self"),
        "selection.codegen_s": _total(spans, "artifact.codegen", "self"),
        "selection.oracle_s": _total(spans, "selection.oracle"),
        "tuning.guidelines_s": _total(spans, "tuning.guidelines"),
        "tuning.guideline_violations": max(
            (span["attributes"].get("violations", 0)
             for span in spans if span["name"] == "tuning.verify"),
            default=0,
        ),
        "tuning.observe_s": _total(spans, "tuning.observe"),
        "tuning.recalibrate_s": _total(spans, "tuning.recalibrate"),
        "artifact.package_s": _total(spans, "artifact.package", "self"),
        "artifact.save_s": _total(spans, "artifact.save"),
        "artifact.load_s": _total(spans, "artifact.load"),
        "service.compile_s": _total(spans, "service.compile"),
        "service.reload_s": _total(spans, "service.reload"),
        "obs.spans": len(spans),
        "residual_s": attribution["residual_s"],
    }
    for layer, seconds in attribution["layers"].items():
        metrics[f"{layer}.self_s"] = seconds
    by_operation = {operation: 0.0 for operation in COLLECTIVES}
    for span in spans:
        if layer_of(span["name"]) == "estimation" and span["operation"]:
            by_operation[span["operation"]] = (
                by_operation.get(span["operation"], 0.0) + span["self"]
            )
    for operation, seconds in by_operation.items():
        metrics[f"estimation.self_s.{operation}"] = seconds
    return metrics
