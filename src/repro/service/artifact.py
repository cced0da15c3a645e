"""Versioned, content-hashed selection artifacts.

An *artifact* is the deployable unit of the paper's method: everything a
call site needs to answer "(collective, P, m) → algorithm" for one
cluster, frozen into a single JSON document —

* the calibrated :class:`~repro.estimation.workflow.PlatformModel`
  (per-algorithm Hockney parameters plus γ) that produced the decisions;
* one precomputed :class:`~repro.selection.decision_table.DecisionTable`
  per collective operation;
* the generated Python decision function source
  (:func:`repro.selection.codegen.generate_python`), so a consumer
  without this package can still decide.

Artifacts are *versioned* (``ARTIFACT_SCHEMA``) and *content-hashed*: the
document carries a SHA-256 over its canonical payload, and
:func:`load_artifact` rejects any file whose schema or hash does not
match — a corrupted or hand-edited artifact never reaches a server.  The
cluster is identified both by name and by
:meth:`ClusterSpec.fingerprint`, so a registry can tell two differently
parameterised "gros" platforms apart.

:func:`build_artifact` runs the full pipeline — §4 calibration → model
fit → decision-table grid → code generation → packaging.  All
simulations route through a :class:`repro.exec.ParallelRunner`, so a
build parallelises across cores and a warm persistent cache rebuilds an
artifact without simulating anything.
"""

from __future__ import annotations

import hashlib
import json
import keyword
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import repro
from repro import obs
from repro.clusters.spec import ClusterSpec
from repro.errors import ArtifactError, EstimationError
from repro.estimation.alphabeta import OPERATION_PROFILES
from repro.estimation.workflow import (
    DEFAULT_QUALITY,
    CalibrationResult,
    PlatformModel,
    QualityThresholds,
    calibrate_platform,
)
from repro.exec.runner import ParallelRunner, default_runner
from repro.selection.codegen import compile_python, generate_python
from repro.selection.decision_table import DecisionTable, build_decision_table
from repro.selection.flat_table import FlatDecisionTable
from repro.selection.model_based import ModelBasedSelector
from repro.units import KiB, MiB, log_spaced_sizes

#: Bump on any change to the artifact document layout.
ARTIFACT_SCHEMA = 1

#: Default decision grid: the paper's ten log-spaced sizes, 8 KB – 4 MB.
DEFAULT_SIZE_POINTS = tuple(log_spaced_sizes(8 * KiB, 4 * MiB, 10))


@dataclass(frozen=True)
class ArtifactEntry:
    """One collective operation's decision data inside an artifact."""

    operation: str
    platform: PlatformModel
    table: DecisionTable
    function_name: str
    source: str

    def __post_init__(self) -> None:
        # Code generation splices the name into Python source, so any
        # other text would run as code when the function is generated.
        name = self.function_name
        if not (
            isinstance(name, str) and name.isascii() and name.isidentifier()
            and not keyword.iskeyword(name)
        ):
            raise ArtifactError(
                f"decision function name for {self.operation!r} is not a "
                f"Python identifier: {name!r}"
            )

    def compile(self):
        """The decision callable, compiled from the table, never ``source``.

        The content hash is an unkeyed SHA-256 that anyone who edits the
        file can recompute, so it cannot vouch for code.  The stored
        ``source`` must equal the code generated from ``table`` and
        ``function_name``, and only that regenerated code is executed.
        """
        if self.source != generate_python(self.table, self.function_name):
            raise ArtifactError(
                f"stored decision function for {self.operation!r} is not "
                "the code generated from its table"
            )
        return compile_python(self.table, self.function_name)

    def to_dict(self) -> dict:
        return {
            "operation": self.operation,
            "platform": self.platform.to_dict(),
            "table": self.table.to_dict(),
            "function_name": self.function_name,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ArtifactEntry":
        return cls(
            operation=data["operation"],
            platform=PlatformModel.from_dict(data["platform"]),
            table=DecisionTable.from_dict(data["table"]),
            function_name=data["function_name"],
            source=data["source"],
        )


@dataclass(frozen=True)
class SelectionArtifact:
    """A deployable decision package for one cluster.

    ``entries`` maps collective operation names (``"bcast"``, ...) to
    their :class:`ArtifactEntry`.  The content hash is computed lazily
    over the canonical payload and memoised.
    """

    cluster: str
    cluster_fingerprint: str
    entries: dict[str, ArtifactEntry]
    builder_version: str = repro.__version__
    #: Name of the fabric the artifact was conditioned on; ``""`` for a
    #: flat (single-switch) cluster.  Folded into the hashed payload only
    #: when set, so flat artifacts keep their pre-fabric content hashes.
    fabric: str = ""
    #: Calibration quality diagnostics per operation (see
    #: :meth:`CalibrationResult.quality_report`).  Deliberately *outside*
    #: the hashed payload: diagnostics describe the build, not the
    #: decisions, so adding them never changes a content hash — artifacts
    #: built before this field existed keep their hashes bit-for-bit.
    quality: dict = field(default_factory=dict, compare=False)
    #: Rebuild provenance (``{"rebuilt": [...], "parent": <content hash>}``,
    #: see :func:`repro.tuning.recalibrate.rebuild_artifact`); empty for a
    #: fresh build.  Like ``quality``, deliberately outside the hashed
    #: payload: it describes how the artifact came about, never the
    #: decisions.
    build_info: dict = field(default_factory=dict, compare=False)
    #: Performance-guideline verification report (see
    #: :func:`repro.tuning.guidelines.verify_guidelines`), stamped by the
    #: builder.  Same sibling convention as ``quality``: the report
    #: *describes* the packaged decisions, so stamping or re-verifying an
    #: artifact never changes its content hash.
    guidelines: dict = field(default_factory=dict, compare=False)
    _hash: list = field(default_factory=list, compare=False, repr=False)
    _flat: list = field(default_factory=list, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ArtifactError("artifact needs at least one collective entry")
        for operation, entry in self.entries.items():
            if entry.operation != operation:
                raise ArtifactError(
                    f"entry keyed {operation!r} describes {entry.operation!r}"
                )

    @property
    def operations(self) -> list[str]:
        """Collective operations this artifact can decide, sorted."""
        return sorted(self.entries)

    def payload(self) -> dict:
        """The canonical hashed content (everything but schema and hash)."""
        doc = {
            "cluster": self.cluster,
            "cluster_fingerprint": self.cluster_fingerprint,
            "builder_version": self.builder_version,
            "entries": {
                operation: self.entries[operation].to_dict()
                for operation in self.operations
            },
        }
        if self.fabric:
            # Key present only for topology-conditioned artifacts: flat
            # builds hash to the same bytes as before fabrics existed.
            doc["fabric"] = self.fabric
        return doc

    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON payload (memoised)."""
        if not self._hash:
            canonical = json.dumps(
                self.payload(), sort_keys=True, separators=(",", ":")
            )
            self._hash.append(hashlib.sha256(canonical.encode()).hexdigest())
        return self._hash[0]

    @property
    def artifact_id(self) -> str:
        """Short stable identifier: cluster name plus hash prefix."""
        return f"{self.cluster}-{self.content_hash()[:12]}"

    def select(self, operation: str, procs: int, nbytes: int):
        """Table lookup for one query (the server's hot path)."""
        return self.lookup(operation, procs, nbytes)[0]

    def flat_tables(self) -> dict[str, FlatDecisionTable]:
        """Per-operation :class:`FlatDecisionTable` views (memoised).

        Compiled once per loaded artifact — the same list-cell trick as
        the content hash keeps the dataclass frozen — so the serving
        layer gets flat-array lookups without recompiling per request.
        The flat view is derived purely from the decision tables; it can
        never disagree with :meth:`lookup`.
        """
        if not self._flat:
            self._flat.append({
                operation: FlatDecisionTable.from_table(
                    entry.table, operation=operation
                )
                for operation, entry in self.entries.items()
            })
        return self._flat[0]

    def lookup(self, operation: str, procs: int, nbytes: int):
        """Table lookup plus the below-grid clamp indicator.

        Same contract as :meth:`DecisionTable.lookup`: the boolean is
        ``True`` when the query fell below the grid and the answer is
        the clamped first-cell extrapolation.
        """
        try:
            entry = self.entries[operation]
        except KeyError:
            raise ArtifactError(
                f"artifact {self.artifact_id} has no {operation!r} table; "
                f"operations: {', '.join(self.operations)}"
            ) from None
        return entry.table.lookup(procs, nbytes)

    def summary(self) -> dict:
        """Registry-listing view: identity plus grid shapes, no tables."""
        doc = {
            "id": self.artifact_id,
            "cluster": self.cluster,
            "cluster_fingerprint": self.cluster_fingerprint,
            "builder_version": self.builder_version,
            "schema": ARTIFACT_SCHEMA,
            "content_hash": self.content_hash(),
            "operations": {
                operation: {
                    "algorithms": self.entries[operation].platform.algorithms,
                    "proc_points": len(self.entries[operation].table.proc_points),
                    "size_points": len(self.entries[operation].table.size_points),
                }
                for operation in self.operations
            },
        }
        if self.fabric:
            doc["fabric"] = self.fabric
        return doc

    def verify(self) -> None:
        """Cross-check the packaged representations against each other.

        The stored generated source must be the code generated from the
        decision table (:meth:`ArtifactEntry.compile`), and that code must
        agree with the table on every grid cell — the bit-identity
        invariant the service later relies on.  Raises
        :class:`ArtifactError` on any disagreement.
        """
        for operation, entry in self.entries.items():
            fn = entry.compile()
            table = entry.table
            for i, procs in enumerate(table.proc_points):
                for j, nbytes in enumerate(table.size_points):
                    expected = table.choices[i][j]
                    got = fn(procs, nbytes)
                    if got != (expected.algorithm, expected.segment_size):
                        raise ArtifactError(
                            f"{operation} decision function disagrees with "
                            f"table at P={procs} m={nbytes}: "
                            f"{got} != {(expected.algorithm, expected.segment_size)}"
                        )

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        doc = {
            "schema": ARTIFACT_SCHEMA,
            "content_hash": self.content_hash(),
            "payload": self.payload(),
        }
        if self.quality:
            # Sibling of the payload, not part of it: absent for quality-less
            # builds so pre-existing artifact files round-trip byte-for-byte.
            doc["quality"] = self.quality
        if self.build_info:
            # Same sibling convention as ``quality``.
            doc["build_info"] = self.build_info
        if self.guidelines:
            # Same sibling convention as ``quality``.
            doc["guidelines"] = self.guidelines
        return doc

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def from_dict(cls, data: dict) -> "SelectionArtifact":
        try:
            schema = data["schema"]
            stored_hash = data["content_hash"]
            payload = data["payload"]
        except (KeyError, TypeError) as error:
            raise ArtifactError(
                f"not a selection artifact: missing {error}"
            ) from None
        if schema != ARTIFACT_SCHEMA:
            raise ArtifactError(
                f"artifact schema {schema!r} not supported "
                f"(expected {ARTIFACT_SCHEMA})"
            )
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        actual = hashlib.sha256(canonical.encode()).hexdigest()
        if actual != stored_hash:
            raise ArtifactError(
                f"artifact content hash mismatch: stored {stored_hash[:12]}…, "
                f"computed {actual[:12]}… — file corrupt or edited"
            )
        quality = data.get("quality")
        build_info = data.get("build_info")
        guidelines = data.get("guidelines")
        try:
            return cls(
                cluster=payload["cluster"],
                cluster_fingerprint=payload["cluster_fingerprint"],
                builder_version=payload.get("builder_version", "unknown"),
                fabric=payload.get("fabric", ""),
                entries={
                    operation: ArtifactEntry.from_dict(entry)
                    for operation, entry in payload["entries"].items()
                },
                quality=quality if isinstance(quality, dict) else {},
                build_info=build_info if isinstance(build_info, dict) else {},
                guidelines=guidelines if isinstance(guidelines, dict) else {},
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ArtifactError(f"malformed artifact payload: {error}") from error


def load_artifact(path: str | Path) -> SelectionArtifact:
    """Read and *validate* an artifact file.

    Rejects (with :class:`ArtifactError`) unreadable files, non-JSON
    content, unsupported schema versions and any payload whose content
    hash does not match the stored one.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise ArtifactError(f"cannot read artifact {path}: {error}") from error
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ArtifactError(f"artifact {path} is not JSON: {error}") from error
    return SelectionArtifact.from_dict(data)


def default_proc_points(spec: ClusterSpec, step: int = 2) -> tuple[int, ...]:
    """Even grid of communicator sizes, 2 .. the cluster's capacity."""
    return tuple(range(2, spec.max_procs + 1, step)) or (2,)


def calibration_kwargs(
    *,
    procs: int | None = None,
    gamma_max_procs: int | None = None,
    sizes: Sequence[int] | None = None,
    max_reps: int = 8,
    seed: int = 0,
    screen_mad: float | None = None,
    retry_budget: int = 0,
) -> dict:
    """The calibration kwarg dict a build forwards to every collective.

    Shared by :func:`build_artifact` and the incremental
    :func:`~repro.tuning.recalibrate.rebuild_artifact` so a rebuild with
    the same knobs replays *exactly* the same experiment schedule — the
    property that makes a warm-cache no-drift rebuild bit-identical with
    zero simulations.
    """
    kwargs: dict = {
        "max_reps": max_reps,
        "seed": seed,
        "screen_mad": screen_mad,
        "retry_budget": retry_budget,
    }
    if procs is not None:
        kwargs["procs"] = procs
    if gamma_max_procs is not None:
        kwargs["gamma_max_procs"] = gamma_max_procs
    if sizes is not None:
        kwargs["sizes"] = tuple(sizes)
    return kwargs


def fabric_calibration_overrides(
    spec: ClusterSpec,
) -> tuple[str, dict, dict[str, list[str]]]:
    """Topology-conditioned build inputs derived from ``spec``'s fabric.

    Returns ``(fabric_name, extra calibration kwargs, per-operation
    algorithm lists)``.  Flat specs return ``("", {}, {})`` — nothing is
    added, so flat builds stay bit-identical to pre-fabric releases.  On
    a multi-level fabric the hierarchical variants join the candidate
    sets (they are excluded from the flat defaults) and the hierarchical
    models learn the rack size through ``model_params``.
    """
    fabric = spec.fabric if spec.fabric and not spec.fabric.is_flat() else None
    if fabric is None:
        return "", {}, {}
    from repro.collectives.bcast import PAPER_BCAST_ALGORITHMS
    from repro.collectives.reduce import DEFAULT_REDUCE_ALGORITHMS

    extra = {
        "model_params": {
            "group_ranks": fabric.nodes_per_rack * spec.procs_per_node
        }
    }
    per_op_algorithms = {
        "bcast": sorted((*PAPER_BCAST_ALGORITHMS, "hierarchical")),
        "reduce": sorted((*DEFAULT_REDUCE_ALGORITHMS, "hierarchical")),
    }
    return fabric.name, extra, per_op_algorithms


def stamp_guidelines(
    artifact: SelectionArtifact,
    *,
    strict: bool = False,
    slack: float | None = None,
) -> SelectionArtifact:
    """Verify performance guidelines and stamp the report on ``artifact``.

    Returns a copy carrying the :class:`~repro.tuning.guidelines.
    GuidelineReport` in its unhashed ``guidelines`` section — the content
    hash is untouched.  ``strict=True`` raises
    :class:`~repro.errors.GuidelineViolationError` instead of stamping a
    violating artifact (the packaging gate).  The import is local: the
    tuning layer depends on this module, not the other way around.
    """
    from repro.tuning.guidelines import check_guidelines, verify_guidelines

    kwargs = {} if slack is None else {"slack": slack}
    if strict:
        report = check_guidelines(artifact, **kwargs)
    else:
        report = verify_guidelines(artifact, **kwargs)
    return replace(artifact, guidelines=report.as_dict())


def calibrate_operation(
    spec: ClusterSpec,
    operation: str,
    *,
    runner: ParallelRunner | None = None,
    strict: bool = False,
    thresholds: QualityThresholds = DEFAULT_QUALITY,
    **calib_kwargs,
) -> CalibrationResult:
    """Calibrate ``operation`` on ``spec`` for an artifact, gated.

    One :func:`~repro.estimation.workflow.calibrate_platform` call with
    ``calib_kwargs``, so a knob it does not take raises ``TypeError``
    before any simulation.  A collective without an
    :data:`~repro.estimation.alphabeta.OPERATION_PROFILES` row and any
    :class:`~repro.errors.EstimationError` raise :class:`ArtifactError`;
    ``strict=True`` also refuses fits that fail ``thresholds``.  Builds
    and rebuilds both calibrate here, so both meet the same gate.
    """
    if operation not in OPERATION_PROFILES:
        raise ArtifactError(
            f"no calibration pipeline for collective {operation!r}; "
            f"known: {', '.join(sorted(OPERATION_PROFILES))}; pass a "
            "precomputed platform via platforms={...}"
        )
    try:
        result = calibrate_platform(
            spec, operation=operation, runner=runner, **calib_kwargs
        )
    except EstimationError as error:
        raise ArtifactError(
            f"{operation} calibration failed: {error}"
        ) from error
    failed = result.check_quality(thresholds) if strict else []
    if failed:
        details = "; ".join(
            f"{name}: {result.alpha_beta[name].quality.as_dict()}"
            for name in failed
        )
        raise ArtifactError(
            f"strict build refused: {spec.name}: "
            f"{operation} calibration quality gate "
            f"failed for {', '.join(failed)} ({details})"
        )
    return result


def operation_entry(
    operation: str,
    platform: PlatformModel,
    proc_points: Sequence[int],
    size_points: Sequence[int],
    function_name: str,
) -> ArtifactEntry:
    """``operation``'s decision table over ``proc_points`` ×
    ``size_points`` and its generated decision function, for a build or
    a rebuild (under the caller's span, beside its ``artifact.calibrate``).
    """
    with obs.span("artifact.tables", operation=operation):
        table = build_decision_table(
            ModelBasedSelector(platform), proc_points, size_points
        )
    with obs.span("artifact.codegen", operation=operation):
        return ArtifactEntry(
            operation=operation,
            platform=platform,
            table=table,
            function_name=function_name,
            source=generate_python(table, function_name=function_name),
        )


def build_artifact(
    spec: ClusterSpec,
    *,
    collectives: Sequence[str] = ("bcast",),
    proc_points: Sequence[int] | None = None,
    size_points: Sequence[int] = DEFAULT_SIZE_POINTS,
    platforms: Mapping[str, PlatformModel] | None = None,
    procs: int | None = None,
    gamma_max_procs: int | None = None,
    sizes: Sequence[int] | None = None,
    max_reps: int = 8,
    seed: int = 0,
    runner: ParallelRunner | None = None,
    strict: bool = False,
    thresholds: QualityThresholds = DEFAULT_QUALITY,
    screen_mad: float | None = None,
    retry_budget: int = 0,
) -> SelectionArtifact:
    """Run the full pipeline and package the result.

    calibrate → fit per-algorithm Hockney models → build one decision
    table per collective over the ``(proc_points, size_points)`` grid →
    generate the Python decision function → freeze into a
    :class:`SelectionArtifact`.

    ``platforms`` short-circuits calibration with precomputed
    :class:`PlatformModel` objects (keyed by operation) — used by tests
    and by rebuilds from a saved calibration.  Every other entry is
    calibrated by :func:`calibrate_operation`, with the same knobs for
    every collective; each collective's
    :data:`~repro.estimation.alphabeta.OPERATION_PROFILES` row decides
    which of them its experiments use.  Every simulation runs through
    ``runner``, so the build is parallel and cache-aware.

    ``strict=True`` refuses to package a calibration whose fits fail the
    quality ``thresholds`` (raising :class:`ArtifactError`) — the gate
    applies uniformly to *every* collective's quality report, not just
    the broadcast's; fit diagnostics are recorded in the artifact's
    unhashed ``quality`` section either way.  ``screen_mad`` /
    ``retry_budget`` default off, so a vanilla build is bit-identical to
    earlier releases.

    Size-independent collectives (the barrier) get a single-column
    decision table: their selection depends on ``P`` only.
    """
    runner = runner if runner is not None else default_runner()
    grid_procs = (
        tuple(proc_points) if proc_points else default_proc_points(spec)
    )
    calib_kwargs = calibration_kwargs(
        procs=procs,
        gamma_max_procs=gamma_max_procs,
        sizes=sizes,
        max_reps=max_reps,
        seed=seed,
        screen_mad=screen_mad,
        retry_budget=retry_budget,
    )
    fabric_name, fabric_kwargs, per_op_algorithms = (
        fabric_calibration_overrides(spec)
    )
    calib_kwargs.update(fabric_kwargs)

    with obs.span(
        "artifact.build",
        cluster=spec.name,
        collectives=",".join(collectives),
        grid=f"{len(grid_procs)}x{len(size_points)}",
    ) as build_span:
        entries: dict[str, ArtifactEntry] = {}
        quality: dict[str, dict] = {}
        for operation in collectives:
            precomputed = platforms is not None and operation in platforms
            with obs.span(
                "artifact.calibrate",
                operation=operation,
                precomputed=precomputed,
            ):
                if precomputed:
                    platform = platforms[operation]
                else:
                    result = calibrate_operation(
                        spec, operation, runner=runner, strict=strict,
                        thresholds=thresholds,
                        algorithms=per_op_algorithms.get(operation),
                        **calib_kwargs,
                    )
                    platform = result.platform
                    report = result.quality_report()
                    if report:
                        quality[operation] = report
            profile = OPERATION_PROFILES.get(operation)
            size_independent = profile is not None and profile.size_independent
            entries[operation] = operation_entry(
                operation,
                platform,
                grid_procs,
                (0,) if size_independent else tuple(size_points),
                f"select_{operation}",
            )
        with obs.span("artifact.package"):
            artifact = SelectionArtifact(
                cluster=spec.name,
                cluster_fingerprint=spec.fingerprint(),
                entries=entries,
                fabric=fabric_name,
                quality=quality,
            )
            build_span.set_attr("artifact_id", artifact.artifact_id)
        with obs.span("artifact.guidelines"):
            # Strict builds refuse guideline violations the same way they
            # refuse bad fits; non-strict builds stamp the report so every
            # consumer can see it.  Either way the content hash is already
            # fixed — the report lives outside the hashed payload.
            artifact = stamp_guidelines(artifact, strict=strict)
            build_span.set_attr(
                "guideline_violations",
                len(artifact.guidelines.get("violations", ())),
            )
        return artifact


class ArtifactRegistry:
    """The artifacts a server is willing to answer for.

    Backed by a directory of ``*.json`` artifact files (plus any paths
    registered directly).  Loading is strict — an invalid file is skipped
    and recorded in :attr:`errors`, never silently served.  Lookup is by
    ``(cluster, operation)``; when several artifacts cover the same pair
    the lexically last file wins (deterministic across rescans).

    **Degraded mode.**  When a *rescan* finds that a previously-served
    file is now invalid (tampered, truncated mid-write, wrong hash), the
    last-known-good copy keeps serving and the file is recorded in
    :attr:`degraded` — a corrupt reload must never take working decisions
    away from clients.  A file that was never valid is only an error; a
    file that was *deleted* drops out (removal is an operator action,
    corruption is not).
    """

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory else None
        self.artifacts: dict[str, SelectionArtifact] = {}
        self.errors: dict[str, str] = {}
        #: Files currently served from their last-known-good copy, mapped
        #: to the error that made the on-disk version unloadable.
        self.degraded: dict[str, str] = {}
        #: Bumped on every reindex (rescan, add).  Caches keyed on
        #: registry content — the service's LRU and its compiled flat
        #: tables — compare this to detect *any* swap path, including
        #: ones that bypass :meth:`SelectionService.reload` (a
        #: ``SelfTuner.recalibrate`` hot reload, a direct ``rescan()``).
        self.generation = 0
        self._by_query: dict[tuple[str, str, str], SelectionArtifact] = {}
        if self.directory is not None:
            self.rescan()

    def rescan(self) -> None:
        """Reload every artifact from the directory (hot reload)."""
        if self.directory is None:
            return
        artifacts: dict[str, SelectionArtifact] = {}
        errors: dict[str, str] = {}
        degraded: dict[str, str] = {}
        if not self.directory.is_dir():
            raise ArtifactError(
                f"artifact directory {self.directory} does not exist"
            )
        for path in sorted(self.directory.glob("*.json")):
            try:
                artifact = load_artifact(path)
            except ArtifactError as error:
                errors[path.name] = str(error)
                previous = self.artifacts.get(path.name)
                if previous is not None:
                    artifacts[path.name] = previous
                    degraded[path.name] = str(error)
                continue
            artifacts[path.name] = artifact
        self.artifacts = artifacts
        self.errors = errors
        self.degraded = degraded
        self._reindex()

    def add(self, artifact: SelectionArtifact, name: str | None = None) -> None:
        """Register an in-memory artifact (tests, embedded use)."""
        self.artifacts[name or artifact.artifact_id] = artifact
        self._reindex()

    def _reindex(self) -> None:
        index: dict[tuple[str, str, str], SelectionArtifact] = {}
        for _name, artifact in sorted(self.artifacts.items()):
            for operation in artifact.operations:
                index[(artifact.cluster, artifact.fabric, operation)] = artifact
        self._by_query = index
        self.generation += 1

    def __len__(self) -> int:
        return len(self.artifacts)

    def lookup(
        self, cluster: str, operation: str, fabric: str = ""
    ) -> SelectionArtifact:
        """The artifact serving ``(cluster, fabric, operation)``.

        ``fabric=""`` selects flat-cluster artifacts (the pre-fabric
        behaviour).  Raises :class:`ArtifactError` when nothing covers
        the triple.
        """
        try:
            return self._by_query[(cluster, fabric, operation)]
        except KeyError:
            known = sorted(
                f"{cluster}/{operation}" + (f"@{fab}" if fab else "")
                for cluster, fab, operation in self._by_query
            )
            wanted = f"cluster {cluster!r} operation {operation!r}" + (
                f" fabric {fabric!r}" if fabric else ""
            )
            raise ArtifactError(
                f"no artifact for {wanted}; "
                f"serving: {', '.join(known) or '<none>'}"
            ) from None

    def summaries(self) -> list[dict]:
        """Listing view for ``GET /artifacts``."""
        return [
            dict(self.artifacts[name].summary(), file=name)
            for name in sorted(self.artifacts)
        ]
