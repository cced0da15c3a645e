"""Command-line front end: ``repro-mpi`` (or ``python -m repro``).

Subcommands mirror the paper's workflow:

* ``clusters`` — list the simulated platforms;
* ``calibrate`` — run the §4 estimation procedure, write a JSON platform
  model;
* ``predict`` / ``select`` — evaluate a calibration at one ``(P, m)``;
* ``table1`` / ``table2`` / ``table3`` — regenerate the paper's tables;
* ``fig5`` — regenerate one panel of Fig. 5 (CSV + ASCII plot);
* ``reduce-table`` — the future-work extension: MPI_Reduce selection;
* ``decision-table`` — precompute and save a deployment decision table;
* ``decision-fn`` — compile a decision table to C or Python source;
* ``artifact build`` / ``artifact verify`` — package calibration + tables
  + generated code into a versioned, content-hashed artifact;
* ``serve`` — run the online selection server over an artifact directory;
* ``cache stats`` / ``cache clear`` — inspect or prune the persistent
  simulation-result cache;
* ``trace --out F <command>`` — run any other subcommand with span
  tracing on and write the spans to ``F``.

Simulation-heavy subcommands share three execution flags: ``--jobs N``
fans simulations out over N worker processes (0 = all cores), and the
persistent result cache — on by default for the CLI — is controlled by
``--no-cache`` / ``--cache-dir`` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import repro.exec as exec_

from repro import obs
from repro.bench.figures import ascii_plot, fig5_series, write_csv
from repro.bench.runner import selection_comparison
from repro.bench.tables import format_table1, format_table2, format_table3
from repro.clusters import PRESETS, get_preset
from repro.errors import ReproError
from repro.estimation.gamma import estimate_gamma
from repro.estimation.workflow import PlatformModel, calibrate_platform
from repro.selection.decision_table import build_decision_table
from repro.selection.model_based import ModelBasedSelector
from repro.units import KiB, MiB, format_bytes, format_seconds, log_spaced_sizes

#: The paper's size sweep, reused by table3/fig5 commands.
PAPER_SIZES = log_spaced_sizes(8 * KiB, 4 * MiB, 10)


def parse_size(text: str) -> int:
    """Parse ``"8K"``, ``"4M"``, ``"512"`` into bytes."""
    text = text.strip().upper().removesuffix("B").removesuffix("I")
    multiplier = 1
    if text.endswith("K"):
        multiplier, text = KiB, text[:-1]
    elif text.endswith("M"):
        multiplier, text = MiB, text[:-1]
    try:
        return int(float(text) * multiplier)
    except ValueError:
        raise ReproError(f"cannot parse size {text!r}") from None


def _cmd_clusters(_args) -> int:
    for spec in PRESETS.values():
        print(spec.describe())
    return 0


def _cmd_calibrate(args) -> int:
    spec = get_preset(args.cluster)
    result = calibrate_platform(
        spec,
        procs=args.procs,
        max_reps=args.max_reps,
        seed=args.seed,
    )
    result.platform.save(args.output)
    print(f"calibrated {spec.name}; platform model written to {args.output}")
    gamma = result.platform.gamma
    print("gamma:", {p: round(g, 3) for p, g in sorted(gamma.table.items())})
    for name in result.platform.algorithms:
        params = result.platform.parameters[name]
        print(f"  {name:13s} {params}")
    return 0


def _cmd_predict(args) -> int:
    platform = PlatformModel.load(args.calibration)
    nbytes = parse_size(args.message)
    predictions = platform.predict_all(args.procs, nbytes)
    for name in sorted(predictions, key=predictions.get):
        print(f"  {name:13s} {format_seconds(predictions[name])}")
    return 0


def _cmd_select(args) -> int:
    platform = PlatformModel.load(args.calibration)
    selector = ModelBasedSelector(platform)
    nbytes = parse_size(args.message)
    choice, predicted = selector.select_with_prediction(args.procs, nbytes)
    print(
        f"P={args.procs} m={format_bytes(nbytes)}: {choice.describe()} "
        f"(predicted {format_seconds(predicted)})"
    )
    return 0


def _cmd_table1(args) -> int:
    estimates = {}
    for name in args.clusters.split(","):
        spec = get_preset(name.strip())
        estimates[spec.name] = estimate_gamma(spec, seed=args.seed)
    print(format_table1(estimates))
    return 0


def _cmd_table2(args) -> int:
    blocks = {}
    for name in args.clusters.split(","):
        spec = get_preset(name.strip())
        result = calibrate_platform(spec, max_reps=args.max_reps, seed=args.seed)
        blocks[spec.name] = result.alpha_beta
    print(format_table2(blocks))
    return 0


def _cmd_table3(args) -> int:
    spec = get_preset(args.cluster)
    if args.calibration:
        platform = PlatformModel.load(args.calibration)
    else:
        platform = calibrate_platform(
            spec, max_reps=args.max_reps, seed=args.seed
        ).platform
    rows = selection_comparison(spec, platform, args.procs, PAPER_SIZES)
    print(
        format_table3(rows, title=f"P={args.procs}, MPI_Bcast, {spec.name}")
    )
    return 0


def _cmd_fig5(args) -> int:
    spec = get_preset(args.cluster)
    if args.calibration:
        platform = PlatformModel.load(args.calibration)
    else:
        platform = calibrate_platform(
            spec, max_reps=args.max_reps, seed=args.seed
        ).platform
    rows = selection_comparison(spec, platform, args.procs, PAPER_SIZES)
    series = fig5_series(rows)
    if args.csv:
        write_csv(args.csv, series)
        print(f"wrote {args.csv}")
    print(
        ascii_plot(
            series, title=f"Fig.5 panel: {spec.name} P={args.procs} (MPI_Bcast)"
        )
    )
    return 0


def _cmd_reduce_table(args) -> int:
    spec = get_preset(args.cluster)
    platform = calibrate_platform(
        spec, operation="reduce", max_reps=args.max_reps, seed=args.seed
    ).platform
    rows = selection_comparison(spec, platform, args.procs, PAPER_SIZES)
    print(
        format_table3(rows, title=f"P={args.procs}, MPI_Reduce, {spec.name}")
    )
    return 0


def _cmd_decision_table(args) -> int:
    platform = PlatformModel.load(args.calibration)
    selector = ModelBasedSelector(platform)
    procs = range(args.min_procs, args.max_procs + 1, args.procs_step)
    table = build_decision_table(selector, list(procs), PAPER_SIZES)
    table.save(args.output)
    print(f"decision table with {len(table.proc_points)}x"
          f"{len(table.size_points)} entries written to {args.output}")
    if args.emit_c or args.emit_python:
        from repro.selection.codegen import generate_c, generate_python

        if args.emit_c:
            with open(args.emit_c, "w") as handle:
                handle.write(generate_c(table))
            print(f"C decision function written to {args.emit_c}")
        if args.emit_python:
            with open(args.emit_python, "w") as handle:
                handle.write(generate_python(table))
            print(f"Python decision function written to {args.emit_python}")
    return 0


def _cmd_decision_fn(args) -> int:
    from repro.selection.codegen import generate_c, generate_python
    from repro.selection.decision_table import DecisionTable

    try:
        table = DecisionTable.load(args.table)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as error:
        raise ReproError(f"cannot load decision table {args.table}: {error}") from error
    if args.backend == "c":
        source = generate_c(table, function_name=args.function_name
                            or "coll_bcast_dec_generated")
    else:
        source = generate_python(table, function_name=args.function_name
                                 or "select_bcast")
    with open(args.out, "w") as handle:
        handle.write(source)
    print(
        f"{args.backend} decision function "
        f"({len(table.proc_points)}x{len(table.size_points)} grid) "
        f"written to {args.out}"
    )
    return 0


def _apply_fabric(spec, fabric_name):
    """Attach a named fabric to ``spec`` (``None``/"" leaves it flat)."""
    if not fabric_name:
        return spec
    from repro.fabric import build_fabric

    return spec.with_fabric(build_fabric(fabric_name, spec))


def _cmd_chaos(args) -> int:
    from repro.bench.chaos import chaos_sweep, format_chaos

    spec = _apply_fabric(get_preset(args.cluster), args.fabric)
    severities = tuple(
        float(s) for s in args.severities.split(",") if s.strip()
    )
    kwargs = {}
    if args.screen_mad is not None:  # else chaos_sweep's default (3.5)
        kwargs["screen_mad"] = args.screen_mad
    reports = chaos_sweep(
        spec,
        operation=args.operation,
        procs=args.procs,
        severities=severities,
        max_reps=args.max_reps,
        seed=args.seed,
        retry_budget=args.retry_budget,
        **kwargs,
    )
    print(format_chaos(reports))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump([report.as_dict() for report in reports], handle, indent=2)
        print(f"drift report written to {args.json}")
    return 0


def _cmd_artifact_build(args) -> int:
    from repro.service.artifact import build_artifact

    spec = _apply_fabric(get_preset(args.cluster), args.fabric)
    proc_points = None
    if args.max_procs:
        proc_points = range(args.min_procs, args.max_procs + 1, args.procs_step)
    artifact = build_artifact(
        spec,
        collectives=[c.strip() for c in args.collectives.split(",")],
        proc_points=proc_points,
        procs=args.procs,
        gamma_max_procs=args.gamma_max_procs,
        max_reps=args.max_reps,
        seed=args.seed,
        strict=args.strict,
        screen_mad=args.screen_mad,
        retry_budget=args.retry_budget,
    )
    artifact.verify()
    artifact.save(args.output)
    print(f"artifact {artifact.artifact_id} written to {args.output}")
    for operation, info in artifact.summary()["operations"].items():
        print(
            f"  {operation}: {info['proc_points']}x{info['size_points']} grid, "
            f"algorithms: {', '.join(info['algorithms'])}"
        )
    return 0


def _cmd_artifact_verify(args) -> int:
    from repro.service.artifact import load_artifact

    artifact = load_artifact(args.path)
    artifact.verify()
    print(f"artifact {artifact.artifact_id} OK "
          f"(schema valid, hash verified, codegen agrees with tables)")
    if not args.guidelines:
        return 0
    from repro.tuning.guidelines import verify_guidelines

    slack_kwargs = {} if args.slack is None else {"slack": args.slack}
    report = verify_guidelines(artifact, **slack_kwargs)
    print(report.format())
    if not report.ok() and args.strict:
        print(f"strict: refusing artifact with {len(report.violations)} "
              f"guideline violation(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_artifact_diff(args) -> int:
    from repro.service.artifact import load_artifact
    from repro.tuning.diff import diff_artifacts, format_diff

    diff = diff_artifacts(load_artifact(args.old), load_artifact(args.new))
    print(format_diff(diff))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(diff.as_dict(), handle, indent=2)
        print(f"diff written to {args.json}")
    return 0 if diff.identical() else 1


def _cmd_serve(args) -> int:
    from repro.service.server import serve

    return serve(args.artifacts, host=args.host, port=args.port)


def _cmd_cache(args) -> int:
    from repro.exec.cache import CACHE_SCHEMA, ResultCache, default_cache_dir

    directory = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    path = directory / f"results-v{CACHE_SCHEMA}.jsonl"
    if args.cache_command == "stats":
        if not path.exists():
            print(f"cache at {directory}: empty (no {path.name})")
            return 0
        cache = ResultCache(directory)
        info = cache.describe()
        print(f"cache at {directory}:")
        print(f"  entries   {info['entries']}")
        print(f"  file size {info['file_bytes']} bytes")
        print(f"  loaded    {info['loaded']}")
        print(f"  dropped   {info['invalidated']} (stale salt / unparseable)")
        cache.close()
        return 0
    # clear: safe pruning — rewrites the file with a fresh header.
    cache = ResultCache(directory)
    removed = len(cache)
    cache.clear()
    cache.close()
    print(f"cache at {directory}: removed {removed} entries")
    return 0


def _cmd_trace(args) -> int:
    """Run another repro-mpi command with span tracing enabled.

    Works for any subcommand: enable the process-wide recorder, re-enter
    :func:`main` with the remaining argv, then write the trace.
    """
    rest = [token for token in args.rest if token != "--"]
    if not rest:
        raise ReproError(
            "trace: give a command to run, e.g. "
            "'repro-mpi trace --out build.json artifact build ...'"
        )
    if rest[0] == "trace":
        raise ReproError("trace: cannot trace itself")
    recorder = obs.enable()
    try:
        return main(rest)
    finally:
        path = obs.save_trace(args.out)
        count = len(recorder.finished())
        obs.disable()
        recorder.clear()
        print(f"trace: {count} spans written to {path}", file=sys.stderr)


def _cmd_report(args) -> int:
    from repro.models.report import render_report

    platform = PlatformModel.load(args.calibration)
    text = render_report(platform)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _exec_flags() -> argparse.ArgumentParser:
    """Shared parent parser: execution flags of simulation-heavy commands."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution")
    group.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for simulations (0 = all cores; default: 1)",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent simulation-result cache",
    )
    group.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache location (default: ~/.cache/repro)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mpi",
        description="Model-based selection of MPI collective algorithms "
        "(PaCT 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    exec_flags = _exec_flags()

    sub.add_parser("clusters", help="list simulated cluster presets").set_defaults(
        func=_cmd_clusters
    )

    calibrate = sub.add_parser(
        "calibrate", help="run the full §4 calibration", parents=[exec_flags]
    )
    calibrate.add_argument("--cluster", required=True)
    calibrate.add_argument("--output", required=True)
    calibrate.add_argument("--procs", type=int, default=None)
    calibrate.add_argument("--max-reps", type=int, default=8)
    calibrate.add_argument("--seed", type=int, default=0)
    calibrate.set_defaults(func=_cmd_calibrate)

    predict = sub.add_parser("predict", help="predict all algorithms at (P, m)")
    predict.add_argument("--calibration", required=True)
    predict.add_argument("-P", "--procs", type=int, required=True)
    predict.add_argument("-m", "--message", required=True)
    predict.set_defaults(func=_cmd_predict)

    select = sub.add_parser("select", help="model-based selection at (P, m)")
    select.add_argument("--calibration", required=True)
    select.add_argument("-P", "--procs", type=int, required=True)
    select.add_argument("-m", "--message", required=True)
    select.set_defaults(func=_cmd_select)

    table1 = sub.add_parser(
        "table1", help="regenerate Table 1 (gamma)", parents=[exec_flags]
    )
    table1.add_argument("--clusters", default="grisou,gros")
    table1.add_argument("--seed", type=int, default=0)
    table1.set_defaults(func=_cmd_table1)

    table2 = sub.add_parser(
        "table2", help="regenerate Table 2 (alpha/beta)", parents=[exec_flags]
    )
    table2.add_argument("--clusters", default="grisou,gros")
    table2.add_argument("--max-reps", type=int, default=8)
    table2.add_argument("--seed", type=int, default=0)
    table2.set_defaults(func=_cmd_table2)

    table3 = sub.add_parser(
        "table3", help="regenerate Table 3 (selection)", parents=[exec_flags]
    )
    table3.add_argument("--cluster", required=True)
    table3.add_argument("-P", "--procs", type=int, required=True)
    table3.add_argument("--calibration", default=None)
    table3.add_argument("--max-reps", type=int, default=8)
    table3.add_argument("--seed", type=int, default=0)
    table3.set_defaults(func=_cmd_table3)

    fig5 = sub.add_parser(
        "fig5", help="regenerate one Fig. 5 panel", parents=[exec_flags]
    )
    fig5.add_argument("--cluster", required=True)
    fig5.add_argument("-P", "--procs", type=int, required=True)
    fig5.add_argument("--calibration", default=None)
    fig5.add_argument("--csv", default=None)
    fig5.add_argument("--max-reps", type=int, default=8)
    fig5.add_argument("--seed", type=int, default=0)
    fig5.set_defaults(func=_cmd_fig5)

    reduce_table = sub.add_parser(
        "reduce-table",
        help="future-work extension: MPI_Reduce selection table",
        parents=[exec_flags],
    )
    reduce_table.add_argument("--cluster", required=True)
    reduce_table.add_argument("-P", "--procs", type=int, required=True)
    reduce_table.add_argument("--max-reps", type=int, default=6)
    reduce_table.add_argument("--seed", type=int, default=0)
    reduce_table.set_defaults(func=_cmd_reduce_table)

    table = sub.add_parser(
        "decision-table", help="precompute a deployment decision table"
    )
    table.add_argument("--calibration", required=True)
    table.add_argument("--output", required=True)
    table.add_argument("--min-procs", type=int, default=2)
    table.add_argument("--max-procs", type=int, default=128)
    table.add_argument("--procs-step", type=int, default=2)
    table.add_argument("--emit-c", default=None,
                       help="also write a generated C decision function")
    table.add_argument("--emit-python", default=None,
                       help="also write a generated Python decision function")
    table.set_defaults(func=_cmd_decision_table)

    decision_fn = sub.add_parser(
        "decision-fn",
        help="compile a decision table to C or Python source",
    )
    decision_fn.add_argument("--table", required=True,
                             help="decision table JSON (from decision-table)")
    decision_fn.add_argument("--backend", choices=("c", "python"),
                             required=True)
    decision_fn.add_argument("--out", required=True)
    decision_fn.add_argument("--function-name", default=None)
    decision_fn.set_defaults(func=_cmd_decision_fn)

    artifact = sub.add_parser(
        "artifact", help="build / verify versioned selection artifacts"
    )
    artifact_sub = artifact.add_subparsers(dest="artifact_command", required=True)
    build = artifact_sub.add_parser(
        "build",
        help="calibrate, build tables, generate code, package",
        parents=[exec_flags],
    )
    build.add_argument("--cluster", required=True)
    build.add_argument("--output", required=True)
    build.add_argument("--collectives", default="bcast",
                       help="comma-separated (bcast,reduce,gather,barrier,"
                            "allreduce,allgather,alltoall,scatter)")
    build.add_argument("--procs", type=int, default=None,
                       help="calibration communicator size")
    build.add_argument("--gamma-max-procs", type=int, default=None,
                       help="largest communicator used by the gamma(P) "
                            "estimation (bcast and reduce)")
    build.add_argument("--min-procs", type=int, default=2)
    build.add_argument("--max-procs", type=int, default=None,
                       help="decision grid upper bound (default: cluster capacity)")
    build.add_argument("--procs-step", type=int, default=2)
    build.add_argument("--max-reps", type=int, default=8)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--strict", action="store_true",
                       help="refuse to package fits that fail the "
                            "calibration quality gate")
    build.add_argument("--screen-mad", type=float, default=None,
                       help="MAD outlier-screening threshold (off by default)")
    build.add_argument("--retry-budget", type=int, default=0,
                       help="re-measurements allowed per non-converged "
                            "experiment")
    build.add_argument("--fabric", default=None,
                       help="condition the build on a named multi-level "
                            "fabric (see repro.fabric.available_fabrics)")
    build.set_defaults(func=_cmd_artifact_build)
    verify = artifact_sub.add_parser(
        "verify", help="validate schema, content hash and codegen agreement"
    )
    verify.add_argument("path")
    verify.add_argument("--guidelines", action="store_true",
                        help="also verify performance-guideline invariants "
                             "across the full decision grid")
    verify.add_argument("--strict", action="store_true",
                        help="exit non-zero when --guidelines finds "
                             "violations")
    verify.add_argument("--slack", type=float, default=None,
                        help="relative slack before an inequality counts as "
                             "violated (default: 1e-6)")
    verify.set_defaults(func=_cmd_artifact_verify)
    diff = artifact_sub.add_parser(
        "diff",
        help="per-cell decision deltas between two artifact versions",
    )
    diff.add_argument("old", help="the older artifact JSON")
    diff.add_argument("new", help="the newer artifact JSON")
    diff.add_argument("--json", default=None,
                      help="also write the full diff as JSON")
    diff.set_defaults(func=_cmd_artifact_diff)

    chaos = sub.add_parser(
        "chaos",
        help="measure selection drift under injected faults",
        parents=[exec_flags],
    )
    chaos.add_argument("--cluster", required=True)
    chaos.add_argument("--operation", default="bcast",
                       help="collective to sweep (any calibrated "
                            "collective; default: bcast)")
    chaos.add_argument("-P", "--procs", type=int, default=None,
                       help="communicator size (default: half the cluster)")
    chaos.add_argument("--severities", default="0,0.01,0.02,0.05,0.1",
                       help="comma-separated straggler severities")
    chaos.add_argument("--max-reps", type=int, default=6)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--screen-mad", type=float,
                       default=None,
                       help="MAD screening threshold (default: 3.5)")
    chaos.add_argument("--retry-budget", type=int, default=1)
    chaos.add_argument("--fabric", default=None,
                       help="run the sweep on a named multi-level fabric "
                            "(see repro.fabric.available_fabrics)")
    chaos.add_argument("--json", default=None,
                       help="also write the full drift report as JSON")
    chaos.set_defaults(func=_cmd_chaos)

    serve = sub.add_parser(
        "serve", help="run the online selection server"
    )
    serve.add_argument("--artifacts", required=True,
                       help="directory of artifact JSON files")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.set_defaults(func=_cmd_serve)

    cache = sub.add_parser(
        "cache", help="inspect or prune the persistent result cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser("stats", help="size and hit statistics")
    cache_stats.add_argument("--cache-dir", default=None)
    cache_stats.set_defaults(func=_cmd_cache)
    cache_clear = cache_sub.add_parser("clear", help="drop every cached result")
    cache_clear.add_argument("--cache-dir", default=None)
    cache_clear.set_defaults(func=_cmd_cache)

    report = sub.add_parser(
        "report", help="render a calibration as a Markdown report"
    )
    report.add_argument("--calibration", required=True)
    report.add_argument("--output", default=None)
    report.set_defaults(func=_cmd_report)

    trace = sub.add_parser(
        "trace", help="run another repro-mpi command with span tracing on"
    )
    trace.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="trace output (*.jsonl = JSONL, anything else = Chrome trace "
             "JSON; default: trace.json)",
    )
    trace.add_argument(
        "rest", nargs=argparse.REMAINDER,
        help="the command to run, e.g. 'artifact build --cluster ...'",
    )
    trace.set_defaults(func=_cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "jobs"):
            # Simulation-heavy command: install the process-wide runner.  The
            # persistent cache is on by default for the CLI (interactive use
            # benefits most from cross-invocation reuse); the library default
            # stays cache-less.
            exec_.configure(
                jobs=args.jobs,
                cache=not args.no_cache,
                cache_dir=args.cache_dir,
            )
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
