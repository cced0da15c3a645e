"""Tests for the command-line front end."""

import json

import pytest

from repro.cli import build_parser, main, parse_size
from repro.errors import ReproError
from repro.units import KiB, MiB


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("8K", 8 * KiB),
            ("8k", 8 * KiB),
            ("8KB", 8 * KiB),
            ("8KiB", 8 * KiB),
            ("4M", 4 * MiB),
            ("512", 512),
            ("1.5K", 1536),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_size(text) == expected

    def test_rejects_garbage(self):
        with pytest.raises(ReproError):
            parse_size("lots")


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "clusters",
            "calibrate",
            "predict",
            "select",
            "table1",
            "table2",
            "table3",
            "fig5",
            "reduce-table",
            "decision-table",
            "decision-fn",
            "artifact",
            "serve",
            "cache",
        ):
            assert command in text

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_is_one_process(self, capsys, tmp_path):
        # No worker-count option: argparse refuses it like any unknown one.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--artifacts", str(tmp_path), "--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


class TestCommands:
    def test_clusters(self, capsys):
        assert main(["clusters"]) == 0
        out = capsys.readouterr().out
        assert "grisou" in out and "gros" in out

    @pytest.fixture(scope="class")
    def calibration_file(self, tmp_path_factory, mini_platform):
        path = tmp_path_factory.mktemp("cli") / "mini.json"
        mini_platform.save(path)
        return path

    def test_select(self, capsys, calibration_file):
        code = main(
            ["select", "--calibration", str(calibration_file), "-P", "12", "-m", "256K"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "P=12" in out and "predicted" in out

    def test_predict_lists_all_algorithms(self, capsys, calibration_file):
        code = main(
            ["predict", "--calibration", str(calibration_file), "-P", "8", "-m", "64K"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("binary", "binomial", "chain", "linear", "split_binary"):
            assert name in out

    def test_decision_table(self, capsys, calibration_file, tmp_path):
        output = tmp_path / "table.json"
        code = main(
            [
                "decision-table",
                "--calibration",
                str(calibration_file),
                "--output",
                str(output),
                "--min-procs",
                "2",
                "--max-procs",
                "8",
                "--procs-step",
                "2",
            ]
        )
        assert code == 0
        data = json.loads(output.read_text())
        assert data["proc_points"] == [2, 4, 6, 8]
        assert len(data["size_points"]) == 10

    def test_error_reported_as_exit_code(self, capsys):
        code = main(["calibrate", "--cluster", "atlantis", "--output", "/tmp/x.json"])
        assert code == 1
        assert "unknown cluster" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def table_file(self, tmp_path_factory, calibration_file):
        path = tmp_path_factory.mktemp("cli") / "table.json"
        code = main(
            [
                "decision-table",
                "--calibration", str(calibration_file),
                "--output", str(path),
                "--min-procs", "2",
                "--max-procs", "8",
                "--procs-step", "2",
            ]
        )
        assert code == 0
        return path

    def test_decision_fn_python_backend(self, capsys, table_file, tmp_path):
        out = tmp_path / "decide.py"
        code = main(
            [
                "decision-fn",
                "--table", str(table_file),
                "--backend", "python",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "python decision function" in capsys.readouterr().out
        namespace = {}
        exec(compile(out.read_text(), str(out), "exec"), namespace)
        algorithm, segment = namespace["select_bcast"](8, 64 * KiB)
        assert isinstance(algorithm, str) and segment >= 0

    def test_decision_fn_c_backend(self, table_file, tmp_path):
        out = tmp_path / "decide.c"
        code = main(
            [
                "decision-fn",
                "--table", str(table_file),
                "--backend", "c",
                "--out", str(out),
                "--function-name", "my_decider",
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "int my_decider(" in text and "*segsize" in text

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        from repro.exec import ResultCache

        cache = ResultCache(tmp_path)
        cache.put("deadbeef", 1.5)
        cache.close()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries   1" in out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "entries   0" in capsys.readouterr().out

    def test_cache_stats_without_cache_file(self, capsys, tmp_path):
        empty = tmp_path / "fresh"
        assert main(["cache", "stats", "--cache-dir", str(empty)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_artifact_verify(self, capsys, mini_platform, tmp_path):
        from repro.clusters import MINICLUSTER
        from repro.service import build_artifact
        from repro.units import log_spaced_sizes

        artifact = build_artifact(
            MINICLUSTER,
            proc_points=(2, 8, 16),
            size_points=log_spaced_sizes(8 * KiB, 1 * MiB, 4),
            platforms={"bcast": mini_platform},
        )
        path = artifact.save(tmp_path / "artifact.json")
        assert main(["artifact", "verify", str(path)]) == 0
        assert "hash verified" in capsys.readouterr().out

    def test_artifact_verify_rejects_corruption(self, capsys, mini_platform,
                                                tmp_path):
        from repro.clusters import MINICLUSTER
        from repro.service import build_artifact
        from repro.units import log_spaced_sizes

        artifact = build_artifact(
            MINICLUSTER,
            proc_points=(2, 16),
            size_points=log_spaced_sizes(8 * KiB, 1 * MiB, 4),
            platforms={"bcast": mini_platform},
        )
        path = artifact.save(tmp_path / "artifact.json")
        data = json.loads(path.read_text())
        data["payload"]["cluster"] = "tampered"
        path.write_text(json.dumps(data))
        assert main(["artifact", "verify", str(path)]) == 1
        assert "hash mismatch" in capsys.readouterr().err

    def test_trace_records_spans_of_any_subcommand(self, capsys, tmp_path):
        from repro import obs

        trace = tmp_path / "t.jsonl"
        assert main([
            "trace", "--out", str(trace),
            "artifact", "build", "--cluster", "minicluster",
            "--output", str(tmp_path / "a.json"), "--procs", "6",
            "--max-procs", "8", "--max-reps", "3", "--no-cache",
        ]) == 0
        names = {record["name"] for record in obs.load_jsonl(trace)}
        assert "artifact.build" in names
        assert "spans written to" in capsys.readouterr().err
        assert not obs.is_enabled()
