"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import (
    FLAG_TABLE,
    FLAGS_BY_PATH,
    build_parser,
    config_from_args,
    main,
    workload_by_name,
)
from repro.config import SessionConfig, field_paths


class TestWorkloadResolution:
    def test_gemm(self):
        assert workload_by_name("g4").name == "G4"

    def test_attention(self):
        assert workload_by_name("S2").name == "S2"

    def test_unknown(self):
        with pytest.raises(KeyError):
            workload_by_name("X1")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "G12" in out and "S9" in out and "fig7" in out

    def test_tune(self, capsys):
        assert main(["tune", "G1", "--gpu", "a100"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out and "Compute(tile E)" in out

    def test_tune_with_ptx(self, capsys):
        assert main(["tune", "G1", "--show-ptx"]) == 0
        assert ".entry" in capsys.readouterr().out

    def test_tune_strategy_and_workers(self, capsys):
        assert main(["tune", "G1", "--strategy", "random",
                     "--workers", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "random strategy" in out and "2 worker(s)" in out

    def test_tune_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            main(["tune", "G1", "--strategy", "quantum"])

    def test_tune_exec_backend_and_verify(self, capsys):
        assert main(["tune", "G1", "--exec-backend", "vectorized",
                     "--verify", "best", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "exec:  vectorized backend (verified against reference)" in out

    def test_tune_scalar_backend_unverified(self, capsys):
        assert main(["tune", "G1", "--exec-backend", "scalar", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "exec:  scalar backend (unverified)" in out

    def test_tune_unknown_exec_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["tune", "G1", "--exec-backend", "cuda"])

    def test_list_shows_strategies(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "evolutionary" in out and "annealing" in out

    def test_cache_warmup_strategy(self, capsys, tmp_path):
        assert main(["cache", "warmup", "G1", "--strategy", "random",
                     "--max-rounds", "2", "--population", "32",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "warmed 1 unique workload" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "mcfuser+random" in capsys.readouterr().out

    def test_cache_warmup_jobs_is_serve_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_WORKERS", raising=False)
        parser = build_parser()
        default = config_from_args(parser.parse_args(["cache", "warmup", "G1"]))
        assert default.serve.workers == 4
        jobs = config_from_args(parser.parse_args(["cache", "warmup", "G1", "--jobs", "2"]))
        assert jobs.serve.workers == 2

    def test_compare(self, capsys):
        assert main(["compare", "S4", "--ansor-trials", "64"]) == 0
        out = capsys.readouterr().out
        assert "MCFuser" in out and "FlashAttention" in out

    def test_compare_3080_hides_bolt(self, capsys):
        assert main(["compare", "G1", "--gpu", "rtx3080", "--ansor-trials", "64"]) == 0
        out = capsys.readouterr().out
        bolt_row = [l for l in out.splitlines() if l.startswith("BOLT")][0]
        assert "-" in bolt_row

    def test_compare_reads_gpu_from_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_GPU", "rtx3080")
        assert main(["compare", "G1", "--ansor-trials", "64"]) == 0
        assert "on RTX3080" in capsys.readouterr().out

    def test_tune_model_coalesces_identical_groups(self, capsys):
        """A model tune goes through the compile service: bert-small's four
        identically shaped attention groups cost one tune."""
        assert main(["tune", "bert-small", "--no-cache", "--population", "64",
                     "--max-rounds", "2"]) == 0
        rows = [l.split() for l in capsys.readouterr().out.splitlines()
                if l.startswith("layer")]
        assert len(rows) == 4
        tuning = [" ".join(r[2:-2]) for r in rows]
        assert tuning[0].endswith(" meas")
        assert tuning[1:] == ["coalesced"] * 3
        assert len({r[-2] for r in rows}) == 1  # one schedule for all four

    def test_partition(self, capsys):
        assert main(["partition", "bert-small"]) == 0
        out = capsys.readouterr().out
        assert "on A100" in out
        assert "layer0.attn.context" in out and "attention" in out
        assert "rejected anchors:" in out and "unsupported-op" in out

    def test_partition_reads_gpu_from_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_GPU", "rtx3080")
        assert main(["partition", "bert-small"]) == 0
        assert "on RTX3080" in capsys.readouterr().out

    def test_experiments_single(self, capsys):
        assert main(["experiments", "table1"]) == 0
        assert "MCFuser (ours)" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestFlagTableParity:
    """The declarative flag table must stay in lockstep with the config
    schema: every SessionConfig leaf has exactly one flag and vice versa."""

    def test_table_covers_schema_exactly(self):
        assert {spec.path for spec in FLAG_TABLE} == set(field_paths())

    def test_one_row_per_path(self):
        assert len(FLAG_TABLE) == len(FLAGS_BY_PATH) == len(field_paths())

    def test_flags_unique(self):
        flags = [spec.flag for spec in FLAG_TABLE]
        assert len(flags) == len(set(flags))

    def test_rows_are_well_formed(self):
        for spec in FLAG_TABLE:
            assert spec.flag.startswith("--"), spec
            assert spec.kind in ("value", "true", "false"), spec
            assert spec.help, spec

    def test_presence_flags_are_booleans(self):
        defaults = SessionConfig()
        for spec in FLAG_TABLE:
            if spec.kind in ("true", "false"):
                assert isinstance(defaults.get(spec.path), bool), spec

    def test_config_show_lists_every_field(self, capsys):
        assert main(["config", "show"]) == 0
        out = capsys.readouterr().out
        for path in field_paths():
            assert path in out
        assert "variant key" in out

    def test_config_dump_round_trips(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        assert main(["config", "dump", "--seed", "7", "--strategy", "random",
                     "--out", str(path)]) == 0
        cfg = SessionConfig.load(str(path))
        assert cfg.search.seed == 7
        assert cfg.search.strategy == "random"


class TestConfigFile:
    def _tune_args(self):
        return ["tune", "G1", "--seed", "3", "--strategy", "random",
                "--max-rounds", "2", "--no-cache"]

    def test_config_file_tune_bit_identical(self, capsys, tmp_path, monkeypatch):
        for var in ("REPRO_SEARCH_SEED", "REPRO_SEARCH_STRATEGY",
                    "REPRO_SEARCH_MAX_ROUNDS", "REPRO_CACHE_ENABLED"):
            monkeypatch.delenv(var, raising=False)
        assert main(self._tune_args()) == 0
        via_flags = capsys.readouterr().out

        path = tmp_path / "cfg.json"
        assert main(["config", "dump", "--seed", "3", "--strategy", "random",
                     "--max-rounds", "2", "--no-cache",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["tune", "G1", "--config", str(path)]) == 0
        via_file = capsys.readouterr().out
        assert via_file == via_flags

    def test_flags_override_config_file(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        SessionConfig.make(strategy="random", max_rounds=2, min_rounds=1,
                           cache_enabled=False).save(str(path))
        assert main(["tune", "G1", "--config", str(path),
                     "--strategy", "annealing"]) == 0
        out = capsys.readouterr().out
        assert "annealing strategy" in out

    def test_env_overrides_config_file(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        SessionConfig.make(seed=3).save(str(path))
        monkeypatch.setenv("REPRO_SEARCH_SEED", "9")
        assert main(["config", "dump", "--config", str(path)]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert dumped["search"]["seed"] == 9

    def test_missing_config_file_fails(self, tmp_path, capsys):
        with pytest.raises((SystemExit, OSError)):
            main(["tune", "G1", "--config", str(tmp_path / "nope.json")])


class TestTraceCommand:
    def test_trace_chain_workload(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "G1", "--out", str(out_path),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "root-span coverage" in out
        assert "chrome trace written" in out
        import json

        from repro.obs import validate_chrome_trace

        doc = json.loads(out_path.read_text(encoding="utf-8"))
        validate_chrome_trace(doc)
        names = {e["name"] for e in doc["traceEvents"]}
        assert "tune" in names and "search.round" in names
        assert (tmp_path / "cache" / "traces.jsonl").exists()

    def test_env_trace_on_tune_writes_jsonl(self, tmp_path, monkeypatch, capsys):
        """``REPRO_OBS_TRACE=1`` traces a session-driven verb: closing the
        session turns tracing off and leaves the spans in the cache dir."""
        from repro.obs import load_trace_jsonl, tracing_enabled

        monkeypatch.setenv("REPRO_OBS_TRACE", "1")
        assert main(["tune", "G1", "--cache-dir", str(tmp_path)]) == 0
        spans = load_trace_jsonl(tmp_path / "traces.jsonl")
        assert any(s["name"] == "tune" for s in spans)
        assert not tracing_enabled()

    def test_trace_leaves_tracing_disabled(self, tmp_path):
        from repro.obs import tracing_enabled

        assert main(["trace", "G1", "--out", str(tmp_path / "t.json"),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert not tracing_enabled()

    def test_metrics_prom_after_serve(self, capsys, tmp_path):
        assert main(["serve", "--quick", "--clients", "2", "--requests", "2",
                     "--signatures", "2", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["metrics", "--prom", "--cache-dir", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_requests_total 4" in text

    def test_serve_trace_writes_artifacts(self, capsys, tmp_path):
        assert main(["serve", "--quick", "--trace", "--clients", "2",
                     "--requests", "2", "--signatures", "2",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "chrome trace at" in out
        import json

        from repro.obs import validate_chrome_trace

        doc = json.loads((tmp_path / "serve_trace.json").read_text(encoding="utf-8"))
        validate_chrome_trace(doc)
        assert any(e["name"] == "serve.request" for e in doc["traceEvents"])

    def test_serve_without_trace_writes_no_trace_files(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_OBS_TRACE", raising=False)
        assert main(["serve", "--quick", "--clients", "2", "--requests", "2",
                     "--signatures", "2", "--cache-dir", str(tmp_path)]) == 0
        assert "chrome trace at" not in capsys.readouterr().out
        assert not (tmp_path / "serve_trace.json").exists()
        assert not (tmp_path / "traces.jsonl").exists()
