"""CLI tests (python -m repro ...)."""

import hashlib
import json

import pytest

from repro.cli import main


class TestScheduleCommand:
    def test_default_model(self, capsys):
        assert main(["schedule"]) == 0
        out = capsys.readouterr().out
        assert "Transformer-base" in out
        assert "21,578" in out

    def test_preset_and_seq_len(self, capsys):
        assert main(["--model", "bert-base", "--seq-len", "32",
                     "schedule"]) == 0
        out = capsys.readouterr().out
        assert "BERT-base" in out
        assert "s=32" in out

    def test_unknown_model_is_clean_error(self, capsys):
        assert main(["--model", "gpt-4", "schedule"]) == 1
        assert "error:" in capsys.readouterr().err


class TestOtherCommands:
    def test_resources(self, capsys):
        assert main(["resources"]) == 0
        out = capsys.readouterr().out
        assert "weight_memory" in out
        assert "456" in out

    def test_power(self, capsys):
        assert main(["power"]) == 0
        assert "16.7" in capsys.readouterr().out

    def test_tables_at_paper_point(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "21,344" in out          # paper MHA cycles
        assert "14.6x" in out           # paper speedup
        assert "471,563" in out         # paper top LUT

    def test_tables_off_paper_point_falls_back(self, capsys):
        assert main(["--seq-len", "32", "tables"]) == 0
        out = capsys.readouterr().out
        assert "21,344" not in out

    def test_trace(self, tmp_path, capsys):
        out_file = tmp_path / "t.json"
        assert main(["trace", "--block", "ffn", "--out",
                     str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["otherData"]["block"] == "ffn"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_schedule_gantt(self, capsys):
        assert main(["schedule", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "MHA schedule" in out
        assert "FFN schedule" in out
        assert "#" in out  # SA track bars

    def test_selftest_exit_code_zero(self, capsys):
        assert main(["selftest"]) == 0


class TestServeSimCommand:
    def test_metrics_table(self, capsys):
        assert main(["serve-sim", "--requests", "40", "--rate", "1000",
                     "--max-len", "32", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "serving — Transformer-base" in out
        assert "p99 latency" in out
        assert "SA utilization" in out
        assert "rejection rate" in out

    def test_compare_batch1(self, capsys):
        assert main(["serve-sim", "--requests", "40", "--rate", "2000",
                     "--max-len", "32", "--compare-batch1"]) == 0
        out = capsys.readouterr().out
        assert "dynamic batching vs batch-1" in out
        assert "speed-up" in out

    def test_trace_out(self, tmp_path, capsys):
        out_file = tmp_path / "serve.json"
        assert main(["serve-sim", "--requests", "20", "--max-len", "32",
                     "--trace-out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["traceEvents"]

    def test_bad_placement_is_clean_error(self, capsys):
        # layer_shard across more devices than there are layer units
        assert main(["serve-sim", "--requests", "10", "--devices", "99",
                     "--placement", "layer_shard"]) == 1
        assert "error:" in capsys.readouterr().err


class TestMemsysCommand:
    def test_preset_sweep(self, capsys):
        assert main(["memsys"]) == 0
        out = capsys.readouterr().out
        assert "ddr4-2400" in out
        assert "lpddr4-2133" in out
        assert "steady-state crossover" in out
        assert "compute" in out and "memory" in out

    def test_explicit_bandwidths(self, capsys):
        assert main(["memsys", "--bandwidths", "4", "64"]) == 0
        out = capsys.readouterr().out
        assert "4 GB/s" in out
        assert "64 GB/s" in out

    def test_no_double_buffer_exposes_stalls(self, capsys):
        assert main(["memsys", "--bandwidths", "19.2"]) == 0
        db_out = capsys.readouterr().out
        assert main(["memsys", "--bandwidths", "19.2",
                     "--no-double-buffer"]) == 0
        serial_out = capsys.readouterr().out
        assert "prefetch on" in db_out
        assert "prefetch off" in serial_out
        assert db_out != serial_out


class TestServeSimMemoryFlags:
    def test_bandwidth_and_cache_flags(self, capsys):
        assert main(["serve-sim", "--requests", "30", "--max-len", "32",
                     "--bandwidth-gbps", "19.2",
                     "--weight-cache-kib", "45056"]) == 0
        out = capsys.readouterr().out
        assert "weight-cache hit rate" in out
        assert "0.0%" not in out.split("hit rate")[1].splitlines()[0]

    def test_memory_preset_with_no_cache(self, capsys):
        assert main(["serve-sim", "--requests", "30", "--max-len", "32",
                     "--memory-preset", "ddr4-2400",
                     "--no-weight-cache"]) == 0
        out = capsys.readouterr().out
        assert "weight-cache misses" in out

    def test_unknown_preset_is_clean_error(self, capsys):
        assert main(["serve-sim", "--requests", "10",
                     "--memory-preset", "sram-9000"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_flags_keeps_flat_reload(self, capsys):
        assert main(["serve-sim", "--requests", "30",
                     "--max-len", "32"]) == 0
        out = capsys.readouterr().out
        # Flat accounting: the memory counters exist but stay zero.
        assert "reload stall cycles" in out


class TestProfileCommand:
    def test_paper_point_matches_closed_form(self, capsys):
        assert main(["profile"]) == 0
        out = capsys.readouterr().out
        assert "MHA cycle attribution" in out
        assert "FFN cycle attribution" in out
        assert out.count("exact match") == 2
        assert "21,578" in out
        assert "39,052" in out

    def test_single_block_with_memory(self, capsys):
        assert main(["profile", "--block", "mha",
                     "--bandwidth-gbps", "8"]) == 0
        out = capsys.readouterr().out
        assert "FFN" not in out
        assert "dram" in out
        assert "exact match" in out

    def test_artifact_outputs(self, tmp_path, capsys):
        folded = tmp_path / "profile.folded"
        metrics = tmp_path / "metrics.json"
        prom = tmp_path / "metrics.prom"
        assert main(["profile", "--collapsed", str(folded),
                     "--json", str(metrics), "--prom", str(prom)]) == 0
        lines = folded.read_text().strip().splitlines()
        assert sum(
            int(line.rsplit(" ", 1)[1]) for line in lines
        ) == 21_578 + 39_052
        payload = json.loads(metrics.read_text())
        names = {m["name"] for m in payload["metrics"]}
        assert "repro_schedule_cycles_total" in names
        assert "repro_schedule_cycles_total" in prom.read_text()


class TestBenchDiffCommand:
    def _write(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "BENCH_smoke.json"
        baseline.write_text(json.dumps({
            "config_fingerprint": "aaaa",
            "headlines": {
                "cycles.mha_total": {
                    "value": 21578, "direction": "lower", "rel_tol": 0.0,
                },
            },
        }))
        current.write_text(json.dumps({
            "suite": "smoke",
            "config_fingerprint": "bbbb",
            "headlines": {"cycles.mha_total": 21578},
        }))
        return str(baseline), str(current)

    def test_clean_run_passes(self, tmp_path, capsys):
        baseline, current = self._write(tmp_path)
        assert main(["bench-diff", "--current", current,
                     "--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert "gate passed" in out
        assert "config fingerprint changed" in out

    def test_seeded_slowdown_fails(self, tmp_path, capsys):
        baseline, current = self._write(tmp_path)
        report = tmp_path / "report.json"
        assert main(["bench-diff", "--current", current,
                     "--baseline", baseline,
                     "--seed-slowdown", "1.2",
                     "--json", str(report)]) == 1
        out = capsys.readouterr().out
        assert "gate FAILED" in out
        assert "cycles.mha_total" in out
        assert json.loads(report.read_text())["passed"] is False

    def test_missing_baseline_is_clean_error(self, tmp_path, capsys):
        _, current = self._write(tmp_path)
        assert main(["bench-diff", "--current", current,
                     "--baseline", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestIgnoredGlobalFlagsRefused:
    """A global flag a command would silently drop is refused instead."""

    @pytest.mark.parametrize(("argv", "flag"), [
        (["--seq-len", "128", "--clock-mhz", "100", "profile"],
         "--seq-len"),
        (["--clock-mhz", "100", "profile"], "--clock-mhz"),
        (["--model", "bert-base", "profile", "--point", "transformer-big"],
         "--model"),
        (["--clock-mhz", "150", "cluster-sim"], "--clock-mhz"),
        (["--clock-mhz", "150", "slo-report"], "--clock-mhz"),
        (["--clock-mhz", "150", "trace", "--requests", "cluster"],
         "--clock-mhz"),
        (["--seq-len", "32", "selftest"], "--seq-len"),
        (["--model", "bert-base", "bench-diff"], "--model"),
    ])
    def test_exits_1_naming_the_flag(self, capsys, argv, flag):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} has no effect on ")

    @pytest.mark.parametrize(("argv", "flag"), [
        (["--model", "bert-base", "check"], "--model"),
        (["--seq-len", "32", "check", "--point", "paper"], "--seq-len"),
        (["--clock-mhz", "100", "check"], "--clock-mhz"),
        (["--clock-mhz", "100", "check", "--point", "transformer-big"],
         "--clock-mhz"),
        (["--model", "bert-base", "check", "--point", "transformer-big"],
         "--model"),
    ])
    def test_check_exits_2_naming_the_flag(self, capsys, argv, flag):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} has no effect on check")

    def test_defaults_spelled_out_are_accepted(self, capsys):
        assert main(["--model", "transformer-base", "--seq-len", "64",
                     "--clock-mhz", "200", "profile"]) == 0
        assert "s=64" in capsys.readouterr().out


class TestDecodeSimOutput:
    def test_summary_table_is_pinned(self, capsys):
        # sha256 of the stdout before DecodeMetrics.as_rows() replaced
        # the command's own row builder.
        assert main(["decode-sim", "--streams", "24", "--seed", "7",
                     "--compare-policies"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4331734c30d31efe000ccac1f67afd8253e0f98860a6ffa794c549049ebb473c"
        )
