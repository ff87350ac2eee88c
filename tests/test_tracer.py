"""Propagation flight recorder: per-layer traces, byte parity, CLI.

The tracer's load-bearing promise is the repo's usual one, extended to a
new artifact: a trace row is a pure function of (spec, trial index), so
the trace JSONL is byte-identical across serial / ``--jobs N`` /
``--batch N`` / shared-memory / kill-resume executions — including the
batched engine's dead-trial collapse, which must report the same
masking layer as the serial path.  Everything here either asserts that
directly or exercises the machinery around it (sampling-as-identity,
trace rows journaled with their records, the ``repro-obs trace``
renderings).
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.campaign import CampaignSpec, run_campaign
from repro.core.checkpoint import campaign_fingerprint, load_checkpoint
from repro.core.serialize import campaign_summary
from repro.obs import cli as obs_cli
from repro.obs.tracer import (
    TraceWriter,
    default_trace_path,
    load_trace,
    trace_depth_histogram,
    trace_deviation_by_depth,
    trace_layer_matrix,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

SPEC = CampaignSpec(
    network="ConvNet", dtype="FLOAT16", n_trials=24, n_inputs=2, seed=3,
    trace_mode="all",
)

#: Every key a trace row must carry (docs/observability.md schema).
ROW_KEYS = {
    "index", "site", "block", "bit", "resume_layer", "value_before",
    "value_after", "masked_at_injection", "injected", "layers", "depth",
    "masking", "detector_layer", "outcome", "detected", "reached_output",
}


class TestTraceIdentity:
    def test_spec_validates_trace_fields(self):
        with pytest.raises(ValueError):
            CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=4,
                         trace_mode="everything")
        with pytest.raises(ValueError):
            CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=4,
                         trace_mode="sample", trace_every=0)

    def test_trace_mode_is_campaign_identity(self):
        base = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=24, seed=3)
        traced = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=24, seed=3,
                              trace_mode="all")
        strided = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=24, seed=3,
                               trace_mode="sample", trace_every=8)
        prints = {campaign_fingerprint(s) for s in (base, traced, strided)}
        assert len(prints) == 3

    def test_sample_stride_selects_by_index(self):
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=24,
                            n_inputs=2, seed=3, trace_mode="sample", trace_every=8)
        result = run_campaign(spec)
        assert sorted(result.traces) == [0, 8, 16]
        assert all(row["index"] == i for i, row in result.traces.items())

    def test_off_mode_traces_nothing(self):
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=8,
                            n_inputs=2, seed=3)
        result = run_campaign(spec)
        assert result.traces == {}

    def test_serial_jobs_batch_shm_byte_identical(self, tmp_path):
        files = {}
        for label, kwargs in {
            "serial": {},
            "jobs2": {"jobs": 2},
            "batch16": {"batch": 16},
        }.items():
            path = tmp_path / f"{label}.trace.jsonl"
            run_campaign(SPEC, trace_path=path, **kwargs)
            files[label] = path.read_bytes()
        assert files["serial"] == files["jobs2"] == files["batch16"]

    def test_batched_dead_trial_collapse_masking_layer_matches_serial(self):
        # The batched engine retires dead trials by patching golden rows
        # back in; the first all-clean layer it reports must be the same
        # one the serial path sees, trial by trial.
        serial = run_campaign(SPEC)
        batched = run_campaign(SPEC, batch=16)
        assert sorted(serial.traces) == sorted(batched.traces)
        for index, row in serial.traces.items():
            assert batched.traces[index]["masking"] == row["masking"], index
        assert serial.traces == batched.traces

    def test_row_schema_and_masked_at_injection(self):
        result = run_campaign(SPEC)
        assert len(result.traces) == SPEC.n_trials
        saw_masked = saw_live = False
        for row in result.traces.values():
            assert set(row) == ROW_KEYS
            if row["masked_at_injection"]:
                saw_masked = True
                # The flip quantized back onto the golden word: nothing
                # ever propagated, so there is no layer story to tell.
                assert row["depth"] == 0
                assert row["layers"] == [] and row["injected"] is None
                assert row["masking"] is None
            elif row["layers"]:
                saw_live = True
                assert row["injected"]["corrupted"] >= 0
                killed = [e for e in row["layers"] if e["corrupted"] == 0]
                if killed:
                    assert row["masking"]["layer"] == killed[0]["layer"]
                    assert row["masking"]["kind"] in (
                        "relu_zero_kill", "pool_absorb", "quantization_clip")
                else:
                    assert row["masking"] is None
        assert saw_masked and saw_live

    def test_row_reached_output_equals_record(self):
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=24, n_inputs=2,
                            seed=3, bit=14, record_propagation=True, trace_mode="all")
        result = run_campaign(spec)
        rows = [result.traces[i]["reached_output"] for i in sorted(result.traces)]
        assert rows == [record.reached_output for record in result.records]
        assert True in rows and False in rows
        # Without record_propagation the rows still say it; records do not.
        untracked = run_campaign(dataclasses.replace(spec, record_propagation=False))
        assert all(record.reached_output is None for record in untracked.records)
        assert [untracked.traces[i]["reached_output"] for i in sorted(untracked.traces)] == rows

    def test_detector_layer_recorded_with_sed(self):
        spec = CampaignSpec(
            network="ConvNet", dtype="FLOAT16", n_trials=24, n_inputs=2, seed=3,
            bit=14, with_detection=True, detector_kind="sed", trace_mode="all",
        )
        result = run_campaign(spec)
        fired = [r for r in result.traces.values() if r["detector_layer"] is not None]
        assert fired, "no traced trial recorded a detector-firing layer at bit 14"
        for row in fired:
            assert row["detected"] is True
            assert any(e["layer"] == row["detector_layer"] for e in row["layers"])


class TestTraceResume:
    def _truncate_rows(self, path: Path, keep: int) -> None:
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([lines[0]] + lines[1: 1 + keep]) + "\n",
                        encoding="utf-8")

    def test_resume_retrace_rebuilds_truncated_trace(self, tmp_path):
        ref_ck = tmp_path / "ref.jsonl"
        run_campaign(SPEC, checkpoint=ref_ck)
        ref_trace = default_trace_path(ref_ck)
        want = ref_trace.read_bytes()

        self._truncate_rows(ref_trace, keep=SPEC.n_trials // 3)
        resumed = run_campaign(SPEC, checkpoint=ref_ck, resume=True)
        assert ref_trace.read_bytes() == want
        assert resumed.traces == run_campaign(SPEC).traces
        # The rows live in the checkpoint with their records: nothing
        # re-runs, and the trace file is republished from the journal.
        assert resumed.stats.resumed == SPEC.n_trials

    def test_record_without_trace_row_reruns(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        run_campaign(SPEC, checkpoint=ck)
        trace = default_trace_path(ck)
        want_ck, want_trace = ck.read_bytes(), trace.read_bytes()

        # A version-1 style line: the record made it, its row did not.
        lines = ck.read_text(encoding="utf-8").splitlines()
        stripped = [1, 7, 20]
        for i in stripped:
            entry = json.loads(lines[1 + i])
            assert entry["index"] == i
            del entry["trace"]
            lines[1 + i] = json.dumps(entry, sort_keys=True)
        ck.write_text("\n".join(lines) + "\n", encoding="utf-8")
        trace.unlink()
        state = load_checkpoint(ck, spec=SPEC)
        assert sorted(set(range(SPEC.n_trials)) - set(state.records)) == stripped

        resumed = run_campaign(SPEC, checkpoint=ck, resume=True)
        assert resumed.stats.resumed == SPEC.n_trials - len(stripped)
        assert ck.read_bytes() == want_ck
        assert trace.read_bytes() == want_trace

    def test_rows_of_another_trace_version_rerun(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        run_campaign(SPEC, checkpoint=ck)
        trace = default_trace_path(ck)
        want_ck, want_trace = ck.read_bytes(), trace.read_bytes()

        # A journal written before rows carried ``l2``: no trace_version
        # in the header, no ``l2`` in the rows.
        lines = ck.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        del header["trace_version"]
        old = [json.dumps(header, sort_keys=True)]
        for line in lines[1:]:
            entry = json.loads(line)
            for stats in [entry["trace"]["injected"], *entry["trace"]["layers"]]:
                if stats is not None:
                    del stats["l2"]
            old.append(json.dumps(entry, sort_keys=True))
        ck.write_text("\n".join(old) + "\n", encoding="utf-8")
        trace.unlink()
        state = load_checkpoint(ck, spec=SPEC)
        assert state.traces == {} and state.records == {}

        resumed = run_campaign(SPEC, checkpoint=ck, resume=True)
        assert resumed.stats.resumed == 0
        assert ck.read_bytes() == want_ck
        assert trace.read_bytes() == want_trace

    def test_fingerprint_mismatch_trace_is_rebuilt(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        run_campaign(SPEC, checkpoint=ck)
        trace = default_trace_path(ck)
        want = trace.read_bytes()

        lines = trace.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["fingerprint"] = "0" * len(header["fingerprint"])
        trace.write_text("\n".join([json.dumps(header, sort_keys=True)] + lines[1:]) + "\n",
                         encoding="utf-8")
        resumed = run_campaign(SPEC, checkpoint=ck, resume=True)
        assert trace.read_bytes() == want
        # The stale trace file is never read: every row comes back from
        # the checkpoint journal, and no trial re-runs.
        assert resumed.stats.resumed == SPEC.n_trials

    def test_kill_midflight_then_resume_trace_byte_identical(self, tmp_path):
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=30, seed=5,
                            trace_mode="all")
        path = tmp_path / "killed.jsonl"
        env = dict(os.environ)
        env["REPRO_CAMPAIGN_FAULT"] = "slow:*:0.05"
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.core.cli",
             "--network", "ConvNet", "--trials", "30", "--seed", "5",
             "--trace", "all",
             "--checkpoint", str(path), "--checkpoint-every", "4"],
            env=env, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        trace = default_trace_path(path)
        try:
            # The trace file appears only at completion; the checkpoint
            # journal (records with their rows) proves the run is mid-flight.
            deadline = time.perf_counter() + 60.0
            while time.perf_counter() < deadline and not path.exists():
                time.sleep(0.05)
                if proc.poll() is not None:
                    pytest.fail("campaign finished before it could be killed")
            assert path.exists(), "no checkpoint appeared before the deadline"
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        assert not trace.exists()
        partial = load_checkpoint(path, spec=spec)
        assert partial is not None and len(partial.traces) < spec.n_trials
        assert sorted(partial.traces) == sorted(partial.records)

        resumed = run_campaign(spec, checkpoint=path, resume=True)
        reference_trace = tmp_path / "reference.trace.jsonl"
        reference = run_campaign(spec, trace_path=reference_trace)
        assert trace.read_bytes() == reference_trace.read_bytes()
        assert resumed.traces == reference.traces


class TestTraceWriterAndLoad:
    def test_snapshot_roundtrip_and_stable_header(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        writer = TraceWriter(path, fingerprint="abc123", mode="all", every=16)
        writer.add_row({"index": 1, "depth": 0})
        writer.add_row({"index": 0, "depth": 2})
        writer.flush()
        header, rows = load_trace(path)
        # No path or wall-clock in the header: byte-identity across runs.
        assert set(header) == {"format", "version", "fingerprint", "trace"}
        assert header["fingerprint"] == "abc123"
        assert sorted(rows) == [0, 1]
        # Rows are republished in index order regardless of arrival.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[1])["index"] == 0

    def test_load_trace_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        writer = TraceWriter(path, fingerprint="abc", mode="all", every=16)
        writer.add_row({"index": 0, "depth": 1})
        writer.flush()
        with open(path, "a") as fh:  # repro: noqa[RP108] — simulating the tear
            fh.write('{"index": 1, "dep')
        header, rows = load_trace(path)
        assert header is not None and sorted(rows) == [0]

    def test_load_trace_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "notatrace.jsonl"
        path.write_text('{"format": "something-else"}\n')
        header, rows = load_trace(path)
        assert header is None and rows == {}


class TestTraceSummaryAndManifest:
    def test_campaign_summary_trace_section(self):
        result = run_campaign(SPEC)
        summary = campaign_summary(result)
        assert summary["trace"] == {"mode": "all", "every": 16,
                                    "rows": SPEC.n_trials}
        untraced = run_campaign(
            CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=8,
                         n_inputs=2, seed=3))
        assert "trace" not in campaign_summary(untraced)

    def test_manifest_records_batch_and_trace_config(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        run_campaign(SPEC, checkpoint=ck, batch=4)
        manifest = json.loads(
            ck.with_name(ck.name + ".manifest.json").read_text())
        meta = manifest["run"]
        assert meta["batch"] == 4
        assert meta["trace"]["mode"] == "all"
        assert meta["trace"]["every"] == SPEC.trace_every
        assert meta["trace"]["path"] == str(default_trace_path(ck))

    def test_diff_flags_trace_and_batch_as_execution_not_divergence(self, tmp_path, capsys):
        ck_a, ck_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_campaign(SPEC, checkpoint=ck_a)
        run_campaign(SPEC, checkpoint=ck_b, batch=4, jobs=2)
        manifest_a = str(ck_a.with_name(ck_a.name + ".manifest.json"))
        manifest_b = str(ck_b.with_name(ck_b.name + ".manifest.json"))
        # Different batch/jobs/trace-path: still exit 0 (no fact diverges),
        # but the knob table calls the difference out.
        assert obs_cli.main(["diff", manifest_a, manifest_b]) == 0
        out = capsys.readouterr().out
        assert "execution knobs differ" in out
        assert "batch" in out


class TestTraceCli:
    @pytest.fixture()
    def traced_run(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        run_campaign(SPEC, checkpoint=ck)
        return ck

    def test_render_aggregate_from_trace_file(self, traced_run, capsys):
        assert obs_cli.main(["trace", str(default_trace_path(traced_run))]) == 0
        out = capsys.readouterr().out
        assert "propagation trace" in out
        assert "depth" in out and "killed" in out

    def test_render_resolves_from_manifest_and_checkpoint(self, traced_run, capsys):
        manifest = traced_run.with_name(traced_run.name + ".manifest.json")
        for source in (manifest, traced_run):
            assert obs_cli.main(["trace", str(source)]) == 0
            assert "propagation trace" in capsys.readouterr().out

    def test_render_single_trial_narrative(self, traced_run, capsys):
        assert obs_cli.main(
            ["trace", str(default_trace_path(traced_run)), "--trial", "0"]) == 0
        out = capsys.readouterr().out
        assert "traced trial" in out and "outcome" in out

    def test_untraced_trial_exits_one(self, tmp_path, capsys):
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=16,
                            n_inputs=2, seed=3, trace_mode="sample", trace_every=8)
        ck = tmp_path / "ck.jsonl"
        run_campaign(spec, checkpoint=ck)
        assert obs_cli.main(
            ["trace", str(default_trace_path(ck)), "--trial", "3"]) == 1
        assert "not in the traced subset" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert obs_cli.main(["trace", str(tmp_path / "nope.trace.jsonl")]) == 2
        assert "repro-obs" in capsys.readouterr().err

    def test_untraced_campaign_exits_two(self, tmp_path, capsys):
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=8,
                            n_inputs=2, seed=3)
        ck = tmp_path / "ck.jsonl"
        run_campaign(spec, checkpoint=ck)
        assert obs_cli.main(
            ["trace", str(ck.with_name(ck.name + ".manifest.json"))]) == 2
        assert "trace" in capsys.readouterr().err


class TestTraceAggregations:
    ROWS = {
        0: {"depth": 0, "masked_at_injection": True, "layers": []},
        1: {"depth": 2, "layers": [
            {"layer": 1, "name": "relu1", "kind": "relu", "corrupted": 4,
             "max_abs_dev": 2.0},
            {"layer": 2, "name": "pool1", "kind": "pool", "corrupted": 1,
             "max_abs_dev": 1.0},
            {"layer": 3, "name": "relu2", "kind": "relu", "corrupted": 0,
             "max_abs_dev": 0.0},
        ]},
        2: {"depth": 1, "layers": [
            {"layer": 1, "name": "relu1", "kind": "relu", "corrupted": 2,
             "max_abs_dev": "inf"},
            {"layer": 2, "name": "pool1", "kind": "pool", "corrupted": 0,
             "max_abs_dev": 0.0},
        ]},
    }

    def test_depth_histogram(self):
        assert trace_depth_histogram(self.ROWS) == {0: 1, 1: 1, 2: 1}

    def test_layer_matrix(self):
        matrix = trace_layer_matrix(self.ROWS)
        assert matrix[1] == {"name": "relu1", "kind": "relu",
                             "entered": 2, "killed": 0, "survived": 2}
        assert matrix[2]["entered"] == 2 and matrix[2]["killed"] == 1
        assert matrix[3]["killed"] == 1

    def test_deviation_by_depth_skips_nonfinite(self):
        table = trace_deviation_by_depth(self.ROWS)
        # Step 1: two live traces, but the "inf" deviation is excluded
        # from the finite aggregates.
        assert table[1]["live"] == 2
        assert table[1]["max_abs_dev"] == 2.0
        assert table[2] == {"live": 1, "max_abs_dev": 1.0, "mean_abs_dev": 1.0}


class TestPropagationExperiment:
    def test_registered_and_runs(self):
        from repro.experiments import ext_propagation
        from repro.experiments.common import ExperimentConfig
        from repro.experiments.runner import EXPERIMENTS

        assert EXPERIMENTS["propagation"] is ext_propagation
        cfg = ExperimentConfig(trials=8, seed=123)
        result = ext_propagation.run(cfg)
        assert set(result["networks"]) == set(ext_propagation.PROP_NETWORKS)
        for data in result["networks"].values():
            assert data["traced"] == cfg.trials
            locus_total = (data["masked_at_injection"]
                           + sum(data["masking_locus"].values())
                           + data["reached_output"])
            assert locus_total == cfg.trials
        rendering = ext_propagation.render(result)
        assert "masking locus" in rendering and "ConvNet" in rendering
