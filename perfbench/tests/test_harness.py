"""Tests of the benchmark harness itself (no network is built).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from perfbench.check import CheckError, check_invariants, check_journal, check_same, digest
from perfbench.harness import Campaign, layer_metrics, per_layer, percentile
from perfbench.spans import HOOKS, FirstCallProbe, HookError, Hooks, Span, SpanRecorder, _Patch, covered, self_times
from perfbench.workloads import END_TO_END, NAME_RE, PER_LAYER, WORKLOADS, benchmark_document
from repro.core.campaign import CampaignResult, CampaignSpec, TrialRecord
from repro.core.checkpoint import CheckpointWriter
from repro.core.outcome import Outcome

ROOT = Path(__file__).resolve().parents[2]
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- names and BENCHMARK.json ------------------------------------------------


def test_names_are_well_formed_and_unique():
    names = [w.name for w in WORKLOADS] + [m["name"] for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    for m in END_TO_END + PER_LAYER:
        assert UNIT_RE.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    for w in WORKLOADS:
        assert "\n" not in w.why and len(w.why) <= 200


def test_benchmark_json_matches_the_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == benchmark_document()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert 1 <= doc["run_seconds"] <= 60
    assert 4 + 22 * len(doc["workloads"]) <= 3420 / (doc["run_seconds"] + 15)


def test_every_per_layer_metric_names_what_it_moves():
    workloads = {w.name for w in WORKLOADS}
    e2e = {m["name"] for m in END_TO_END}
    for m in PER_LAYER:
        assert m["moves"]["metric"] in e2e
        assert set(m["moves"]["workloads"]) <= workloads and m["moves"]["workloads"]


# -- self-time arithmetic -------------------------------------------------------


def _spans(*rows) -> list[Span]:
    return [Span(id=i, name=n, start=a, end=b, parent=p) for i, (n, a, b, p) in enumerate(rows)]


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(1, 3), (2, 5), (7, 8)], 2.5, 7.5) == 3
    assert covered([(0, 1), (1, 2)], 0, 10) == 2


def test_self_time_of_nested_spans():
    spans = _spans(
        ("campaign", 0.0, 10.0, None),
        ("injector.prepare", 1.0, 4.0, 0),
        ("network.propagate", 2.0, 3.0, 1),
        ("checkpoint.flush", 5.0, 6.5, 0),
    )
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 5.5, 1: 2.0, 2: 1.0, 3: 1.5})
    # Self times partition the root interval.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_inside_a_window():
    spans = _spans(
        ("campaign", 0.0, 10.0, None),
        ("network.forward", 0.5, 1.5, 0),
        ("fault.sample", 2.0, 3.0, 0),
        ("checkpoint.flush", 9.0, 11.0, 0),
    )
    windowed = self_times(spans, window=(2.0, 10.0))
    assert windowed[0] == pytest.approx(8.0 - 1.0 - 1.0)
    assert windowed[1] == 0.0
    assert windowed[3] == pytest.approx(1.0)


def test_recorder_nests_by_call_stack():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    root = rec.begin("campaign")
    child = rec.begin("fault.sample")
    rec.finish(child)
    rec.finish(root)
    assert child.parent == root.id and root.parent is None
    assert (root.start, child.start, child.end, root.end) == (0, 1, 2, 3)
    assert self_times(rec.spans) == {0: 2.0, 1: 1.0}


def test_layer_metrics_split_golden_from_propagation():
    spans = _spans(
        ("campaign", 0.0, 10.0, None),
        ("network.forward", 0.5, 1.0, 0),
        ("fault.sample", 2.0, 2.5, 0),
        ("network.forward", 3.0, 4.0, 0),
        ("network.propagate", 5.0, 7.0, 0),
    )
    spans[3].attrs["trials"] = 1
    spans[4].attrs["trials"] = 16
    c = Campaign.__new__(Campaign)
    c.spans, c.t_first, c.attempted = spans, 2.0, 32
    counts, times, durations = layer_metrics(c)
    assert counts["network.golden.calls"] == 1
    assert counts["network.propagate.calls"] == 2
    assert counts["network.propagate.trials"] == 17
    assert times["network.golden"] == pytest.approx(0.5)
    assert times["campaign.self_s"] == pytest.approx(8.0 - 0.5 - 1.0 - 2.0)
    values = per_layer([c, c])["values"]
    assert set(values) == {m["name"] for m in PER_LAYER}
    assert values["network.propagate.trials"] == 17
    assert values["fault.sample.calls"] == 1


def test_percentile():
    assert percentile([], 99) == 0.0
    assert percentile([4.0], 50) == 4.0
    assert percentile([float(i) for i in range(1, 102)], 50) == pytest.approx(51.0)
    assert percentile([float(i) for i in range(1, 102)], 99) == pytest.approx(100.0)


# -- hook guard -------------------------------------------------------------------


def test_hooks_install_and_restore():
    import repro.core.campaign as campaign
    from repro.nn.network import Network

    before = (campaign.prepare_buffer, Network.forward_from_batch)
    with Hooks(SpanRecorder()):
        assert campaign.prepare_buffer is not before[0]
        assert Network.forward_from_batch is not before[1]
    assert (campaign.prepare_buffer, Network.forward_from_batch) == before
    with FirstCallProbe():
        assert campaign.sample_datapath_fault.__wrapped__ is not None
    assert not hasattr(campaign.sample_datapath_fault, "__wrapped__")


def test_missing_hooked_name_fails_loudly():
    with pytest.raises(HookError, match="no_such_entry_point"):
        _Patch([("repro.core.campaign", "no_such_entry_point", "x", "plain")], None)
    with pytest.raises(HookError, match="NoSuchClass"):
        _Patch([("repro.nn.network:NoSuchClass", "forward", "x", "plain")], None)
    layers = {h[2] for h in HOOKS}
    for w in WORKLOADS:
        assert set(w.exercises) <= layers | {"network.golden"}


# -- output checks ------------------------------------------------------------------


def _record(masked: bool, sdc1: bool = False, sdc5: bool = False) -> TrialRecord:
    outcome = Outcome(masked=masked, sdc1=sdc1, sdc5=sdc5, sdc10=sdc1, sdc20=False)
    return TrialRecord(outcome=outcome, bit=3, site="mul_out", block=1,
                       value_before=1.0, value_after=float("nan"))


def _result(n: int = 6) -> CampaignResult:
    spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=n)
    # Even trials masked, trials 1 and 3 SDC-1, trial 1 also SDC-5.
    recs = [_record(masked=i % 2 == 0, sdc1=i in (1, 3), sdc5=i == 1) for i in range(n)]
    return CampaignResult(spec=spec, records=recs)


def test_digest_counts_outcomes():
    d = digest(_result())
    assert (d["trials"], d["masked"], d["sdc1"], d["sdc5"], d["quarantined"]) == (6, 3, 2, 1, 0)
    check_invariants(_result())


def test_tampered_digest_fails_the_output_check():
    good = digest(_result())
    check_same([good, digest(_result())], "same seed")
    tampered = dict(good, sdc1=good["sdc1"] + 1)
    with pytest.raises(CheckError, match="sdc1"):
        check_same([good, tampered], "same seed")
    changed = _result()
    changed.records[1] = dataclasses.replace(changed.records[1], value_after=2.0)
    with pytest.raises(CheckError, match="sha256"):
        check_same([good, digest(changed)], "same seed")


def test_invariant_violation_fails_the_output_check():
    bad = _result()
    bad.records[0] = _record(masked=True, sdc1=True)
    with pytest.raises(CheckError, match="masked"):
        check_invariants(bad)


def test_journal_round_trip_and_tamper(tmp_path):
    result = _result()
    path = tmp_path / "campaign.jsonl"
    writer = CheckpointWriter(path, result.spec)
    for i, rec in enumerate(result.records):
        writer.add_record(i, rec)
    writer.flush()
    check_journal(result, path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace('"bit": 3', '"bit": 4')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckError, match="differ"):
        check_journal(result, path)
