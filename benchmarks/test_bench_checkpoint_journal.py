"""Bench: checkpoint cost per trial must not grow with the campaign.

The paper's campaigns run about 3M injections (Section 4), and a
checkpoint is what makes a killed run cheap to resume.  A writer that
rewrites every completed trial on each flush costs O(N) per flush and
O(N^2) per campaign; the append-only journal writes each trial's line
once, plus one compaction at the end.  ``OBL-CHECKPOINT-FLAT`` pins
that: the per-trial cost at 65,536 trials stays within 1.5x of the cost
at 4,096.

Protocol: run one small traced ConvNet campaign for real records and
trace rows, then replicate them over fresh indices (trial ``j`` reuses
base trial ``j % BASE``; ``BASE`` is a multiple of the trace stride, so
``j`` is traced exactly when its base trial is).  Trials reach the
writer in shuffled chunks, as a worker pool delivers them, so the final
compaction really re-sorts the file.  Each size is timed from the first
``add_record`` through ``compact()``: serialisation, a flush every
``CADENCE`` trials, and the compaction.  Best of ``REPEATS``.
"""

import json
from time import perf_counter

import numpy as np

from conftest import _registry
from repro.core.campaign import CampaignSpec, run_campaign
from repro.core.checkpoint import CheckpointWriter, load_checkpoint

SPEC = CampaignSpec(
    network="ConvNet",
    dtype="FLOAT16",
    target="datapath",
    n_trials=64,
    seed=0,
    trace_mode="sample",
)
BASE = SPEC.n_trials
SIZES = (4_096, 65_536)
CADENCE = 64  # run_campaign's default checkpoint_every
CHUNK = 64  # run_campaign's default inter-process chunk
REPEATS = 3


def _arrival_order(n: int) -> list[int]:
    """Trial indices in shuffled chunk order (a worker pool's arrival)."""
    chunks = [list(range(s, min(s + CHUNK, n))) for s in range(0, n, CHUNK)]
    order = np.random.default_rng(0).permutation(len(chunks))
    return [i for k in order for i in chunks[k]]


def _journal(path, base, traces, n: int) -> float:
    order = _arrival_order(n)
    start = perf_counter()
    writer = CheckpointWriter(path, SPEC)
    for count, index in enumerate(order, start=1):
        writer.add_record(index, base[index % BASE], traces.get(index % BASE))
        if count % CADENCE == 0:
            writer.flush()
    writer.compact()
    return perf_counter() - start


def _measure(tmp_path):
    result = run_campaign(SPEC)
    base, traces = result.records, result.traces
    assert len(base) == BASE and traces
    us_per_trial = {}
    for n in SIZES:
        path = tmp_path / f"journal-{n}.jsonl"
        best = min(_journal(path, base, traces, n) for _ in range(REPEATS))
        us_per_trial[n] = best / n * 1e6
        state = load_checkpoint(path, spec=SPEC)
        assert state is not None and sorted(state.records) == list(range(n))
        assert len(state.traces) == sum(SPEC.trace_selected(i) for i in range(n))
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert [json.loads(line)["index"] for line in lines] == list(range(n)), (
            "compaction left the journal out of index order"
        )
    return us_per_trial


def test_bench_checkpoint_journal(run_once, tmp_path):
    us_per_trial = run_once(_measure, tmp_path)
    small, large = (us_per_trial[n] for n in SIZES)
    flat_ratio = large / small
    registry = _registry()
    registry.set_gauge("checkpoint/us_per_trial_4k", small)
    registry.set_gauge("checkpoint/us_per_trial_65k", large)
    registry.set_gauge("checkpoint/flat_ratio", flat_ratio)
    for n in SIZES:
        print(f"\n{n:>6d} trials  {us_per_trial[n]:8.2f} us/trial")
    print(f"65k / 4k       {flat_ratio:8.3f}")
    assert flat_ratio <= 1.5, (
        f"checkpoint cost per trial grows with N: 65k/4k = {flat_ratio:.2f} (bound: <= 1.5)"
    )
