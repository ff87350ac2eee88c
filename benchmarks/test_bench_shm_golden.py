"""Bench: shared-memory golden state vs per-worker golden inference.

A multi-worker campaign builds its golden state once, in the parent
(golden inference over every evaluation input plus SED detector
learning), publishes it into a ``multiprocessing.shared_memory``
segment, and workers attach read-only views (docs/architecture.md,
"Shared golden state").  The baseline is what every worker did before
the state was shared: build its own golden state on pool start — pure
duplicated work, since trial outcomes depend on the golden *bits*, not
on who computed them.  Records are bit-identical by contract; this bench
measures what the sharing buys and enforces the >= 1.5x floor at
jobs >= 2.

Protocol: the init-dominated regime the sharing exists for — full-scale
NiN (all-conv, so forwards are expensive while the weight payload stays
small) with the SED detector, 8 evaluation inputs, and a chunk size
that puts work on both workers so each one pays the duplicated init.
The baseline drives a per-worker task factory through ``map_trials``;
the shared run is ``run_campaign``.  One timed run per mode after a
warm-up that fills the on-disk weight cache and the in-process network
memo (inherited by forked workers, so neither mode pays weight
generation).
"""

import json
from time import perf_counter

from conftest import _registry
from repro.core.campaign import CampaignSpec, _SafeTrialTask, build_golden_state, run_campaign
from repro.core.serialize import to_jsonable
from repro.utils.parallel import map_trials

SPEC = CampaignSpec(
    network="NiN",
    dtype="FLOAT16",
    target="datapath",
    n_trials=32,
    scale="full",
    n_inputs=8,
    seed=0,
    with_detection=True,
    detector_kind="sed",
)
JOBS = 2
BATCH = 16
CHUNK = 16  # 32 trials / 16 = one chunk per worker: both must initialise


def _per_worker_task():
    """Each worker builds its own golden state (the unshared baseline)."""
    return _SafeTrialTask(SPEC, build_golden_state(SPEC), batch=BATCH)


def _timed(fn):
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


def _measure():
    shared_run = lambda: run_campaign(SPEC, jobs=JOBS, batch=BATCH, chunk=CHUNK).records
    baseline_run = lambda: map_trials(
        _per_worker_task, jobs=JOBS, chunk=CHUNK, indices=range(SPEC.n_trials)
    )
    shared_run()  # warm: weight cache on disk, network memo in the parent
    baseline_s, baseline = _timed(baseline_run)
    shm_s, shared = _timed(shared_run)
    identical = json.dumps(to_jsonable(baseline)) == json.dumps(to_jsonable(shared))
    return baseline_s, shm_s, identical


def test_bench_shm_golden(run_once):
    baseline_s, shm_s, identical = run_once(_measure)
    speedup = baseline_s / shm_s
    registry = _registry()
    registry.set_gauge("campaign/shm_baseline_s", baseline_s)
    registry.set_gauge("campaign/shm_shared_s", shm_s)
    registry.set_gauge("campaign/shm_speedup", speedup)
    print(f"\nper-worker golden inference  {baseline_s:6.2f}s")
    print(f"shared golden segment        {shm_s:6.2f}s  ({speedup:.2f}x)")
    assert identical, "shared-golden records diverge from the per-worker baseline"
    assert speedup >= 1.5, (
        f"shared golden state below the 1.5x floor at jobs={JOBS}: {speedup:.2f}x"
    )
