"""Bench: the propagation flight recorder must be free when off.

Every trial now passes through the tracer's hook points even when no
tracing was requested: ``CampaignSpec.trace_selected`` decides whether
the trial is traced (computing the ``traced`` flag in ``sample_trial``)
and the emission guard in ``_SafeTrialTask._complete`` checks that flag
before returning the bare record.  ``trace_mode="off"`` is the default for every campaign in
the repo, so that off-path cost is paid by *all* existing workloads —
the ``OBL-TRACE-OVERHEAD`` obligation pins it below 1% of per-trial
runtime.

Protocol: time one serial ConvNet datapath campaign (trace off) for the
per-trial denominator, then microbench the per-trial hook work itself —
one ``trace_selected`` call plus the ``meta.get`` guard — over enough
iterations to resolve it.  The ratio is the overhead percentage; it is
a vast overestimate of reality (the hook is two dict/modulo operations
against a forward pass over a whole network) which is exactly what a
"must be free" floor wants.
"""

from time import perf_counter

from conftest import _registry
from repro.core.campaign import CampaignSpec, run_campaign

SPEC = CampaignSpec(
    network="ConvNet",
    dtype="FLOAT16",
    target="datapath",
    n_trials=64,
    seed=0,
)
HOOK_ITERS = 200_000


def _measure():
    run_campaign(SPEC)  # warm: weight cache on disk, network memo
    start = perf_counter()
    run_campaign(SPEC)
    campaign_s = perf_counter() - start
    per_trial_s = campaign_s / SPEC.n_trials

    meta = {"traced": False}
    start = perf_counter()
    for trial in range(HOOK_ITERS):
        if SPEC.trace_selected(trial) or meta.get("traced"):
            raise AssertionError("trace_mode=off selected a trial")
    hook_s = (perf_counter() - start) / HOOK_ITERS
    return campaign_s, per_trial_s, hook_s


def test_bench_trace_overhead(run_once):
    campaign_s, per_trial_s, hook_s = run_once(_measure)
    overhead_pct = 100.0 * hook_s / per_trial_s
    registry = _registry()
    registry.set_gauge("trace/off_campaign_s", campaign_s)
    registry.set_gauge("trace/off_hook_us", hook_s * 1e6)
    registry.set_gauge("trace/off_overhead_pct", overhead_pct)
    print(f"\ncampaign (trace off)   {campaign_s:8.2f}s  ({per_trial_s * 1e3:.2f} ms/trial)")
    print(f"per-trial hook cost    {hook_s * 1e6:8.3f}us  ({overhead_pct:.4f}% of a trial)")
    assert overhead_pct < 1.0, (
        f"tracing-off hook costs {overhead_pct:.3f}% of per-trial runtime (floor: < 1%)"
    )
