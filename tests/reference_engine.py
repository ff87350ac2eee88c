"""Per-trial full-recompute reference campaign: the test oracle.

The campaign runner propagates every trial through
``Network.forward_from_batch`` (delta propagation over dirty rows,
dead-trial collapse, grouped trials).  This module rebuilds a campaign
from public pieces with none of that machinery: each trial is sampled
(``sample_trial``), its corruption built (``build_trial``), propagated
alone through the full-recompute ``Network.forward_from`` and classified
(``complete_trial``).  What it returns is an independent statement of
what the campaign must produce, so parity tests and the batched
propagation bench compare against it rather than against the engine
they measure.
"""

from __future__ import annotations

from repro.core.campaign import (
    CampaignSpec,
    TrialRecord,
    _CampaignTask,
    record_trial_metrics,
)
from repro.core.injector import InjectionResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import build_trace

__all__ = ["reference_injection", "reference_campaign"]


def reference_injection(task: _CampaignTask, prep, meta: dict) -> InjectionResult:
    """Propagate one prepared corruption with a full forward pass."""
    golden = meta["golden"]
    if prep.masked:
        return InjectionResult(
            scores=golden.scores, masked=True, value_before=prep.value_before,
            value_after=prep.value_before, resume_index=prep.resume_index,
        )
    res = task.network.forward_from(
        prep.resume_index, prep.act, dtype=task.dtype, record=meta["record"],
        storage_dtype=task.storage_dtype,
    )
    return InjectionResult(
        scores=res.scores,
        masked=False,
        value_before=prep.value_before,
        value_after=prep.value_after,
        resume_index=prep.resume_index,
        faulty_activations=res.activations if meta["record"] else [],
    )


def reference_campaign(
    spec: CampaignSpec, task: _CampaignTask | None = None
) -> tuple[list[TrialRecord], dict, dict[int, dict]]:
    """Run ``spec`` trial by trial; returns ``(records, metrics, traces)``.

    ``metrics`` is the registry snapshot the runner's per-trial folds
    would produce; ``traces`` maps trial index -> trace row for the
    traced subset.  No early stopping: every trial propagates.
    """
    task = task if task is not None else _CampaignTask(spec)
    metrics = MetricsRegistry()
    records: list[TrialRecord] = []
    traces: dict[int, dict] = {}
    for trial in range(spec.n_trials):
        fault, meta = task.sample_trial(trial)
        prep = task.build_trial(fault, meta)
        injection = reference_injection(task, prep, meta)
        record = task.complete_trial(meta, injection)
        record_trial_metrics(metrics, record)
        records.append(record)
        if meta["traced"]:
            traces[trial] = build_trace(
                trial=trial,
                meta=meta,
                injection=injection,
                record=record,
                network=task.network,
                detector=task.detector,
                detector_checkpoints=task.detector_checkpoints,
            )
    return records, metrics.snapshot(), traces
