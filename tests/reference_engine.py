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

:func:`reference_row_activation` is the same kind of oracle for the
Img-REG corruption build: it corrupts a copy of the ifmap and replays
every affected (filter, column) chain one at a time through
``mac_operands`` and ``replay_chain`` (``DataType.partials``), with none
of the injector's gather/multiply/accumulate batching.

:func:`reference_euclidean_by_block` is Figure 7's distance as it was
computed before the flight recorder's rows carried ``l2``: a value
difference over the whole activation tensor, with no bitwise mask.
"""

from __future__ import annotations

import numpy as np

from repro.core.campaign import (
    CampaignSpec,
    TrialRecord,
    _CampaignTask,
    build_golden_state,
    record_trial_metrics,
)
from repro.core.fault import BufferFault
from repro.core.injector import InjectionResult, PreparedInjection, replay_chain
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import build_trace

__all__ = [
    "reference_injection",
    "reference_campaign",
    "reference_row_activation",
    "reference_euclidean_by_block",
]


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
    task = task if task is not None else _CampaignTask(spec, build_golden_state(spec))
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


def reference_row_activation(
    network, dtype, fault: BufferFault, golden, storage_dtype=None
) -> PreparedInjection:
    """Img-REG corruption built chain by chain (see the module docstring).

    Returns what ``prepare_buffer`` must return for a ``row_activation``
    fault: the corrupted register feeds only the windows of
    ``fault.residency_row`` that cover the victim pixel.
    """
    li = fault.layer_index
    layer = network.layers[li]
    store = storage_dtype or dtype
    x = golden.activations[li]
    before = float(x[fault.victim])
    masked = PreparedInjection(li + 1, True, before, before)
    _, yy, xx = fault.victim
    oy = fault.residency_row
    y0 = oy * layer.stride - layer.pad
    if not y0 <= yy <= y0 + layer.kernel - 1:
        return masked
    after = float(store.flip_bits(np.array([before]), fault.bit, fault.burst)[0])
    if after == before:
        return masked
    x_bad = x.copy()
    x_bad[fault.victim] = dtype.quantize(np.array([after]))[0]
    narrow = storage_dtype is not None and li in network.block_output_indices()
    _, _, ow = layer.out_shape(x.shape)
    act = golden.activations[li + 1].copy()
    changed = False
    for ox in range(ow):
        x0 = ox * layer.stride - layer.pad
        if not x0 <= xx <= x0 + layer.kernel - 1:
            continue
        for f in range(layer.out_channels):
            idx = (f, oy, ox)
            ok = np.array([replay_chain(dtype, layer.mac_operands(x, idx, dtype))])
            bad = np.array([replay_chain(dtype, layer.mac_operands(x_bad, idx, dtype))])
            if narrow:
                ok, bad = storage_dtype.quantize(ok), storage_dtype.quantize(bad)
            if not np.array_equal(ok, bad, equal_nan=True):
                act[idx] = bad[0]
                changed = True
    if not changed:
        return masked
    return PreparedInjection(li + 1, False, before, after, act, (oy, oy + 1))


def reference_euclidean_by_block(network, golden, injection, points: dict[int, int]) -> dict[int, float]:
    """Euclidean distance between faulty and golden ACTs at each sample point.

    Points upstream of the fault were not re-executed and read 0.
    Non-finite deviations count as 10x the largest finite one (capped at
    1e149, never below 10), and every deviation is clipped to +-1e150
    before squaring.
    """
    distances: dict[int, float] = {}
    for block, li in points.items():
        j = li - injection.resume_index + 1
        if j < 0 or j >= len(injection.faulty_activations):
            distances[block] = 0.0
            continue
        faulty = injection.faulty_activations[j]
        ref = golden.activations[li + 1]
        with np.errstate(invalid="ignore", over="ignore"):
            diff = faulty - ref
        bad = ~np.isfinite(diff)
        if bad.any():
            finite_mag = min(float(np.abs(diff[~bad]).max(initial=0.0)), 1e149)
            diff = np.where(bad, max(finite_mag, 1.0) * 10.0, diff)
        diff = np.clip(diff, -1e150, 1e150)
        distances[block] = float(np.sqrt((diff * diff).sum()))
    return distances
