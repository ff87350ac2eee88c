"""Run one workload: repeated campaigns through the public ``run_campaign``.

Untraced runs give the end-to-end metrics.  A run covers a fixed set of
distinct campaigns derived from its seed, so seed-to-seed differences in
fault mix average out within the run.  Each campaign is timed from
the ``run_campaign`` call to the first fault sample (its set-up: weight
load, network build, golden inference, SED learning) and from there to
the return (its trial phase).  Traced runs alternate an untraced and a
traced run of the first campaign: the traced ones give the per-layer
metrics, the pairs give the tracing overhead.
"""

from __future__ import annotations

import gc
import itertools
import resource
import shutil
import statistics
import time
from pathlib import Path

from repro.core.campaign import CampaignSpec, run_campaign
from repro.zoo.registry import clear_cache

from perfbench.check import CheckError, check_invariants, check_journal, check_same, digest
from perfbench.spans import (
    FirstCallProbe,
    HookError,
    Hooks,
    Span,
    SpanRecorder,
    dump_spans,
    self_times,
)
from perfbench.workloads import PER_LAYER, Workload

__all__ = [
    "Campaign",
    "campaign_seed",
    "layer_metrics",
    "measure",
    "per_layer",
    "percentile",
    "run_campaign_once",
]

#: Layer groups ranked for the "top layer by self time" finding.
GROUPS = {
    "checkpoint+tracer": ("checkpoint.flush", "tracer.build", "tracer.flush"),
}


class Campaign:
    """Timings, digest and (when traced) spans of one campaign."""

    def __init__(self, result, t0: float, t_first: float, t1: float, spans=None,
                 errors: list[str] | None = None):
        self.digest = digest(result)
        self.errors = errors or []
        self.attempted = self.digest["trials"]
        self.failed = self.digest["quarantined"]
        self.setup_s = t_first - t0
        self.trial_s = t1 - t_first
        self.trials_per_s = (self.attempted - self.digest["skipped"]) / self.trial_s
        self.t_first = t_first
        self.spans: list[Span] | None = spans


def run_campaign_once(w: Workload, seed: int, scratch: Path, traced: bool) -> Campaign:
    """Run the workload's campaign once, from a cold network memo."""
    spec = CampaignSpec(seed=seed, **w.spec)
    workdir = scratch / f"campaign-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    checkpoint = workdir / "campaign.jsonl" if w.checkpoint else None
    # A trial that raises is quarantined and counted as failed, instead
    # of aborting the campaign (the default budget is zero errors).
    options = {"jobs": 1, "batch": w.batch, "checkpoint": checkpoint, "max_error_frac": 1.0}
    # Every campaign pays weight load + network build, as a new
    # repro-campaign process would (the on-disk weight store is warm).
    clear_cache()
    gc.collect()
    try:
        if traced:
            recorder = SpanRecorder()
            with Hooks(recorder):
                root = recorder.begin("campaign")
                result = run_campaign(spec, **options)
                recorder.finish(root)
            samples = [s for s in recorder.spans if s.name == "fault.sample"]
            if not samples:
                raise HookError("no fault.sample span: set-up end is unknown")
            t0, t_first, t1 = root.start, samples[0].start, root.end
            spans = recorder.spans
        else:
            with FirstCallProbe() as probe:
                t0 = time.perf_counter()
                result = run_campaign(spec, **options)
                t1 = time.perf_counter()
            if probe.first is None:
                raise HookError("no fault sample was drawn: set-up end is unknown")
            t_first, spans = probe.first, None
        errors = []
        try:
            check_invariants(result)
            if checkpoint is not None:
                check_journal(result, checkpoint)
        except CheckError as exc:
            errors.append(str(exc))
        return Campaign(result, t0, t_first, t1, spans, errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def percentile(values: list[float], q: int) -> float:
    """``q``-th percentile (inclusive method); 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _layer_of(sp: Span, t_first: float) -> str:
    # Network.forward is golden inference during set-up; any call after
    # the first fault sample is propagation.
    if sp.name == "network.forward":
        return "network.golden" if sp.start < t_first else "network.propagate"
    return sp.name


def layer_metrics(c: Campaign) -> tuple[dict, dict, dict]:
    """``(counts, times, durations)`` of one traced campaign.

    ``counts`` are exact (calls, trials, bytes); ``times`` are self times
    in seconds per layer, plus ``campaign.self_s`` over the trial phase;
    ``durations`` are inclusive per-call seconds for the percentiles.
    """
    spans = c.spans
    selfs = self_times(spans)
    root = next(s for s in spans if s.parent is None)
    counts: dict[str, int] = {}
    times: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    masked = 0
    for sp in spans:
        if sp is root:
            continue
        layer = _layer_of(sp, c.t_first)
        counts[layer + ".calls"] = counts.get(layer + ".calls", 0) + 1
        times[layer] = times.get(layer, 0.0) + selfs[sp.id]
        durations.setdefault(layer, []).append(sp.end - sp.start)
        masked += sp.attrs.get("masked", False)
        if layer == "network.propagate":
            counts["network.propagate.trials"] = (
                counts.get("network.propagate.trials", 0) + sp.attrs["trials"]
            )
        if "bytes" in sp.attrs:
            key = layer.split(".")[0] + ".bytes_written"
            counts[key] = counts.get(key, 0) + sp.attrs["bytes"]
    counts["injector.masked"] = masked
    times["campaign.self_s"] = self_times(spans, window=(c.t_first, root.end))[root.id]
    return counts, times, durations


def per_layer(traced: list[Campaign]) -> dict:
    """Per-layer metric values over the traced campaigns.

    Counts must repeat exactly across the traced campaigns; self times
    are medians over them; percentiles pool every call of every traced
    campaign.  Also returns the self-time ranking of the layers (with
    the checkpoint and tracer layers grouped) and the sample counts.
    """
    per = [layer_metrics(c) for c in traced]
    counts = per[0][0]
    check_same([p[0] for p in per], "exact per-layer counts of the traced campaigns")
    busy = {
        layer: statistics.median(p[1].get(layer, 0.0) for p in per)
        for layer in {k for p in per for k in p[1]}
    }
    pooled: dict[str, list[float]] = {}
    for p in per:
        for layer, ds in p[2].items():
            pooled.setdefault(layer, []).extend(ds)
    prep_calls = counts.get("injector.prepare.calls", 0)
    values: dict[str, float | int] = {}
    for m in PER_LAYER:
        name = m["name"]
        layer, _, stat = name.rpartition(".")
        if stat in ("calls", "trials", "bytes_written"):
            values[name] = counts.get(name, 0)
        elif stat == "busy_s":
            values[name] = busy.get(layer, 0.0)
        elif stat in ("p50_us", "p99_us", "p50_ms", "p99_ms"):
            scale = 1e6 if stat.endswith("_us") else 1e3
            values[name] = percentile(pooled.get(layer, []), int(stat[1:3])) * scale
        elif name == "injector.masked_ratio":
            values[name] = counts["injector.masked"] / prep_calls if prep_calls else 0.0
        elif name == "checkpoint.bytes_per_trial":
            values[name] = counts.get("checkpoint.bytes_written", 0) / traced[0].attempted
        elif name == "campaign.self_s":
            values[name] = busy[name]
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    grouped = {g: sum(busy.get(x, 0.0) for x in members) for g, members in GROUPS.items()}
    in_group = {x for members in GROUPS.values() for x in members}
    grouped.update({
        layer: t for layer, t in busy.items() if layer != "campaign.self_s" and layer not in in_group
    })
    return {
        "values": values,
        "ranking": sorted(grouped.items(), key=lambda kv: kv[1], reverse=True),
        "samples": {layer: len(ds) for layer, ds in pooled.items()},
    }


def campaign_seed(seed: int, k: int) -> int:
    """``CampaignSpec.seed`` of the ``k``-th distinct campaign of run ``seed``."""
    return seed * 100 + k


def measure(w: Workload, seed: int, seconds: float, trace: bool, scratch: Path,
            span_dump: Path | None = None) -> dict:
    """Run the workload for ``seconds`` and return its metrics and report.

    Untraced, the run cycles through ``w.campaigns`` distinct campaigns
    (seeds :func:`campaign_seed`) until ``seconds`` have passed and at
    least one campaign has run twice; ``trials_per_s`` is the trials of
    one pass over the distinct campaigns divided by the sum of their
    median trial-phase times, so every run covers the same inputs.
    Traced, it alternates untraced and traced runs of the first campaign,
    at least twice each.

    Output-check failures are collected in ``report["errors"]``;
    :class:`HookError` is raised when a hook is missing or a layer the
    workload must exercise recorded no calls.
    """
    plain: dict[int, list[Campaign]] = {}
    traced: list[Campaign] = []
    distinct = 1 if trace else w.campaigns
    start = time.perf_counter()
    for n in itertools.count():
        k = n % distinct
        plain.setdefault(k, []).append(run_campaign_once(w, campaign_seed(seed, k), scratch, False))
        if trace:
            traced.append(run_campaign_once(w, campaign_seed(seed, k), scratch, True))
        if n >= distinct and time.perf_counter() - start >= seconds:
            break
    every = [c for runs in plain.values() for c in runs] + traced
    errors = [e for c in every for e in c.errors]
    for k, runs in plain.items():
        try:
            check_same([c.digest for c in runs + (traced if k == 0 else [])],
                       f"{w.name} campaign seed {campaign_seed(seed, k)}")
        except CheckError as exc:
            errors.append(str(exc))
    trial_s = sum(statistics.median(c.trial_s for c in runs) for runs in plain.values())
    report: dict = {
        "errors": errors,
        "campaigns": len(every),
        "digests": {campaign_seed(seed, k): runs[0].digest for k, runs in plain.items()},
        "attempted": sum(c.attempted for c in every),
        "failed": sum(c.failed for c in every),
        "trials_per_s": sum(runs[0].attempted for runs in plain.values()) / trial_s,
        "campaign_trials_per_s": [c.trials_per_s for runs in plain.values() for c in runs],
        "setup_s": [c.setup_s for runs in plain.values() for c in runs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if not trace:
        return report
    for c in traced:
        counts = layer_metrics(c)[0]
        idle = [layer for layer in w.exercises if not counts.get(layer + ".calls")]
        if idle:
            raise HookError(f"{w.name}: layers recorded no calls: {', '.join(idle)}")
    try:
        report.update(per_layer(traced))
    except CheckError as exc:
        errors.append(str(exc))
        report.update(per_layer(traced[:1]))
    report["traced_trials_per_s"] = statistics.median(c.trials_per_s for c in traced)
    if span_dump is not None:
        dump_spans(span_dump, [c.spans for c in traced])
    return report
