"""Shared infrastructure for the per-table/figure experiment modules.

Every experiment module exposes:

- ``run(cfg: ExperimentConfig) -> dict``: compute the artifact's data.
- ``render(result: dict) -> str``: paper-style plain-text rendering.

The :mod:`repro.experiments.runner` CLI dispatches on experiment id and
wires up trial counts, scale, seed and parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.campaign import CampaignResult, CampaignSpec, run_campaign

__all__ = ["ExperimentConfig", "campaign", "PAPER_NETWORKS", "IMAGENET_NETWORKS"]

#: All networks, Table 2 order.
PAPER_NETWORKS = ("ConvNet", "AlexNet", "CaffeNet", "NiN")
#: Networks using the ImageNet-like corpus (everything but ConvNet).
IMAGENET_NETWORKS = ("AlexNet", "CaffeNet", "NiN")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs common to every experiment.

    Attributes:
        trials: Baseline injection count per campaign (experiments scale
            this down for fine-grained sweeps such as per-bit campaigns).
        scale: Network scale profile.
        seed: Root seed.
        jobs: Worker processes for campaigns (1 = inline).
        batch: Trials propagated per batched forward pass (1 = one
            trial per pass; results are bit-identical either way).
        trial_timeout: Per-trial seconds before a hung chunk is killed
            and retried (None disables deadlines).
        max_retries: Retry budget per failing chunk / raising trial.
        max_error_frac: Quarantined-trial fraction tolerated per campaign
            before aborting (see docs/resilience.md).
        checkpoint_dir: When set, every campaign snapshots completed
            trials to ``<dir>/<fingerprint>.jsonl``.
        resume: Skip trial indices already present in a campaign's
            checkpoint file (requires ``checkpoint_dir``).
        obs_dir: When set, every campaign writes a run manifest and a
            structured JSONL run log to ``<dir>/<fingerprint>.manifest.json``
            / ``<dir>/<fingerprint>.runlog.jsonl`` (docs/observability.md).
        progress: Seconds between live progress lines on stderr
            (0 disables).
        spans: Collect hierarchical timing spans in every campaign.
        target_halfwidth: When set, overrides every campaign spec's
            Wilson-CI early-stopping target (docs/architecture.md,
            "Early stopping").  Spec-identity caveat: this *changes* the
            campaign fingerprint, so checkpoints/manifests from runs
            without it do not resume into runs with it.
        stop_stratify: Stratum key for the stopping rule (only applied
            when ``target_halfwidth`` is set).
        stop_check_every: Trial-index boundary between stop decisions
            (only applied when ``target_halfwidth`` is set).
    """

    trials: int = 300
    scale: str = "reduced"
    seed: int = 0
    jobs: int = 1
    batch: int = 1
    trial_timeout: float | None = None
    max_retries: int = 2
    max_error_frac: float = 0.0
    checkpoint_dir: str | None = None
    resume: bool = False
    obs_dir: str | None = None
    progress: float = 0.0
    spans: bool = False
    target_halfwidth: float | None = None
    stop_stratify: str = "overall"
    stop_check_every: int = 64

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be positive")


_campaign_cache: dict[CampaignSpec, CampaignResult] = {}


def campaign(spec: CampaignSpec, jobs: int = 1, cfg: ExperimentConfig | None = None) -> CampaignResult:
    """Run (or reuse) a campaign; memoized per spec within the process.

    Several experiments share identical campaigns (e.g. Figure 3's rates
    feed Table 6's FIT calculation); the memo avoids re-running them.

    Args:
        spec: Campaign to run.
        jobs: Worker processes; superseded by ``cfg.jobs`` when ``cfg``
            is given.
        cfg: When given, its resilience knobs (timeout, retries, error
            budget, checkpointing) are applied to the run.
    """
    if cfg is not None and cfg.target_halfwidth is not None:
        # Early stopping is part of the campaign identity (it changes
        # which trials run), so it belongs on the spec — and must be
        # applied *before* the memo lookup and fingerprinting.
        spec = replace(
            spec,
            target_halfwidth=cfg.target_halfwidth,
            stop_stratify=cfg.stop_stratify,
            stop_check_every=cfg.stop_check_every,
        )
    cached = _campaign_cache.get(spec)
    if cached is None:
        kwargs: dict = {}
        if cfg is not None:
            jobs = cfg.jobs
            kwargs = dict(
                batch=cfg.batch,
                trial_timeout=cfg.trial_timeout,
                max_retries=cfg.max_retries,
                max_error_frac=cfg.max_error_frac,
                spans=cfg.spans,
                progress_every=cfg.progress,
            )
            if cfg.checkpoint_dir is not None or cfg.obs_dir is not None:
                from repro.core.checkpoint import campaign_fingerprint

                fingerprint = campaign_fingerprint(spec)
                if cfg.checkpoint_dir is not None:
                    kwargs["checkpoint"] = (
                        Path(cfg.checkpoint_dir) / f"{fingerprint}.jsonl"
                    )
                    kwargs["resume"] = cfg.resume
                if cfg.obs_dir is not None:
                    obs_dir = Path(cfg.obs_dir)
                    kwargs["manifest"] = obs_dir / f"{fingerprint}.manifest.json"
                    kwargs["run_log"] = obs_dir / f"{fingerprint}.runlog.jsonl"
            if cfg.progress > 0:
                from repro.obs.events import EventRecorder
                from repro.obs.progress import ProgressReporter

                recorder = EventRecorder()
                recorder.add_sink(ProgressReporter(min_interval=cfg.progress))
                kwargs["events"] = recorder
        cached = run_campaign(spec, jobs=jobs, **kwargs)
        _campaign_cache[spec] = cached
    return cached
