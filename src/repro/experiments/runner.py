"""Experiment CLI: ``repro-exp <experiment> [--trials N] [--scale S] ...``

Dispatches to the per-table/figure experiment modules and prints their
paper-style renderings.  ``repro-exp all`` runs everything (budget the
trial count accordingly); ``repro-exp list`` enumerates experiment ids.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (
    e2e_protected_fit,
    ext_depth,
    ext_dmr_baseline,
    ext_lrn_ablation,
    ext_mapping,
    ext_propagation,
    ext_proteus,
    fig3_datatype_sdc,
    fig4_bit_position,
    fig5_value_deviation,
    fig6_layer_sdc,
    fig7_euclidean,
    fig8_sed,
    fig9_slh,
    table1_reuse,
    table2_networks,
    table3_dtypes,
    table4_value_ranges,
    table5_bitwise_sdc,
    table6_datapath_fit,
    table7_eyeriss_scaling,
    table8_buffer_fit,
)
from repro.experiments.common import ExperimentConfig

__all__ = ["EXPERIMENTS", "main", "run_experiment"]

#: Experiment id -> module, in paper order.
EXPERIMENTS = {
    "table1": table1_reuse,
    "table2": table2_networks,
    "table3": table3_dtypes,
    "fig3": fig3_datatype_sdc,
    "fig4": fig4_bit_position,
    "fig5": fig5_value_deviation,
    "table4": table4_value_ranges,
    "fig6": fig6_layer_sdc,
    "fig7": fig7_euclidean,
    "table5": table5_bitwise_sdc,
    "table6": table6_datapath_fit,
    "table7": table7_eyeriss_scaling,
    "table8": table8_buffer_fit,
    "fig8": fig8_sed,
    "fig9": fig9_slh,
    "e2e": e2e_protected_fit,
    # Extensions beyond the paper's evaluation (its stated future work).
    "proteus": ext_proteus,
    "dmr": ext_dmr_baseline,
    "mapping": ext_mapping,
    "lrn": ext_lrn_ablation,
    "depth": ext_depth,
    "propagation": ext_propagation,
}


def run_experiment(exp_id: str, cfg: ExperimentConfig, out_dir: str | None = None) -> str:
    """Run one experiment, optionally persisting its raw result as JSON.

    Args:
        exp_id: Experiment identifier (see :data:`EXPERIMENTS`).
        cfg: Trial budget / scale / seed / parallelism.
        out_dir: When given, write ``<out_dir>/<exp_id>.json`` (sanitized
            raw result) and ``<out_dir>/<exp_id>.txt`` (rendering).

    Returns:
        The paper-style text rendering.
    """
    try:
        module = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}") from None
    observer = None
    if out_dir is not None:
        from pathlib import Path

        from repro.obs.manifest import RunObserver

        base = Path(out_dir)
        observer = RunObserver(
            manifest_path=base / f"{exp_id}.manifest.json",
            run_log_path=base / f"{exp_id}.runlog.jsonl",
            kind="experiment",
            meta={
                "experiment": exp_id,
                "title": module.TITLE,
                "trials": cfg.trials,
                "scale": cfg.scale,
                "seed": cfg.seed,
                "jobs": cfg.jobs,
            },
        )
        observer.begin()
    try:
        result = module.run(cfg)
        rendering = module.render(result)
    except BaseException:
        if observer is not None:
            observer.finish(status="failed")
        raise
    if out_dir is not None:
        from pathlib import Path

        from repro.core.serialize import save_json

        base = Path(out_dir)
        save_json(result, base / f"{exp_id}.json")
        base.mkdir(parents=True, exist_ok=True)
        (base / f"{exp_id}.txt").write_text(rendering + "\n")
        if observer is not None:
            observer.finish(
                status="completed",
                summary={"artifacts": [f"{exp_id}.json", f"{exp_id}.txt"]},
            )
    return rendering


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Reproduce tables/figures of Li et al., SC'17.",
    )
    parser.add_argument("experiment", help="experiment id, 'all', or 'list'")
    parser.add_argument("--trials", type=int, default=300, help="injections per campaign")
    parser.add_argument("--scale", choices=("reduced", "full"), default="reduced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (0 = all cores)")
    parser.add_argument("--batch", type=int, default=1,
                        help="trials propagated per batched forward pass "
                             "(>= 1; 1 = one trial per pass; results are bit-identical)")
    parser.add_argument("--out", default=None, help="directory for JSON/text artifacts")
    stopping = parser.add_argument_group("early stopping (docs/architecture.md)")
    stopping.add_argument("--target-halfwidth", type=float, default=None, metavar="W",
                          help="stop sampling each campaign stratum once its Wilson "
                               "95%% half-width drops to W (changes campaign "
                               "fingerprints; deterministic across jobs/batch/resume)")
    stopping.add_argument("--stop-stratify", choices=("overall", "site", "block", "bit"),
                          default="overall",
                          help="stratum key the stopping rule tracks")
    stopping.add_argument("--stop-check-every", type=int, default=64, metavar="N",
                          help="trial-index boundary between stop decisions")
    resilience = parser.add_argument_group("resilience (docs/resilience.md)")
    resilience.add_argument("--trial-timeout", type=float, default=None, metavar="SEC",
                            help="per-trial time budget; hung chunks are killed and retried")
    resilience.add_argument("--max-retries", type=int, default=2, metavar="N",
                            help="retry budget per failing chunk before bisection/quarantine")
    resilience.add_argument("--max-error-frac", type=float, default=0.0, metavar="F",
                            help="abort a campaign once more than this fraction of trials "
                                 "is quarantined")
    resilience.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                            help="snapshot each campaign to <DIR>/<fingerprint>.jsonl")
    resilience.add_argument("--resume", action="store_true",
                            help="skip trials already recorded under --checkpoint-dir")
    obs = parser.add_argument_group("observability (docs/observability.md)")
    obs.add_argument("--obs-dir", default=None, metavar="DIR",
                     help="write each campaign's run manifest + JSONL run log to "
                          "<DIR>/<fingerprint>.*")
    obs.add_argument("--progress", type=float, default=0.0, metavar="SEC", nargs="?",
                     const=2.0,
                     help="print live campaign progress every SEC seconds "
                          "(default 2.0 when given without a value)")
    obs.add_argument("--spans", action="store_true",
                     help="collect hierarchical timing spans in every campaign")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for exp_id, module in EXPERIMENTS.items():
            print(f"{exp_id:8s} {module.TITLE}")
        return 0

    if args.resume and args.checkpoint_dir is None:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.batch < 1:
        print(f"--batch must be >= 1, got {args.batch}", file=sys.stderr)
        return 2

    cfg = ExperimentConfig(
        trials=args.trials, scale=args.scale, seed=args.seed, jobs=args.jobs,
        batch=args.batch,
        trial_timeout=args.trial_timeout, max_retries=args.max_retries,
        max_error_frac=args.max_error_frac, checkpoint_dir=args.checkpoint_dir,
        resume=args.resume, obs_dir=args.obs_dir, progress=args.progress,
        spans=args.spans,
        target_halfwidth=args.target_halfwidth,
        stop_stratify=args.stop_stratify,
        stop_check_every=args.stop_check_every,
    )
    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for exp_id in targets:
        if exp_id not in EXPERIMENTS:
            print(f"unknown experiment {exp_id!r}; try 'list'", file=sys.stderr)
            return 2
        start = time.perf_counter()
        print(run_experiment(exp_id, cfg, out_dir=args.out))
        print(f"[{exp_id} done in {time.perf_counter() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
