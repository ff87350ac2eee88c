"""Campaign benchmark: trials/s, set-up time and memory of fixed workloads.

Usage (from the repository root)::

    python3 perfbench/run.py                                  # every workload
    python3 perfbench/run.py --workload journal-convnet-datapath --seed 3 --seconds 20
    python3 perfbench/run.py --workload prepare-alexnet-rowact --trace 1

One process per workload runs the workload's fixed campaigns (seeded from
``--seed``) repeatedly, with ``jobs=1``, for ``--seconds``, and checks
the outputs: every repetition of a campaign must give the same outcome
digest, every record must satisfy the outcome invariants, and a written
checkpoint and trace must load back to what ``run_campaign`` returned.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Exit status is 0 only when
the outputs are correct.

The program under test is imported from ``src/`` of the checkout; its
weight store is kept in ``.cache/repro-weights`` and the benchmark's own
scratch files and span dumps in ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

__all__ = ["main", "run_all", "run_one"]

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Import of the ``repro-campaign`` entry point, timed in a fresh interpreter.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.core.cli; "
    "print(time.perf_counter() - t)"
)
IMPORT_SAMPLES = 5


#: One BLAS thread: the whole load is one single-threaded process, so a
#: 2-core shared host measures the campaign rather than thread scheduling.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE"] = str(ROOT / ".cache" / "repro-weights")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0, help="CampaignSpec.seed of every campaign")
    ap.add_argument("--seconds", type=float, default=25.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--warm", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=_env(), cwd=ROOT, capture_output=True,
        text=True, timeout=timeout, check=False,
    )


def _warm() -> None:
    """Fill the on-disk weight store for every workload's network.

    Runs in its own process so the workload process's peak memory does
    not include networks it never uses; a cold store trains ConvNet and
    calibrates AlexNet once per checkout.
    """
    from perfbench.workloads import WORKLOADS
    from repro.zoo.registry import get_network

    for name in sorted({w.spec["network"] for w in WORKLOADS}):
        get_network(name, "reduced")


def _import_s() -> float:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = _child(["-c", IMPORT_PROBE], timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"importing repro failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4g}, q3 {q3:.4g}"


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<30} {value:>14.6g} {unit:<6} {note}")


def run_one(args: argparse.Namespace) -> int:
    """Run one workload in this process and print its report."""
    proc = _child([str(Path(__file__).resolve()), "--warm"], timeout=850)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print("perfbench: weight-store warm-up failed", file=sys.stderr)
        return 2
    import_s = _import_s()

    from perfbench.harness import measure
    from perfbench.spans import HookError
    from perfbench.workloads import END_TO_END, PER_LAYER, workload

    w = workload(args.workload)
    OUT.mkdir(exist_ok=True)
    # Campaign checkpoints live here until each campaign is checked; the
    # directory is removed, never published.
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))  # repro: noqa[RP302]
    dump = OUT / f"spans-{w.name}-seed{args.seed}.jsonl" if args.trace else None
    try:
        report = measure(w, args.seed, args.seconds, bool(args.trace), scratch, dump)
    except HookError as exc:
        print(f"perfbench: hook guard: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    errors = report["errors"]
    print(f"perfbench {w.name} seed={args.seed} trace={args.trace}: {report['campaigns']} "
          f"campaigns of {w.spec['n_trials']} trials, jobs=1, batch={w.batch}")
    print(f"  spec {json.dumps(w.spec, sort_keys=True)}")
    for campaign_seed, d in report["digests"].items():
        print(f"  digest seed={campaign_seed} {json.dumps(d, sort_keys=True)}")
    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        units = {m["name"]: m["unit"] for m in PER_LAYER}
        metrics = {name: report["values"][name] for name in units}
        plain, traced = report["trials_per_s"], report["traced_trials_per_s"]
        print(f"  tracing overhead: untraced {plain:.4g} trials/s, traced {traced:.4g} trials/s "
              f"(traced/untraced {traced / plain:.3f})")
        top = report["ranking"][0][0]
        verdict = "as expected" if top == w.expected_top else f"FINDING: expected {w.expected_top}"
        print(f"  top layer by self time: {top} ({verdict})")
        print("  self-time ranking: " + ", ".join(f"{k} {v:.3g}s" for k, v in report["ranking"]))
        for name, value in metrics.items():
            layer = name.rpartition(".")[0]
            note = f"n={report['samples'].get(layer, 0)}" if "_us" in name or "_ms" in name else ""
            _print_metric(name, value, units[name], note)
    else:
        units = {m["name"]: m["unit"] for m in END_TO_END}
        setup = statistics.median(report["setup_s"])
        metrics = {
            "trials_per_s": report["trials_per_s"],
            "setup_s": import_s + setup,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        _print_metric("trials_per_s", metrics["trials_per_s"], units["trials_per_s"],
                      f"{w.campaigns} campaigns' trials / sum of their median trial phases "
                      f"(per campaign: {_quartiles(report['campaign_trials_per_s'])})")
        _print_metric("setup_s", metrics["setup_s"], units["setup_s"],
                      f"import {import_s:.3g} s (median of {IMPORT_SAMPLES}) + campaign set-up "
                      f"{setup:.3g} s (median, {_quartiles(report['setup_s'])})")
        _print_metric("peak_rss_mb", metrics["peak_rss_mb"], units["peak_rss_mb"],
                      "peak resident memory of the workload process")
        _print_metric("failed_frac", failed / attempted, "ratio",
                      f"{failed} quarantined of {attempted} attempted trials")
    for err in errors:
        print(f"  CHECK FAILED: {err}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0 if not errors else 1


def run_all(args: argparse.Namespace) -> int:
    """Run every workload, each in its own process, and summarise them."""
    from perfbench.workloads import ALL, UNMEASURED

    summary: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in ALL:
        proc = _child([str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)], timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            result = {}
        if not result:
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(f"not measured: {UNMEASURED}")
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench.workloads import ALL

    if args.workload not in ALL + ("all",):
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(ALL)}",
              file=sys.stderr)
        return 2
    # Before numpy is first imported in this process.
    os.environ.update({k: v for k, v in _env().items() if k != "PYTHONPATH"})
    if args.warm:
        _warm()
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
