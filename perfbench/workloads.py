"""Workloads and metric definitions of the campaign benchmark.

Everything the benchmark measures is declared here, once: the fixed
campaigns (``WORKLOADS``), the end-to-end metrics (``END_TO_END``), the
per-layer metrics with the end-to-end metric and workloads each one
should move (``PER_LAYER``), and the layers deliberately left
unmeasured (``UNMEASURED``).  ``BENCHMARK.json`` at the repository root
mirrors these tables; ``perfbench/tests`` checks that the two agree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "NAME_RE",
    "Workload",
    "WORKLOADS",
    "ALL",
    "END_TO_END",
    "PER_LAYER",
    "UNMEASURED",
    "workload",
    "benchmark_document",
]

#: Allowed spelling of workload and metric names.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass(frozen=True)
class Workload:
    """One fixed campaign, repeated for the length of a run.

    Attributes:
        name: Workload name (``--workload``).
        why: One-line reason the workload exists.
        spec: ``CampaignSpec`` fields; ``seed`` comes from ``--seed``.
        batch: ``run_campaign(batch=...)``.
        checkpoint: Write a checkpoint (and the trace next to it) at
            the default cadence, into a fresh directory per campaign.
        campaigns: Distinct campaigns (seeds) one untraced run covers.
        exercises: Layers that must record at least one call in every
            traced campaign (the hook guard).
        expected_top: Layer group expected to lead self time among the
            non-``campaign`` layers; a miss is reported as a finding.
    """

    name: str
    why: str
    spec: dict
    batch: int
    checkpoint: bool
    campaigns: int
    exercises: tuple[str, ...]
    expected_top: str


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="journal-convnet-datapath",
        why=(
            "ConvNet FLOAT16 datapath, 5 seeds x 4096 trials, batch 16, checkpoint + sampled trace: 94% masked "
            "overall, so snapshot I/O dominates (write-heavy)"
        ),
        spec={
            "network": "ConvNet",
            "dtype": "FLOAT16",
            "target": "datapath",
            "n_trials": 4096,
            "trace_mode": "sample",
        },
        batch=16,
        checkpoint=True,
        campaigns=5,
        exercises=(
            "fault.sample",
            "injector.prepare",
            "network.propagate",
            "network.golden",
            "outcome.classify",
            "checkpoint.flush",
            "tracer.build",
            "tracer.flush",
        ),
        expected_top="checkpoint+tracer",
    ),
    Workload(
        name="prepare-alexnet-rowact",
        why=(
            "AlexNet FLOAT16 row_activation, 8 seeds x 200 trials, batch 1, no checkpoint: "
            "Img-REG corruption build dominates; the serial engine; I/O bypassed"
        ),
        spec={
            "network": "AlexNet",
            "dtype": "FLOAT16",
            "target": "row_activation",
            "n_trials": 200,
        },
        batch=1,
        checkpoint=False,
        campaigns=8,
        exercises=(
            "fault.sample",
            "injector.prepare",
            "network.propagate",
            "network.golden",
            "outcome.classify",
        ),
        expected_top="injector.prepare",
    ),
    Workload(
        name="propagate-alexnet-nextlayer",
        why=(
            "AlexNet FLOAT16 next_layer, 6 seeds x 1000 trials, batch 16, SED + reached_output, "
            "no checkpoint: 14% masked, batched propagation dominates"
        ),
        spec={
            "network": "AlexNet",
            "dtype": "FLOAT16",
            "target": "next_layer",
            "n_trials": 1000,
            "with_detection": True,
            "record_propagation": True,
        },
        batch=16,
        checkpoint=False,
        campaigns=6,
        exercises=(
            "fault.sample",
            "injector.prepare",
            "network.propagate",
            "network.golden",
            "outcome.classify",
            "detectors.scan",
            "detectors.learn",
        ),
        expected_top="network.propagate",
    ),
)


def workload(name: str) -> Workload:
    """Look up a workload by name (``KeyError`` lists the known ones)."""
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; known: {[w.name for w in WORKLOADS]}")


ALL = tuple(w.name for w in WORKLOADS)
JOURNAL, ROWACT, NEXTLAYER = ALL

#: End-to-end metrics, measured with tracing off.  ``bound`` is the share
#: of the parent's median by which the metric may worsen.
END_TO_END: tuple[dict, ...] = (
    {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
)

#: Per-layer metrics from the traced run.  ``moves`` names the
#: end-to-end metric and the workloads a change to the layer should move.
PER_LAYER: tuple[dict, ...] = tuple(
    {"name": name, "unit": unit, "better": better, "moves": {"metric": metric, "workloads": list(on)}}
    for name, unit, better, metric, on in (
        ("fault.sample.calls", "count", "lower", "trials_per_s", (JOURNAL,)),
        ("fault.sample.busy_s", "s", "lower", "trials_per_s", (JOURNAL,)),
        ("injector.prepare.calls", "count", "lower", "trials_per_s", (ROWACT,)),
        ("injector.prepare.busy_s", "s", "lower", "trials_per_s", (ROWACT,)),
        ("injector.prepare.p50_us", "us", "lower", "trials_per_s", (ROWACT,)),
        ("injector.prepare.p99_us", "us", "lower", "trials_per_s", (ROWACT,)),
        ("injector.masked_ratio", "ratio", "higher", "trials_per_s", (ROWACT,)),
        ("network.propagate.calls", "count", "lower", "trials_per_s", (NEXTLAYER,)),
        ("network.propagate.trials", "count", "lower", "trials_per_s", (NEXTLAYER,)),
        ("network.propagate.busy_s", "s", "lower", "trials_per_s", (NEXTLAYER,)),
        ("network.propagate.p50_ms", "ms", "lower", "trials_per_s", (NEXTLAYER,)),
        ("network.propagate.p99_ms", "ms", "lower", "trials_per_s", (NEXTLAYER,)),
        ("network.golden.busy_s", "s", "lower", "setup_s", ALL),
        ("detectors.scan.calls", "count", "lower", "trials_per_s", (NEXTLAYER,)),
        ("detectors.scan.busy_s", "s", "lower", "trials_per_s", (NEXTLAYER,)),
        ("detectors.learn.busy_s", "s", "lower", "setup_s", (NEXTLAYER,)),
        ("outcome.classify.busy_s", "s", "lower", "trials_per_s", (JOURNAL,)),
        ("checkpoint.flush.calls", "count", "lower", "trials_per_s", (JOURNAL,)),
        ("checkpoint.flush.busy_s", "s", "lower", "trials_per_s", (JOURNAL,)),
        ("checkpoint.bytes_written", "bytes", "lower", "trials_per_s", (JOURNAL,)),
        ("checkpoint.bytes_per_trial", "bytes", "lower", "trials_per_s", (JOURNAL,)),
        ("tracer.build.busy_s", "s", "lower", "trials_per_s", (JOURNAL,)),
        ("tracer.flush.busy_s", "s", "lower", "trials_per_s", (JOURNAL,)),
        ("tracer.bytes_written", "bytes", "lower", "trials_per_s", (JOURNAL,)),
        ("campaign.self_s", "s", "lower", "trials_per_s", ALL),
    )
)

#: Layers the benchmark leaves unmeasured on purpose.
UNMEASURED = (
    "utils.parallel and core.sharedgolden are not measured: only jobs>=2 exercises them, "
    "and every workload runs in one process with jobs=1 so that a 2-core shared host "
    "measures the campaign, not the scheduler."
)


#: Seconds one run measures (``--seconds``).
RUN_SECONDS = 25


def benchmark_document() -> dict:
    """The content of ``BENCHMARK.json``, derived from the tables above.

    Regenerate the file with ``python3 -m perfbench.workloads`` from the
    repository root after changing a table.
    """
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [dict(m) for m in END_TO_END],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER],
    }


if __name__ == "__main__":
    import json

    print(json.dumps(benchmark_document(), indent=2))
