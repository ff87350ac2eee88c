"""Extension: propagation depth and masking locus, from flight-recorder traces.

The paper argues its masking story from endpoints: an injection either
shows up in the final fmap or it does not (Table 5), and ReLU/pooling
are *inferred* to be the erasers.  The propagation flight recorder
(``repro.obs.tracer``) makes the middle of that story observable — every
traced trial carries the per-layer corruption footprint and the exact
layer (and mechanism) that erased it.  This experiment runs fully traced
campaigns and aggregates the traces into two artifacts the paper never
had: a propagation-depth histogram (how many layers a corruption
survives before dying) and a masking-locus table (which mechanism —
ReLU zero-kill, pool absorb, quantization clip — kills faults, per
network).

Trace rows are deterministic facts (pure functions of trial index), so
this experiment's tables are byte-stable across ``--jobs`` / ``--batch``
like every other artifact.
"""

from __future__ import annotations

from repro.core.campaign import CampaignSpec
from repro.experiments.common import ExperimentConfig, campaign
from repro.obs.tracer import trace_depth_histogram, trace_deviation_by_depth, trace_layer_matrix
from repro.utils.tables import format_table

__all__ = ["run", "render", "PROP_NETWORKS"]

EXPERIMENT_ID = "propagation"
TITLE = "Extension: propagation depth and masking locus (per-layer fault traces)"

#: Shallow to deep, same axis as the depth study.
PROP_NETWORKS = ("ConvNet", "AlexNet", "NiN")
DTYPE = "FLOAT16"  # quantization clipping competes with ReLU/pool masking

#: Masking mechanisms in display order.
_KINDS = ("relu_zero_kill", "pool_absorb", "quantization_clip")


def run(cfg: ExperimentConfig) -> dict:
    out: dict = {"config": cfg, "networks": {}}
    for name in PROP_NETWORKS:
        spec = CampaignSpec(
            network=name, dtype=DTYPE, n_trials=cfg.trials,
            scale=cfg.scale, seed=cfg.seed + 2500,
            record_propagation=True, trace_mode="all",
        )
        result = campaign(spec, cfg=cfg)
        traces = result.traces
        locus = {kind: 0 for kind in _KINDS}
        masked_at_injection = 0
        reached = 0
        depth_sum = 0
        for row in traces.values():
            depth_sum += int(row["depth"])
            if row["masked_at_injection"]:
                masked_at_injection += 1
            masking = row.get("masking")
            if masking is not None:
                locus[masking["kind"]] = locus.get(masking["kind"], 0) + 1
            if row["reached_output"]:
                reached += 1
        out["networks"][name] = {
            "traced": len(traces),
            "depth_histogram": trace_depth_histogram(traces),
            "layer_matrix": trace_layer_matrix(traces),
            "deviation_by_depth": trace_deviation_by_depth(traces),
            "mean_depth": depth_sum / len(traces) if traces else 0.0,
            "masked_at_injection": masked_at_injection,
            "masking_locus": locus,
            "reached_output": reached,
        }
    return out


def render(result: dict) -> str:
    networks = result["networks"]
    depth_rows = []
    max_depth = max(
        (int(d) for data in networks.values() for d in data["depth_histogram"]),
        default=0,
    )
    shown = min(max_depth, 8)
    for name, data in networks.items():
        hist = {int(k): v for k, v in data["depth_histogram"].items()}
        cells = [str(hist.get(d, 0)) for d in range(shown + 1)]
        tail = sum(v for d, v in hist.items() if d > shown)
        depth_rows.append([name, f"{data['mean_depth']:.2f}", *cells, str(tail)])
    depth_table = format_table(
        ["network", "mean depth", *[f"d={d}" for d in range(shown + 1)], f">{shown}"],
        depth_rows,
        title=TITLE,
    )
    locus_rows = []
    for name, data in networks.items():
        n = max(1, data["traced"])
        locus = data["masking_locus"]
        locus_rows.append([
            name,
            str(data["traced"]),
            f"{100 * data['masked_at_injection'] / n:.1f}%",
            *[f"{100 * locus.get(kind, 0) / n:.1f}%" for kind in _KINDS],
            f"{100 * data['reached_output'] / n:.1f}%",
        ])
    locus_table = format_table(
        ["network", "traced", "at injection", "ReLU kill", "pool absorb",
         "quant clip", "reaches output"],
        locus_rows,
        title="masking locus (fraction of traced trials erased by each mechanism)",
    )
    return depth_table + "\n\n" + locus_table + (
        "\nmost corruptions die within the first layer or two; the deeper"
        "\nthe survivor, the likelier it reaches the output — the window"
        "\nwhere a symptom detector must fire (sections 5.1.4, 6.2)."
    )
