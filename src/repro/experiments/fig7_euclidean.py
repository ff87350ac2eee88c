"""Figure 7: Euclidean distance between faulty and golden ACTs per layer.

Faults are injected at layer 1 using DOUBLE (its huge dynamic range
accentuates deviations) and the distance between the faulty and golden
ACT tensors is measured at the end of every layer.  The distances are
the ``l2`` fields of the flight recorder's per-layer rows
(:func:`repro.obs.tracer.propagation_rows`), the same measurement every
traced campaign journals.  Expected shape:
AlexNet/CaffeNet drop sharply after their layer-1/2 LRNs; NiN and
ConvNet stay comparatively flat.
"""

from __future__ import annotations

from repro.core.fault import sample_datapath_fault
from repro.core.injector import inject_datapath
from repro.dtypes.registry import get_dtype
from repro.experiments.common import PAPER_NETWORKS, ExperimentConfig
from repro.nn.network import Network
from repro.obs.tracer import propagation_rows
from repro.utils.rng import child_rng
from repro.utils.tables import format_table
from repro.zoo.registry import eval_inputs, get_network

__all__ = ["run", "render", "relu_trace_layers", "block_distances"]

EXPERIMENT_ID = "fig7"
TITLE = "Figure 7: Euclidean distance per layer after a layer-1 fault (DOUBLE)"

DTYPE = "DOUBLE"


def relu_trace_layers(network: Network) -> dict[int, int]:
    """Map block index -> layer index of the block's activation output.

    Figure 7 samples ACT values right after each layer's activation
    function — *before* any NORM/POOL that follows — which is what makes
    the AlexNet/CaffeNet curves drop between layer 1 and layer 2 (the
    LRN sits between the two sample points).  Falls back to the block's
    MAC layer when it has no ReLU.
    """
    out: dict[int, int] = {}
    for i, layer in enumerate(network.layers):
        if layer.block is None:
            continue
        if layer.kind == "relu" or (layer.block not in out and layer.kind in ("conv", "fc")):
            out[layer.block] = i
    return out


def block_distances(network: Network, golden, injection, points: dict[int, int]) -> dict[int, float]:
    """Euclidean distance between faulty and golden ACTs at each sample point.

    Reads the ``l2`` of the trace row for layer ``points[block]`` (the
    ``injected`` entry for layer ``resume_index - 1``).  A point upstream
    of the fault, or past the layer that masked it, has no row and reads
    0: its activation equals the golden one.
    """
    injected, rows = propagation_rows(network, golden, injection)
    l2 = {row["layer"]: row["l2"] for row in rows}
    if injected is not None:
        l2[injection.resume_index - 1] = injected["l2"]
    return {block: l2.get(li, 0.0) for block, li in points.items()}


def run(cfg: ExperimentConfig) -> dict:
    """Returns ``{network: {block: mean_distance}}``.

    Distances average over ``cfg.trials`` injections pinned to the first
    MAC layer; high-order exponent bits are targeted so each injection
    creates a visible deviation to trace (the paper traces propagation,
    not incidence).
    """
    dtype = get_dtype(DTYPE)
    out: dict = {"config": cfg, "distances": {}}
    trials = max(10, cfg.trials // 10)
    for network_name in PAPER_NETWORKS:
        network = get_network(network_name, cfg.scale)
        first_mac = network.mac_layer_indices()[0]
        points = relu_trace_layers(network)
        inputs = eval_inputs(network_name, 2, cfg.scale, seed=100)
        goldens = [network.forward(x, dtype=dtype, record=True) for x in inputs]
        sums: dict[int, float] = {}
        count = 0
        for t in range(trials):
            rng = child_rng(cfg.seed, 7000 + t)
            golden = goldens[t % len(goldens)]
            # Flip the top magnitude-exponent bit: operand magnitudes sit
            # near 1 (exponent ~0), so this is the flip that creates the
            # large deviation whose attenuation the figure traces.
            bit = dtype.width - 2
            fault = sample_datapath_fault(
                network, dtype, rng, layer_index=first_mac, bit=bit
            )
            injection = inject_datapath(network, dtype, fault, golden, record=True)
            if injection.masked:
                continue
            distances = block_distances(network, golden, injection, points)
            for block, d in distances.items():
                sums[block] = sums.get(block, 0.0) + min(d, 1e30)
            count += 1
        out["distances"][network_name] = {
            b: (s / count if count else 0.0) for b, s in sorted(sums.items())
        }
    return out


def render(result: dict) -> str:
    sections = []
    for network, dists in result["distances"].items():
        rows = [[b, f"{d:.4g}"] for b, d in dists.items()]
        sections.append(
            format_table(["layer", "mean Euclidean distance"], rows, title=f"{TITLE} — {network}")
        )
        vals = list(dists.values())
        if len(vals) >= 2 and vals[0] > 0:
            sections.append(f"layer1 -> layer2 attenuation: {vals[0] / max(vals[1], 1e-30):.2f}x")
    return "\n\n".join(sections)
