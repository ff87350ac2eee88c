"""Per-layer propagation measurement: the flight recorder's rows.

Figure 7's Euclidean distances and Table 5's bit-wise comparison both
read :func:`repro.obs.tracer.propagation_rows`; these tests pin the
row fields they depend on (``l2``, ``corrupted``) and check Figure 7's
distances against the whole-tensor oracle in ``tests/reference_engine``.
"""

import numpy as np
import pytest

from repro.core.fault import DatapathFault, sample_datapath_fault
from repro.core.injector import InjectionResult, inject_datapath
from repro.dtypes import FLOAT16
from repro.dtypes.registry import get_dtype
from repro.experiments.fig7_euclidean import DTYPE, block_distances, relu_trace_layers
from repro.obs.tracer import _delta_stats, propagation_rows
from repro.utils.rng import child_rng
from repro.zoo.registry import eval_inputs, get_network
from tests.reference_engine import reference_euclidean_by_block


@pytest.fixture
def traced(tiny_network, tiny_input):
    golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
    conv_out = golden.activations[1]
    victim = tuple(int(v) for v in np.argwhere((conv_out > 0.25) & (conv_out < 2.0))[0])
    last = tiny_network.layers[0].chain_length((3, 8, 8)) - 1
    fault = DatapathFault(0, victim, last, "accumulator", 14)  # -> huge value
    injection = inject_datapath(tiny_network, FLOAT16, fault, golden, record=True)
    assert not injection.masked
    return tiny_network, golden, injection


class TestTracePoints:
    def test_relu_trace_layers(self, tiny_network):
        # sample points: relu1 (idx 1), relu2 (idx 4), fc (idx 7 — no relu)
        assert relu_trace_layers(tiny_network) == {1: 1, 2: 4, 3: 7}


class TestL2:
    """``l2`` of one row, on hand-built deviations from a zero golden."""

    @staticmethod
    def l2(*faulty: float) -> float:
        values = np.array(faulty, dtype=np.float64)
        return _delta_stats(values, np.zeros_like(values))["l2"]

    def test_finite(self):
        assert self.l2(3.0, -4.0, 0.0) == 5.0
        # -0.0 differs bitwise (corrupted) but deviates by nothing.
        stats = _delta_stats(np.array([-0.0, 0.0]), np.zeros(2))
        assert stats["corrupted"] == 1 and stats["l2"] == 0.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_counts_ten_times_largest_finite(self, bad):
        assert self.l2(bad, 2.0, 0.0) == np.sqrt(20.0**2 + 2.0**2)
        # ... but never less than 10.
        assert self.l2(bad, 0.5) == np.sqrt(10.0**2 + 0.5**2)
        assert self.l2(bad) == 10.0

    def test_clipped(self):
        assert self.l2(1e200, 3.0) == 1e150
        # The largest finite deviation is capped at 1e149 before the x10.
        assert self.l2(1e160, np.inf) == pytest.approx(np.sqrt(2.0) * 1e150, rel=1e-15)

    def test_clean_row_is_zero(self):
        assert self.l2(0.0, 0.0) == 0.0


class TestEuclidean:
    def test_distances_nonnegative_and_finite(self, traced):
        net, golden, injection = traced
        d = block_distances(net, golden, injection, relu_trace_layers(net))
        assert set(d) == {1, 2, 3}
        assert all(np.isfinite(v) and v >= 0 for v in d.values())

    def test_fault_visible_at_first_block(self, traced):
        net, golden, injection = traced
        d = block_distances(net, golden, injection, relu_trace_layers(net))
        assert d[1] > 0

    def test_upstream_blocks_zero(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        fc_idx = tiny_network.mac_layer_indices()[-1]
        fault = DatapathFault(fc_idx, (1,), 2, "accumulator", 14)
        injection = inject_datapath(tiny_network, FLOAT16, fault, golden, record=True)
        assert not injection.masked
        d = block_distances(tiny_network, golden, injection, relu_trace_layers(tiny_network))
        assert d[1] == 0.0 and d[2] == 0.0
        # The fc sample point is the injected activation itself.
        assert d[3] > 0.0

    def test_masked_injection_all_zero(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        fake = InjectionResult(
            scores=golden.scores, masked=True, value_before=0, value_after=0, resume_index=1
        )
        d = block_distances(tiny_network, golden, fake, relu_trace_layers(tiny_network))
        assert all(v == 0.0 for v in d.values())

    def test_nonfinite_values_give_large_finite_distance(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        act = golden.activations[1].copy()
        act[0, 0, 0] = np.inf
        res = tiny_network.forward_from(1, act, dtype=FLOAT16, record=True)
        fake = InjectionResult(
            scores=res.scores,
            masked=False,
            value_before=0,
            value_after=np.inf,
            resume_index=1,
            faulty_activations=[act] + res.activations[1:],
        )
        d = block_distances(tiny_network, golden, fake, relu_trace_layers(tiny_network))
        assert np.isfinite(d[1]) and d[1] > 0

    def test_past_masking_layer_reads_zero(self, tiny_network, tiny_input):
        # A negative delta at the conv output dies in the next ReLU.
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        conv_out = golden.activations[1]
        victim = tuple(int(v) for v in np.argwhere(conv_out < -0.25)[0])
        act = conv_out.copy()
        act[victim] -= 1.0
        res = tiny_network.forward_from(1, act, dtype=FLOAT16, record=True)
        fake = InjectionResult(
            scores=res.scores, masked=False, value_before=float(conv_out[victim]),
            value_after=float(act[victim]), resume_index=1,
            faulty_activations=[act] + res.activations[1:],
        )
        _, rows = propagation_rows(tiny_network, golden, fake)
        assert [row["layer"] for row in rows] == [1] and rows[0]["corrupted"] == 0
        d = block_distances(tiny_network, golden, fake, relu_trace_layers(tiny_network))
        assert d == {1: 0.0, 2: 0.0, 3: 0.0}


class TestBitwiseMismatch:
    """Table 5's bit-wise comparison: the rows' ``corrupted`` counts."""

    def test_mismatch_fractions_in_unit_interval(self, traced):
        net, golden, injection = traced
        injected, rows = propagation_rows(net, golden, injection)
        assert injected["corrupted"] == 1  # the corrupted element itself
        for row in rows:
            size = golden.activations[row["layer"] + 1].size
            assert 0 <= row["corrupted"] <= size

    def test_pool_masking_reduces_spread(self, traced):
        net, golden, injection = traced
        _, rows = propagation_rows(net, golden, injection)
        by_layer = {row["layer"]: row["corrupted"] for row in rows}
        # Non-overlapping 2x2 max pooling maps each input to one output,
        # so it can only absorb corrupted elements, never spread them.
        for li, corrupted in by_layer.items():
            if net.layers[li].kind == "pool" and li - 1 in by_layer:
                assert corrupted <= by_layer[li - 1]


class TestFigure7Oracle:
    """Figure 7's fault stream; row ``l2`` equals the whole-tensor oracle."""

    @pytest.mark.parametrize("network_name", ["ConvNet", "AlexNet"])
    def test_distances_equal_oracle(self, network_name):
        dtype = get_dtype(DTYPE)
        network = get_network(network_name, "reduced")
        points = relu_trace_layers(network)
        golden = network.forward(
            eval_inputs(network_name, 1, "reduced", seed=100)[0], dtype=dtype, record=True
        )
        compared = 0
        for t in range(8):
            fault = sample_datapath_fault(
                network, dtype, child_rng(0, 7000 + t),
                layer_index=network.mac_layer_indices()[0], bit=dtype.width - 2,
            )
            injection = inject_datapath(network, dtype, fault, golden, record=True)
            got = block_distances(network, golden, injection, points)
            want = reference_euclidean_by_block(network, golden, injection, points)
            assert got.keys() == want.keys()
            for block in want:
                assert got[block] == pytest.approx(want[block], rel=1e-12, abs=0.0), block
            compared += not injection.masked
        assert compared
