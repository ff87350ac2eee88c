"""Img-REG corruption build against the chain-by-chain oracle.

``prepare_buffer`` builds a ``row_activation`` corruption with one window
gather, one multiply and one accumulate over every affected (filter,
column) chain.  ``tests/reference_engine.reference_row_activation``
builds the same corruption one chain at a time through ``mac_operands``
and ``replay_chain``.  Every field of the two ``PreparedInjection``
values must agree bit for bit: maskedness, the victim values, the
corrupted activation's bytes and the dirty row span.
"""

import numpy as np
import pytest

from repro.core.fault import BufferFault, sample_buffer_fault
from repro.core.injector import prepare_buffer
from repro.dtypes import DTYPES
from repro.nn import Conv2D, Dense, Flatten, Network
from repro.nn.im2col import window_out_span
from repro.zoo.registry import eval_inputs, get_network
from tests.reference_engine import reference_row_activation


def assert_same(got, want, label):
    assert got.masked == want.masked, label
    assert got.resume_index == want.resume_index, label
    assert got.dirty_rows == want.dirty_rows, label
    values = np.array([got.value_before, got.value_after])
    assert values.tobytes() == np.array([want.value_before, want.value_after]).tobytes(), label
    if want.act is None:
        assert got.act is None, label
    else:
        assert got.act.tobytes() == want.act.tobytes(), label


def golden_of(network, x, dtype, storage):
    return network.forward(dtype.quantize(x), dtype=dtype, record=True, storage_dtype=storage)


def check_sampled(network, x, dtype_name, storage_name, n, seed):
    dtype = DTYPES[dtype_name]
    storage = DTYPES[storage_name] if storage_name else None
    golden = golden_of(network, x, dtype, storage)
    rng = np.random.default_rng(seed)
    unmasked = 0
    for i in range(n):
        fault = sample_buffer_fault(network, "row_activation", storage or dtype, rng)
        got = prepare_buffer(network, dtype, fault, golden, storage)
        want = reference_row_activation(network, dtype, fault, golden, storage)
        assert_same(got, want, (dtype_name, storage_name, i, fault))
        unmasked += not want.masked
    assert unmasked, "no sampled fault reached the corruption build"


@pytest.mark.parametrize(
    "dtype_name,storage_name,n",
    [
        ("FLOAT16", None, 120),
        ("FLOAT", None, 120),
        ("16b_rb10", None, 70),
        ("32b_rb10", None, 70),
        ("32b_rb10", "16b_rb10", 70),  # Proteus
    ],
)
def test_convnet_sampled_faults_match_oracle(dtype_name, storage_name, n):
    network = get_network("ConvNet")
    check_sampled(network, eval_inputs("ConvNet", 1)[0], dtype_name, storage_name, n, seed=3)


@pytest.mark.parametrize("dtype_name,n", [("FLOAT16", 80), ("16b_rb10", 40)])
def test_alexnet_sampled_faults_match_oracle(dtype_name, n):
    network = get_network("AlexNet")
    check_sampled(network, eval_inputs("AlexNet", 1)[0], dtype_name, None, n, seed=4)


def row_fault(layer, li, victim, bit, residency_row=None):
    """A row_activation fault whose residency row reads ``victim``."""
    _, y, _ = victim
    if residency_row is None:
        residency_row = max(0, -(-(y + layer.pad - layer.kernel + 1) // layer.stride))
    return BufferFault("row_activation", li, victim, bit, 1, residency_row)


class TestEdgeFaults:
    @pytest.fixture(scope="class")
    def convnet(self):
        network = get_network("ConvNet")
        x = eval_inputs("ConvNet", 1)[0]
        return network, golden_of(network, x, DTYPES["FLOAT16"], None)

    @pytest.mark.parametrize("column", [0, 31], ids=["first", "last"])
    def test_victim_in_edge_column(self, convnet, column):
        # conv1: 5x5 windows with pad 2, so an edge column is read by
        # three windows, and the outermost one reads two padding columns.
        network, golden = convnet
        fault = row_fault(network.layers[0], 0, (1, 10, column), bit=13)
        got = prepare_buffer(network, DTYPES["FLOAT16"], fault, golden)
        want = reference_row_activation(network, DTYPES["FLOAT16"], fault, golden)
        assert not want.masked
        assert_same(got, want, fault)

    def test_strided_conv1_column_read_by_several_windows(self):
        # AlexNet conv1: 11x11 windows at stride 4, no padding.
        network = get_network("AlexNet")
        dtype = DTYPES["16b_rb10"]
        golden = golden_of(network, eval_inputs("AlexNet", 1)[0], dtype, None)
        layer = network.layers[0]
        for column, windows in ((8, 3), (11, 2), (12, 3)):
            lo, hi = window_out_span(column, column + 1, 11, 4, 0, 27)
            assert hi - lo == windows
            fault = row_fault(layer, 0, (2, 20, column), bit=14)
            got = prepare_buffer(network, dtype, fault, golden)
            want = reference_row_activation(network, dtype, fault, golden)
            assert not want.masked
            assert_same(got, want, fault)

    @pytest.mark.parametrize("value,check", [(1.0, np.isinf), (1.5, np.isnan)])
    def test_exponent_flip_to_inf_or_nan(self, value, check):
        # FLOAT16 bit 14 is the top exponent bit: a value in [1, 2) flips
        # to inf when its mantissa is zero and to NaN otherwise.
        network = get_network("ConvNet")
        dtype = DTYPES["FLOAT16"]
        x = eval_inputs("ConvNet", 1)[0].copy()
        victim = (1, 12, 7)
        x[victim] = value
        golden = golden_of(network, x, dtype, None)
        fault = row_fault(network.layers[0], 0, victim, bit=14)
        assert check(dtype.flip_bits(np.array([value]), 14)[0])
        got = prepare_buffer(network, dtype, fault, golden)
        want = reference_row_activation(network, dtype, fault, golden)
        assert not want.masked
        assert_same(got, want, fault)


def tiny_network(layers):
    network = Network("tiny-conv", layers, input_shape=(3, 8, 8))
    g = np.random.default_rng(0)
    for i in network.mac_layer_indices():
        params = network.layers[i].params()
        params["weight"][:] = g.normal(0.0, 0.6, params["weight"].shape)
        params["bias"][:] = g.normal(0.0, 0.05, params["bias"].shape)
    return network


class TestTinyGeometries:
    def test_conv_block_output_narrowed_under_proteus(self, tiny_input):
        # c1 feeds c2 directly, so c1's output is a block output and the
        # Proteus storage format narrows the rebuilt elements.
        network = tiny_network([
            Conv2D("c1", 3, 4, 3, stride=2, pad=1),
            Conv2D("c2", 4, 3, 3, stride=1, pad=1),
            Flatten("fl"),
            Dense("fc", 3 * 4 * 4, 5),
        ])
        assert 0 in network.block_output_indices()
        check_sampled(network, tiny_input, "32b_rb10", "16b_rb10", 120, seed=5)

    def test_stride_skipping_the_victim_column_is_masked(self, tiny_input):
        # A 1x1 kernel at stride 2 never reads odd columns.
        network = tiny_network([
            Conv2D("c1", 3, 4, 1, stride=2, pad=0),
            Flatten("fl"),
            Dense("fc", 4 * 4 * 4, 5),
        ])
        dtype = DTYPES["FLOAT16"]
        golden = golden_of(network, tiny_input, dtype, None)
        fault = BufferFault("row_activation", 0, (0, 2, 3), 14, 1, 1)
        got = prepare_buffer(network, dtype, fault, golden)
        want = reference_row_activation(network, dtype, fault, golden)
        assert want.masked
        assert_same(got, want, fault)
