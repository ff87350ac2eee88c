"""Bench: Img-REG corruption build against the chain-by-chain oracle.

A ``row_activation`` fault corrupts one ifmap value in the Img REG, read
by the windows of one output row that cover it (paper Section 6, Table
8).  ``prepare_buffer`` rebuilds every affected (filter, column) chain
clean and corrupted with one window gather, one multiply and one
``accumulate_batch``; ``tests/reference_engine.reference_row_activation``
replays the same chains one at a time through ``mac_operands`` and
``replay_chain``.  ``OBL-PREPARE-ROWACT`` pins the build at >= 2.5x the
oracle.

Protocol: AlexNet FLOAT16, one golden run, a fixed list of ``FAULTS``
sampled row_activation faults (seed 0).  Both builds run over the whole
list; best of ``REPEATS`` wall times, reported as microseconds per fault.
Every build must equal the oracle's, field for field.
"""

from time import perf_counter

import numpy as np

from conftest import _registry
from repro.core.fault import sample_buffer_fault
from repro.core.injector import prepare_buffer
from repro.dtypes import FLOAT16
from repro.zoo.registry import eval_inputs, get_network
from tests.reference_engine import reference_row_activation

FAULTS = 150
REPEATS = 3


def _best(fn, faults):
    best = None
    for _ in range(REPEATS):
        start = perf_counter()
        preps = [fn(f) for f in faults]
        elapsed = perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / len(faults) * 1e6, preps


def _measure():
    network = get_network("AlexNet")
    golden = network.forward(
        FLOAT16.quantize(eval_inputs("AlexNet", 1)[0]), dtype=FLOAT16, record=True
    )
    rng = np.random.default_rng(0)
    faults = [sample_buffer_fault(network, "row_activation", FLOAT16, rng) for _ in range(FAULTS)]
    build_us, built = _best(lambda f: prepare_buffer(network, FLOAT16, f, golden), faults)
    ref_us, ref = _best(lambda f: reference_row_activation(network, FLOAT16, f, golden), faults)
    for got, want in zip(built, ref):
        assert (got.masked, got.dirty_rows) == (want.masked, want.dirty_rows)
        assert (got.act is None) == (want.act is None)
        assert got.act is None or got.act.tobytes() == want.act.tobytes()
    unmasked = sum(not p.masked for p in ref)
    return build_us, ref_us, unmasked


def test_bench_prepare_rowact(run_once):
    build_us, ref_us, unmasked = run_once(_measure)
    speedup = ref_us / build_us
    registry = _registry()
    registry.set_gauge("prepare/rowact_us", build_us)
    registry.set_gauge("prepare/rowact_reference_us", ref_us)
    registry.set_gauge("prepare/rowact_speedup", speedup)
    print(f"\n{FAULTS} faults ({unmasked} unmasked)")
    print(f"build      {build_us:9.1f} us/fault")
    print(f"reference  {ref_us:9.1f} us/fault")
    print(f"speedup    {speedup:9.2f}x")
    assert unmasked
    assert speedup >= 2.5, f"Img-REG build only {speedup:.2f}x the oracle (floor: >= 2.5)"
