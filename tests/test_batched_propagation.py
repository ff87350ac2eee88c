"""Batched fault propagation: bit-exactness, golden immutability, parity.

Every campaign trial propagates through ``Network.forward_from_batch``,
in groups of ``batch`` trials.  The contract is byte-identity with the
full-recompute ``forward_from`` reference — per trial, on scores and on
every recorded activation — which these tests enforce over mixed
datapath and buffer faults, with and without the Proteus storage
narrowing, for both the plain stacked engine and the delta engine
(goldens + dirty row spans).  Whole campaigns are checked against the
per-trial oracle in ``tests/reference_engine.py``.
"""

import json

import numpy as np
import pytest

from repro.core.campaign import CampaignSpec, _CampaignTask, run_campaign
from repro.core.fault import BufferFault, sample_buffer_fault, sample_datapath_fault
from repro.core.injector import finish_injection, prepare_buffer, prepare_datapath
from repro.core.serialize import to_jsonable
from repro.dtypes import DTYPES, FLOAT16
from repro.nn.network import Network
from repro.utils.rng import child_rng
from tests.conftest import build_tiny_network
from tests.reference_engine import reference_campaign

BUFFER_SCOPES = ("layer_weight", "row_activation", "next_layer", "single_read")


def canonical(value) -> str:
    """Byte-stable text of records / trace rows (NaN-safe equality)."""
    return json.dumps(to_jsonable(value), sort_keys=True)


def golden_bytes(golden):
    return (golden.scores.tobytes(), [a.tobytes() for a in golden.activations])


def sample_preps(network, golden, storage_dtype, n=40, seed=42):
    """Mixed datapath + buffer preparations, serially seeded like a campaign."""
    preps = []
    for t in range(n):
        rng = child_rng(seed, t)
        if t % 2 == 0:
            fault = sample_datapath_fault(network, FLOAT16, rng)
            prep = prepare_datapath(network, FLOAT16, fault, golden, storage_dtype)
        else:
            scope = BUFFER_SCOPES[(t // 2) % len(BUFFER_SCOPES)]
            fault = sample_buffer_fault(
                network, scope, storage_dtype or FLOAT16, rng
            )
            prep = prepare_buffer(network, FLOAT16, fault, golden, storage_dtype)
        preps.append(prep)
    return preps


@pytest.fixture(params=[None, "FLOAT16"], ids=["plain-storage", "proteus-storage"])
def storage(request):
    return DTYPES[request.param] if request.param else None


class TestSerialBatchedEquivalence:
    def test_batch_matches_serial_bytes(self, tiny_input, storage):
        network = build_tiny_network()
        golden = network.forward(
            tiny_input, dtype=FLOAT16, record=True, storage_dtype=storage
        )
        preps = [p for p in sample_preps(network, golden, storage) if not p.masked]
        assert len(preps) >= 8  # the mix must actually exercise the batch
        groups: dict[int, list] = {}
        for prep in preps:
            groups.setdefault(prep.resume_index, []).append(prep)
        assert len(groups) >= 2  # several distinct resume layers
        for resume_index, items in groups.items():
            serial = [
                network.forward_from(
                    resume_index, p.act, dtype=FLOAT16, record=True,
                    storage_dtype=storage,
                )
                for p in items
            ]
            plain = network.forward_from_batch(
                resume_index, [p.act for p in items], dtype=FLOAT16,
                record=True, storage_dtype=storage,
            )
            delta = network.forward_from_batch(
                resume_index, [p.act for p in items], dtype=FLOAT16,
                record=True, storage_dtype=storage,
                goldens=[golden] * len(items),
                dirty_rows=[p.dirty_rows for p in items],
            )
            for batch in (plain, delta):
                for b, ref in enumerate(serial):
                    got = batch.result(b)
                    assert got.scores.tobytes() == ref.scores.tobytes()
                    assert len(got.activations) == len(ref.activations)
                    for mine, theirs in zip(got.activations, ref.activations):
                        assert mine.tobytes() == theirs.tobytes()

    def test_batch_boundary_echoes_inputs(self, tiny_network, tiny_input):
        """resume index == len(layers) runs zero layers, like forward_from."""
        full = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        end = len(tiny_network.layers)
        acts = [full.activations[end], full.activations[end] * 0.5]
        batch = tiny_network.forward_from_batch(end, acts, dtype=FLOAT16)
        for b, act in enumerate(acts):
            assert np.array_equal(batch.scores[b], act.ravel())
        with pytest.raises(IndexError):
            tiny_network.forward_from_batch(end + 1, acts, dtype=FLOAT16)

    def test_batch_rejects_empty_and_bad_shapes(self, tiny_network, tiny_input):
        with pytest.raises(ValueError):
            tiny_network.forward_from_batch(0, [], dtype=FLOAT16)
        with pytest.raises(ValueError):
            tiny_network.forward_from_batch(0, [np.zeros((1, 2, 3))], dtype=FLOAT16)


class TestGoldenImmutability:
    """Injection must never write into the shared golden result.

    The delta engine passes golden activations *by reference* into
    masked trials' outputs, so one stray in-place write would corrupt
    every later trial on the same input.  Covers masked and unmasked
    preparations of all four buffer scopes.
    """

    def test_all_scopes_leave_golden_untouched(self, tiny_input):
        network = build_tiny_network()
        golden = network.forward(tiny_input, dtype=FLOAT16, record=True)
        before = golden_bytes(golden)
        masked_seen = set()
        for scope in BUFFER_SCOPES:
            for t in range(40):
                bit = 15 if scope == "next_layer" else None  # sign flips hit zeros
                fault = sample_buffer_fault(
                    network, scope, FLOAT16, child_rng(42, t), bit=bit
                )
                prep = prepare_buffer(network, FLOAT16, fault, golden)
                if prep.masked:
                    masked_seen.add(scope)
                finish_injection(network, FLOAT16, prep, golden, record=True)
                assert golden_bytes(golden) == before, (scope, t)
        assert masked_seen >= {"row_activation", "next_layer", "single_read"}

    def test_layer_weight_masked_path(self, tiny_input):
        # A sign flip on a zero weight is the one layer_weight fault that
        # masks at preparation time (the flipped word compares equal).
        network = build_tiny_network()
        network.layers[0].weight[0, 0, 0, 0] = 0.0
        golden = network.forward(tiny_input, dtype=FLOAT16, record=True)
        before = golden_bytes(golden)
        fault = BufferFault(
            scope="layer_weight", layer_index=0, victim=(0, 0, 0, 0), bit=15
        )
        prep = prepare_buffer(network, FLOAT16, fault, golden)
        assert prep.masked
        result = finish_injection(network, FLOAT16, prep, golden, record=True)
        assert result.masked
        assert result.scores.tobytes() == golden.scores.tobytes()
        assert golden_bytes(golden) == before


class TestRowActivationResidencyMiss:
    def test_miss_short_circuits_before_chain_replay(self, tiny_input):
        """A residency row that never reads the victim must cost nothing.

        The miss check sits before any chain replay or fmap copy; if the
        engine regresses to gathering the affected windows first, the
        monkeypatched ``window_taps`` below fires and fails the test.
        """
        network = build_tiny_network()
        golden = network.forward(tiny_input, dtype=FLOAT16, record=True)
        layer = network.layers[0]  # c1: 3x3 kernel, pad 1, stride 1

        def boom(*args, **kwargs):
            raise AssertionError("residency miss must not replay MAC chains")

        layer.window_taps = boom
        # Victim pixel row 0; residency row 7's window covers rows 6..8.
        fault = BufferFault(
            scope="row_activation", layer_index=0, victim=(0, 0, 0), bit=3,
            residency_row=7,
        )
        prep = prepare_buffer(network, FLOAT16, fault, golden)
        assert prep.masked
        # Control: residency row 0 reads the victim, so the build gathers
        # its windows and the patched ``window_taps`` fires.
        hit = BufferFault(
            scope="row_activation", layer_index=0, victim=(0, 0, 0), bit=3,
            residency_row=0,
        )
        with pytest.raises(AssertionError, match="must not replay"):
            prepare_buffer(network, FLOAT16, hit, golden)


class TestCampaignBatchParity:
    """``batch`` is an execution knob: at every group size, records,
    deterministic metric counters and trace rows must equal the per-trial
    full-recompute oracle (``tests/reference_engine.py``)."""

    SPECS = [
        CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=30, seed=11),
        CampaignSpec(
            network="ConvNet", dtype="FLOAT16", target="row_activation",
            n_trials=20, seed=12,
        ),
        CampaignSpec(
            network="ConvNet", dtype="32b_rb10", storage_dtype="16b_rb10",
            n_trials=20, seed=13,
        ),
        # Recorded activations feed the detector, reached_output and the
        # flight recorder; the delta engine hands them golden references.
        CampaignSpec(
            network="ConvNet", dtype="FLOAT16", n_trials=24, seed=14,
            with_detection=True, record_propagation=True, trace_mode="all",
        ),
    ]

    @pytest.mark.parametrize(
        "spec", SPECS, ids=["datapath", "buffer", "proteus", "recorded"]
    )
    def test_batched_campaign_matches_serial(self, spec):
        records, metrics, traces = reference_campaign(spec)
        assert len(records) == spec.n_trials
        for batch in (1, 8):
            result = run_campaign(spec, jobs=1, batch=batch)
            assert canonical(result.records) == canonical(records), batch
            assert result.metrics["counters"] == metrics["counters"], batch
            assert result.metrics["histograms"] == metrics["histograms"], batch
            assert canonical(result.traces) == canonical(traces), batch
        if spec.trace_mode == "all":
            assert len(traces) == spec.n_trials
            assert any(r.detected for r in records)
            assert any(r.reached_output for r in records)

    def test_batch_below_one_is_refused(self):
        # Coercing it would run batch 1 while the manifest records 0.
        with pytest.raises(ValueError, match="batch must be >= 1"):
            run_campaign(self.SPECS[0], batch=0)


class TestGroupFailureFallback:
    """A group whose propagation raises is re-run one trial at a time, so
    only the trial that fails on its own is quarantined."""

    SPEC = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=30, seed=11)

    def test_only_the_poison_trial_is_quarantined(self, monkeypatch):
        reference = run_campaign(self.SPEC, jobs=1, batch=1)
        sample, build = _CampaignTask.sample_trial, _CampaignTask.build_trial
        forward = Network.forward_from_batch
        current: dict = {}
        poison: dict = {}
        stacks: list[int] = []

        def sample_trial(task, trial):
            current["trial"] = trial
            return sample(task, trial)

        def build_trial(task, fault, meta):
            prep = build(task, fault, meta)
            if not poison and not prep.masked:
                poison.update(trial=current["trial"], act=prep.act)
            return prep

        def forward_from_batch(net, layer_index, acts, *args, **kwargs):
            if any(act is poison.get("act") for act in acts):
                stacks.append(len(acts))
                raise FloatingPointError("poisoned activation")
            return forward(net, layer_index, acts, *args, **kwargs)

        monkeypatch.setattr(_CampaignTask, "sample_trial", sample_trial)
        monkeypatch.setattr(_CampaignTask, "build_trial", build_trial)
        monkeypatch.setattr(Network, "forward_from_batch", forward_from_batch)
        result = run_campaign(self.SPEC, jobs=1, batch=8, max_error_frac=0.5)

        # The poison's group failed as a whole, then the poison alone.
        assert stacks[0] > 1 and stacks[-1] == 1
        assert [e.index for e in result.errors] == [poison["trial"]]
        assert result.errors[0].exc_type == "FloatingPointError"
        expected = [
            r for i, r in enumerate(reference.records) if i != poison["trial"]
        ]
        assert canonical(result.records) == canonical(expected)
