"""Output checks: outcome digests, record invariants and the journal round trip.

A benchmark run executes several campaigns, at least one of them more
than once.  Every repetition of a campaign (same spec, same seed) must
produce the same :func:`digest`, every
record must satisfy the outcome invariants, and on checkpointed
workloads the files written to disk must load back to exactly what
``run_campaign`` returned.  A speed-only change leaves the digest
unchanged, so the printed digest lets a parent and a change be compared.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.campaign import CampaignResult
from repro.core.checkpoint import encode_record, load_checkpoint
from repro.core.serialize import to_jsonable
from repro.obs.tracer import default_trace_path, load_trace

__all__ = ["CheckError", "digest", "check_invariants", "check_journal", "check_same"]


class CheckError(AssertionError):
    """A campaign's outputs are wrong or not reproducible."""


def _canon(obj: object) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True)


def digest(result: CampaignResult) -> dict:
    """Outcome counts plus a hash over every record, error and trace row."""
    recs = result.records
    h = hashlib.sha256()
    for rec in recs:
        h.update(_canon(encode_record(rec)).encode())
    for err in result.errors:
        h.update(_canon(err).encode())
    for index, row in result.traces.items():
        h.update(f"{index}:{_canon(row)}".encode())
    return {
        "trials": len(recs) + len(result.errors) + len(result.skips),
        "masked": sum(r.outcome.masked for r in recs),
        "sdc1": sum(r.outcome.sdc1 for r in recs),
        "sdc5": sum(r.outcome.sdc5 for r in recs),
        "sdc10": sum(bool(r.outcome.sdc10) for r in recs),
        "sdc20": sum(bool(r.outcome.sdc20) for r in recs),
        "detected": sum(r.detected is True for r in recs),
        "reached_output": sum(r.reached_output is True for r in recs),
        "quarantined": len(result.errors),
        "skipped": len(result.skips),
        "traces": len(result.traces),
        "sha256": h.hexdigest(),
    }


def check_invariants(result: CampaignResult) -> None:
    """Facts every campaign must satisfy, whatever its speed."""
    spec = result.spec
    d = digest(result)
    if d["trials"] != spec.n_trials:
        raise CheckError(f"{d['trials']} trials resolved, spec asks for {spec.n_trials}")
    if d["skipped"]:
        raise CheckError(f"{d['skipped']} trials skipped without early stopping")
    for i, rec in enumerate(result.records):
        o = rec.outcome
        if o.masked and (o.sdc1 or o.sdc5 or o.sdc10 or o.sdc20):
            raise CheckError(f"record {i}: masked but classified SDC")
        if o.sdc5 and not o.sdc1:
            raise CheckError(f"record {i}: SDC-5 without SDC-1")
        if o.sdc20 and not o.sdc10:
            raise CheckError(f"record {i}: SDC-20% without SDC-10%")
        if (rec.detected is None) == spec.with_detection:
            raise CheckError(f"record {i}: detector verdict {rec.detected!r} "
                             f"with with_detection={spec.with_detection}")
        if o.masked and (rec.detected or rec.reached_output):
            raise CheckError(f"record {i}: masked trial detected or reaching the output")
        if not spec.record_propagation and rec.reached_output is not None:
            raise CheckError(f"record {i}: reached_output without record_propagation")
    resolved = set(range(spec.n_trials)) - {e.index for e in result.errors}
    expected = sorted(i for i in resolved if spec.trace_selected(i))
    if sorted(result.traces) != expected:
        raise CheckError(f"{len(result.traces)} trace rows, expected {len(expected)}")


def check_journal(result: CampaignResult, checkpoint) -> None:
    """The checkpoint and trace on disk load back to the returned results."""
    state = load_checkpoint(checkpoint, spec=result.spec)
    if state is None:
        raise CheckError(f"no checkpoint at {checkpoint}")
    loaded = [_canon(encode_record(state.records[i])) for i in sorted(state.records)]
    returned = [_canon(encode_record(r)) for r in result.records]
    if loaded != returned:
        raise CheckError(f"checkpoint holds {len(loaded)} records that differ from "
                         f"the {len(returned)} run_campaign returned")
    if sorted(state.errors) != [e.index for e in result.errors]:
        raise CheckError("checkpoint errors differ from the returned quarantine")
    if result.spec.trace_mode == "off":
        return
    header, rows = load_trace(default_trace_path(checkpoint))
    if header is None:
        raise CheckError("trace file missing or without header")
    if {i: _canon(r) for i, r in rows.items()} != {
        i: _canon(r) for i, r in result.traces.items()
    }:
        raise CheckError(f"trace file holds {len(rows)} rows that differ from "
                         f"the {len(result.traces)} run_campaign returned")


def check_same(digests: list[dict], what: str) -> None:
    """Every digest equals the first: repeated runs of one seed agree."""
    for k, d in enumerate(digests[1:], start=1):
        if d != digests[0]:
            diff = {key: (digests[0].get(key), d.get(key))
                    for key in digests[0].keys() | d.keys() if digests[0].get(key) != d.get(key)}
            raise CheckError(f"{what}: repetition {k} disagrees with repetition 0: {diff}")
