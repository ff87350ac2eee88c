"""Campaign checkpoint/resume: an append-only journal of resolved trials.

At the paper's scale (~3M injections, Section 4) a campaign can run for
hours; losing every completed trial to one machine fault is not
acceptable.  :func:`repro.core.campaign.run_campaign` hands each
resolved :class:`~repro.core.campaign.TrialRecord` /
:class:`~repro.core.campaign.TrialError` /
:class:`~repro.core.campaign.TrialSkip` to a :class:`CheckpointWriter`,
and on restart resumes from exactly the trial indices that are missing.
Resume is *bit-identical* to an uninterrupted run regardless of
parallelism because every trial draws from its own
``child_rng(seed, trial_index)`` stream — a trial's outcome depends only
on its index, never on which worker ran it or when.

File format (version 2) — JSON Lines:

- line 1: header ``{"format": "repro-campaign-checkpoint", "version": 2,
  "fingerprint": ..., "spec": {...}, "trace_version": 2}``
  (``trace_version`` is the format of the trace rows below,
  :data:`repro.obs.tracer.TRACE_VERSION`)
- one line per resolved trial: ``{"index": i, "record": {...}}`` for a
  classified trial (plus ``"trace": {...}``, its propagation-trace row,
  when the spec traces trial ``i``), ``{"index": i, "error": {...}}`` for
  a quarantined one, or ``{"index": i, "skip": {...}}`` for a trial whose
  propagation statistical early stopping elided (the skip carries the
  sampled fault coordinates, so a resumed run replays the same decisions
  bit-identically instead of re-deriving — or worse, re-running — them).

Each :meth:`CheckpointWriter.flush` appends only the lines resolved
since the previous flush, so checkpoint cost per trial is flat in the
campaign size.  The first flush of a run publishes header + resumed
lines atomically (pid-unique temp name + ``os.replace``, the RP3xx
atomic-write discipline of ``docs/static_analysis.md``), which also
drops a torn tail a killed predecessor left behind.  A SIGKILL during an
append can only tear the last line; a JSON object does not parse
without its closing brace, so the loader skips it and that trial
re-runs.  :meth:`CheckpointWriter.compact` publishes the canonical
index-sorted file once, when the campaign completes or aborts, so the
published bytes are identical across ``jobs``, ``batch``, ``shm`` and
kill/resume.

A record and its trace row share one line, so neither can reach disk
without the other.  A record of a trace-selected trial that carries no
row (a version-1 file, say) counts as unresolved and re-runs; so does
one whose row was written under another trace row version.  The
``fingerprint`` keys the checkpoint to its
:class:`~repro.core.campaign.CampaignSpec`: resuming under a spec with
any differing field is refused rather than silently mixing trials from
two different fault models.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

from repro.core.campaign import CampaignSpec, TrialError, TrialRecord, TrialSkip
from repro.core.outcome import Outcome
from repro.core.serialize import from_jsonable, to_jsonable
from repro.obs.tracer import TRACE_VERSION

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointMismatchError",
    "CheckpointState",
    "CheckpointWriter",
    "atomic_write_text",
    "campaign_fingerprint",
    "decode_record",
    "encode_record",
    "load_checkpoint",
]


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Publish ``text`` at ``path`` via pid-unique temp + ``os.replace``.

    The RP3xx atomic-write discipline in one place: a concurrent writer
    or a SIGKILL mid-write can never leave a torn file behind.  Used by
    checkpoint publication and the manifests and trace files of
    :mod:`repro.obs`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path

CHECKPOINT_VERSION = 2
_FORMAT = "repro-campaign-checkpoint"


class CheckpointMismatchError(RuntimeError):
    """The checkpoint on disk belongs to a different campaign spec."""


def campaign_fingerprint(spec: CampaignSpec) -> str:
    """Stable hash of every spec field that shapes trial outcomes.

    Any change to the spec — network, dtype, seed, trial count, fault
    model knobs — changes the fingerprint, so a checkpoint can never be
    resumed into a campaign it does not describe.
    """
    payload = json.dumps(to_jsonable(spec), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def encode_record(record: TrialRecord) -> dict:
    """Serialize one trial record to JSON-safe types."""
    return to_jsonable(dataclasses.asdict(record))


def decode_record(data: dict) -> TrialRecord:
    """Rebuild a :class:`TrialRecord` from its :func:`encode_record` form.

    Uses :func:`repro.core.serialize.from_jsonable` so non-finite
    corrupted values (``inf``/``nan`` after an exponent-bit flip) reload
    as floats, not strings.
    """
    plain = from_jsonable(data)
    assert isinstance(plain, dict)
    outcome = Outcome(**{
        f.name: plain["outcome"][f.name] for f in dataclasses.fields(Outcome)
    })
    kwargs = {
        f.name: plain[f.name]
        for f in dataclasses.fields(TrialRecord)
        if f.name != "outcome" and f.name in plain
    }
    return TrialRecord(outcome=outcome, **kwargs)


def _decode_error(data: dict) -> TrialError:
    plain = from_jsonable(data)
    assert isinstance(plain, dict)
    return TrialError(**{
        f.name: plain[f.name] for f in dataclasses.fields(TrialError) if f.name in plain
    })


def _decode_skip(data: dict) -> TrialSkip:
    plain = from_jsonable(data)
    assert isinstance(plain, dict)
    return TrialSkip(**{
        f.name: plain[f.name] for f in dataclasses.fields(TrialSkip) if f.name in plain
    })


@dataclasses.dataclass(frozen=True)
class CheckpointState:
    """Completed work recovered from a checkpoint file."""

    fingerprint: str | None
    records: dict[int, TrialRecord]
    errors: dict[int, TrialError]
    skips: dict[int, TrialSkip] = dataclasses.field(default_factory=dict)
    #: Trial index -> propagation-trace row, for traced records.
    traces: dict[int, dict] = dataclasses.field(default_factory=dict)

    @property
    def n_completed(self) -> int:
        return len(self.records) + len(self.errors) + len(self.skips)


def load_checkpoint(path: str | Path, spec: CampaignSpec | None = None) -> CheckpointState | None:
    """Read a checkpoint; None when ``path`` does not exist.

    Args:
        path: Checkpoint JSONL file.
        spec: When given, the file's fingerprint must match the spec's
            (raises :class:`CheckpointMismatchError` otherwise), and a
            record of a trial the spec traces counts only together with
            its trace row.  Rows written under another
            :data:`~repro.obs.tracer.TRACE_VERSION` are dropped.

    Undecodable lines — a torn last line after a SIGKILL mid-append — are
    skipped rather than fatal: a checkpoint can only lose trials to
    corruption, never abort the campaign (skipped trials simply re-run).
    """
    path = Path(path)
    if not path.exists():
        return None
    fingerprint: str | None = None
    trace_version = None
    records: dict[int, TrialRecord] = {}
    errors: dict[int, TrialError] = {}
    skips: dict[int, TrialSkip] = {}
    traces: dict[int, dict] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                continue
            if data.get("format") == _FORMAT:
                fingerprint = data.get("fingerprint")
                trace_version = data.get("trace_version")
                continue
            index = int(data["index"])
            if "record" in data:
                records[index] = decode_record(data["record"])
                if isinstance(data.get("trace"), dict):
                    traces[index] = data["trace"]
            elif "error" in data:
                errors[index] = _decode_error(data["error"])
            elif "skip" in data:
                skips[index] = _decode_skip(data["skip"])
        except (KeyError, TypeError, ValueError):
            continue
    if trace_version != TRACE_VERSION:
        traces = {}
    if spec is not None:
        expected = campaign_fingerprint(spec)
        if fingerprint != expected:
            raise CheckpointMismatchError(
                f"checkpoint {path} was written for fingerprint {fingerprint!r}, "
                f"but the requested campaign has {expected!r}; delete the file or "
                "point --checkpoint elsewhere to start fresh"
            )
        # A traced trial is resolved only with its row; without one it
        # re-runs and re-derives both.
        records = {
            i: r for i, r in records.items() if i in traces or not spec.trace_selected(i)
        }
    return CheckpointState(
        fingerprint=fingerprint, records=records, errors=errors, skips=skips,
        traces={i: traces[i] for i in records if i in traces},
    )


def _line(index: int, kind: str, payload: dict, trace: dict | None = None) -> str:
    entry = {"index": index, kind: payload}
    if trace is not None:
        entry["trace"] = trace
    return json.dumps(entry, sort_keys=True)


class CheckpointWriter:
    """Journals resolved trials: one serialised line per trial.

    Lines are serialised once, when a trial is added, and kept as
    strings.  :meth:`flush` appends the lines added since the previous
    flush in one write; the first flush publishes header + resumed lines
    atomically instead.  :meth:`compact` publishes the canonical
    index-sorted file at the end of the campaign.
    """

    def __init__(self, path: str | Path, spec: CampaignSpec):
        self.path = Path(path)
        self.fingerprint = campaign_fingerprint(spec)
        self._header = json.dumps({
            "format": _FORMAT,
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "spec": to_jsonable(spec),
            "trace_version": TRACE_VERSION,
        }, sort_keys=True)
        self._lines: dict[int, str] = {}
        #: Lines added since the last flush, in arrival order.
        self._new: list[str] = []
        self._published = False

    def __len__(self) -> int:
        return len(self._lines)

    def preload(self, state: CheckpointState) -> None:
        """Carry a resumed run's prior trials into the journal."""
        for index, record in state.records.items():
            self._lines[index] = _line(
                index, "record", encode_record(record), state.traces.get(index)
            )
        for index, error in state.errors.items():
            self._lines[index] = _line(index, "error", to_jsonable(dataclasses.asdict(error)))
        for index, skip in state.skips.items():
            self._lines[index] = _line(index, "skip", to_jsonable(dataclasses.asdict(skip)))

    def _add(self, index: int, line: str) -> None:
        self._lines[index] = line
        self._new.append(line)

    def add_record(self, index: int, record: TrialRecord, trace: dict | None = None) -> None:
        self._add(index, _line(index, "record", encode_record(record), trace))

    def add_error(self, index: int, error: TrialError) -> None:
        self._add(index, _line(index, "error", to_jsonable(dataclasses.asdict(error))))

    def add_skip(self, index: int, skip: TrialSkip) -> None:
        self._add(index, _line(index, "skip", to_jsonable(dataclasses.asdict(skip))))

    def flush(self) -> Path:
        """Append the trials added since the last flush (first: publish)."""
        if not self._published:
            return self.compact()
        if self._new:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in self._new))
            self._new.clear()
        return self.path

    def compact(self) -> Path:
        """Publish header + every line in index order, atomically."""
        lines = [self._header]
        lines.extend(self._lines[index] for index in sorted(self._lines))
        atomic_write_text(self.path, "\n".join(lines) + "\n")
        self._published = True
        self._new.clear()
        return self.path
