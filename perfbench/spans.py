"""In-memory spans recorded around the public entry points of each layer.

The benchmark measures the program from outside: :class:`Hooks` swaps
module attributes that ``repro.core.campaign`` calls, and methods of the
classes it uses, for wrappers that record one :class:`Span` per call
(name, start, end, parent span).  Nothing under ``src/`` changes and the
program's own ``spans=True`` machinery stays off.  Spans are written out
once the run ends (:func:`dump_spans`).

A layer's self time is its span time minus the part of that interval
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Span",
    "SpanRecorder",
    "HookError",
    "HOOKS",
    "Hooks",
    "FirstCallProbe",
    "covered",
    "dump_spans",
    "self_times",
]


@dataclass
class Span:
    """One recorded call: ``[start, end]`` on ``time.perf_counter``."""

    id: int
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    #: Exact per-call facts (``masked``, ``trials``, ``bytes``).
    attrs: dict = field(default_factory=dict)


class SpanRecorder:
    """Spans of one thread, kept in memory; nesting follows the call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sp = Span(id=len(self.spans), name=name, start=self.clock(), parent=parent)
        self.spans.append(sp)
        self._stack.append(sp.id)
        return sp

    def finish(self, sp: Span) -> None:
        sp.end = self.clock()
        popped = self._stack.pop()
        if popped != sp.id:
            raise RuntimeError(f"span {sp.name!r} closed out of order")



def dump_spans(path: Path, campaigns: list[list[Span]]) -> None:
    """Write the spans of each campaign, one JSON line per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(campaigns):
            for sp in spans:
                fh.write(json.dumps({
                    "campaign": k, "id": sp.id, "name": sp.name, "start": sp.start,
                    "end": sp.end, "parent": sp.parent, **sp.attrs,
                }) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(
    spans: list[Span], window: tuple[float, float] | None = None
) -> dict[int, float]:
    """Self time of every span: its interval minus what its children cover.

    With ``window``, both the span and its children are first clipped to
    that interval (the campaign's trial phase, for instance).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out: dict[int, float] = {}
    for sp in spans:
        lo, hi = sp.start, sp.end
        if window is not None:
            lo, hi = max(lo, window[0]), min(hi, window[1])
        if hi <= lo:
            out[sp.id] = 0.0
            continue
        out[sp.id] = (hi - lo) - covered(children.get(sp.id, []), lo, hi)
    return out


class HookError(RuntimeError):
    """A hooked public name is missing, or a layer recorded no calls."""


def _trials_of_batch(args: tuple, kwargs: dict) -> int:
    # Network.forward_from_batch(self, layer_index, acts, ...)
    acts = kwargs["acts"] if "acts" in kwargs else args[2]
    return len(acts)


def _file_state(path: Path) -> tuple[int, int, int] | None:
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_dev, st.st_ino, st.st_size


def _bytes_written(before, after) -> int:
    """Bytes one flush wrote: a new file counts whole, an appended one its growth."""
    if after is None:
        return 0
    if before is None or before[:2] != after[:2]:
        return after[2]
    return max(0, after[2] - before[2])


#: (owner, attribute, layer, kind).  ``owner`` is ``module`` or
#: ``module:Class``; ``kind`` selects which exact facts the wrapper adds.
HOOKS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.core.campaign", "sample_datapath_fault", "fault.sample", "plain"),
    ("repro.core.campaign", "sample_buffer_fault", "fault.sample", "plain"),
    ("repro.core.campaign", "prepare_datapath", "injector.prepare", "prepare"),
    ("repro.core.campaign", "prepare_buffer", "injector.prepare", "prepare"),
    ("repro.nn.network:Network", "forward_from_batch", "network.propagate", "batch"),
    ("repro.nn.network:Network", "forward_from", "network.propagate", "single"),
    ("repro.nn.network:Network", "forward", "network.forward", "single"),
    ("repro.core.detectors:SymptomDetector", "scan", "detectors.scan", "plain"),
    ("repro.core.campaign", "learn_detector", "detectors.learn", "plain"),
    ("repro.core.campaign", "classify_outcome", "outcome.classify", "plain"),
    ("repro.core.checkpoint:CheckpointWriter", "flush", "checkpoint.flush", "flush"),
    ("repro.core.campaign", "build_trace", "tracer.build", "plain"),
    ("repro.obs.tracer:TraceWriter", "flush", "tracer.flush", "flush"),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _wrapper(recorder: SpanRecorder, layer: str, kind: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before = _file_state(args[0].path) if kind == "flush" else None
        sp = recorder.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.finish(sp)
        if kind == "prepare":
            sp.attrs["masked"] = bool(result.masked)
        elif kind == "batch":
            sp.attrs["trials"] = _trials_of_batch(args, kwargs)
        elif kind == "single":
            sp.attrs["trials"] = 1
        elif kind == "flush":
            sp.attrs["bytes"] = _bytes_written(before, _file_state(args[0].path))
        return result

    return traced


_INHERITED = object()


class _Patch:
    """Swap named attributes for wrappers; ``restore`` puts them back."""

    def __init__(self, hooks, make):
        self._saved: list[tuple[object, str, object]] = []
        missing = []
        targets = []
        for owner, attr, layer, kind in hooks:
            try:
                obj = _resolve(owner)
            except (ImportError, AttributeError):
                missing.append(f"{owner} (owner)")
                continue
            fn = getattr(obj, attr, None)
            if not callable(fn):
                missing.append(f"{owner}.{attr}")
                continue
            targets.append((obj, attr, layer, kind, fn))
        if missing:
            raise HookError(
                "hooked public names are missing (update perfbench/spans.py HOOKS): "
                + ", ".join(missing)
            )
        for obj, attr, layer, kind, fn in targets:
            # An inherited method is restored by deleting the override.
            self._saved.append((obj, attr, vars(obj).get(attr, _INHERITED)))
            setattr(obj, attr, make(layer, kind, fn))

    def restore(self) -> None:
        for obj, attr, fn in reversed(self._saved):
            if fn is _INHERITED:
                delattr(obj, attr)
            else:
                setattr(obj, attr, fn)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Hooks(_Patch):
    """Every hook in :data:`HOOKS`, recording into ``recorder``."""

    def __init__(self, recorder: SpanRecorder):
        super().__init__(HOOKS, lambda layer, kind, fn: _wrapper(recorder, layer, kind, fn))


class FirstCallProbe(_Patch):
    """Timestamp of the first fault sample: where a campaign's set-up ends.

    The only hook of an untraced run — one clock read per campaign and a
    ``None`` test per trial — so end-to-end figures carry no span cost.
    """

    def __init__(self):
        self.first: float | None = None

        def make(layer, kind, fn):
            @functools.wraps(fn)
            def probe(*args, **kwargs):
                if self.first is None:
                    self.first = time.perf_counter()
                return fn(*args, **kwargs)

            return probe

        super().__init__([h for h in HOOKS if h[2] == "fault.sample"], make)
