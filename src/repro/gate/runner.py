"""Gate execution: resolve obligations, run recipes, collect verdicts.

Recipes are independent work items, so they run through the same
supervised pool that executes fault-injection trials
(:func:`repro.utils.parallel.map_trials`): per-recipe deadlines mean a
wedged recipe (a hung pytest subprocess, a stuck benchmark) is killed
and reported as an ``error`` outcome instead of stalling the release
forever, and a recipe that crashes its worker is quarantined without
taking the other recipes down.  ``jobs=1`` runs everything inline for
debugging.

Verdict algebra per obligation:

- every recipe ``pass``          → ``pass``
- any recipe ``fail``/``error``  → ``fail``, unless an *active* waiver
  covers the obligation          → ``waived``
- an expired waiver does not shield (the failure counts) and is itself
  flagged in the manifest.

The gate as a whole fails iff any **release-blocking** obligation ends
``fail``; ``advisory`` failures and waived failures are reported but
never block.
"""

from __future__ import annotations

import datetime as _dt
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path

from repro.gate.recipes import run_recipe
from repro.gate.spec import Obligation, RecipeSpec
from repro.utils.parallel import TrialFailure, map_trials

__all__ = ["check_obligations", "select_obligations"]

#: Flat per-recipe allowance on top of its declared timeout, covering
#: pool startup and result pickling (mirrors map_trials' grace idiom).
_RECIPE_GRACE = 30.0


class _RecipeTaskFactory:
    """Picklable ``map_trials`` task factory over the flat recipe table.

    The factory ships the whole (small) job table to each worker once;
    the returned task maps a trial index to one executed recipe.
    """

    def __init__(self, jobs: list[tuple[str, RecipeSpec]], root: str):
        self.jobs = jobs
        self.root = root

    def __call__(self, index: int | None = None):
        # Factory protocol (no args) returns the task; the task itself
        # is this same immutable object, called with a trial index.
        if index is None:
            return self
        return self.run(index)

    def run(self, index: int) -> dict:
        obligation_id, recipe = self.jobs[index]
        outcome = run_recipe(recipe, self.root)
        outcome["obligation"] = obligation_id
        return outcome


def select_obligations(
    obligations: list[Obligation], ids: list[str] | None
) -> list[Obligation]:
    """Resolve an id selection (None/empty = everything), order-stable."""
    if not ids:
        return list(obligations)
    by_id = {o.id: o for o in obligations}
    unknown = [i for i in ids if i not in by_id]
    if unknown:
        known = ", ".join(sorted(by_id)) or "<none>"
        raise KeyError(f"unknown obligation id(s) {unknown}; known: {known}")
    seen: set[str] = set()
    picked = []
    for obl_id in ids:
        if obl_id not in seen:
            seen.add(obl_id)
            picked.append(by_id[obl_id])
    return picked


def _obligation_verdict(obligation: Obligation, outcomes: list[dict],
                        today: _dt.date | None) -> dict:
    ok = all(o.get("status") == "pass" for o in outcomes)
    waiver = obligation.waiver
    verdict = "pass" if ok else "fail"
    entry = {
        "id": obligation.id,
        "title": obligation.title,
        "invariant": obligation.invariant,
        "severity": obligation.severity,
        "pack": obligation.pack,
        "spec_path": obligation.path,
        "tags": list(obligation.tags),
        "recipes": outcomes,
    }
    if not ok and waiver is not None:
        if waiver.active(today):
            verdict = "waived"
            entry["waiver"] = {"reason": waiver.reason, "expires": waiver.expires,
                               "by": waiver.by}
        else:
            entry["waiver_expired"] = {"reason": waiver.reason, "expires": waiver.expires}
    entry["verdict"] = verdict
    return entry


def check_obligations(
    obligations: list[Obligation],
    root: str | Path,
    *,
    jobs: int = 1,
    timeout_scale: float = 1.0,
    today: _dt.date | None = None,
    on_outcome: Callable[[dict], None] | None = None,
) -> dict:
    """Run every recipe of every obligation; return the gate report.

    Args:
        obligations: Already-selected obligations (see
            :func:`select_obligations`).
        root: Repo checkout the recipes run against.
        jobs: Worker processes for recipe fan-out (1 = inline).
        timeout_scale: Multiplier on every recipe's declared timeout
            (slow CI runners raise it rather than editing specs).
        today: Waiver-expiry reference date (defaults to the wall clock;
            tests pin it).
        on_outcome: Streaming callback per finished recipe outcome.

    Returns the report dict that :mod:`repro.gate.evidence` wraps into
    the evidence manifest: per-obligation verdicts + recipe outcomes +
    the overall ``ok`` flag (advisory/waived failures do not clear it).
    """
    flat: list[tuple[str, RecipeSpec]] = []
    for obligation in obligations:
        for recipe in obligation.recipes:
            flat.append((obligation.id, replace(recipe, timeout=recipe.timeout * timeout_scale)))

    outcomes_by_obligation: dict[str, list[dict]] = {o.id: [] for o in obligations}
    if flat:
        # Timing benchmarks measure wall-clock ratios; sharing cores
        # with other recipes skews them into false floor violations, so
        # `bench` recipes run *exclusively* after the pooled batch
        # (override per recipe with `exclusive: false`).
        exclusive = [i for i, (_, r) in enumerate(flat)
                     if r.type == "bench" and r.params.get("exclusive", True)]
        pooled = [i for i in range(len(flat)) if i not in set(exclusive)]

        # Uniform pool-level backstop: the widest declared deadline. The
        # per-recipe subprocess timeouts are the tight bound; this one
        # only catches recipes that wedge without ever timing out.
        pool_timeout = max(recipe.timeout for _, recipe in flat) + _RECIPE_GRACE

        def _on_result(index: int, value: object) -> None:
            if on_outcome is not None and isinstance(value, dict):
                on_outcome(value)

        factory = _RecipeTaskFactory(flat, str(Path(root)))
        results: list[object] = [None] * len(flat)
        if pooled:
            for index, value in zip(pooled, map_trials(
                factory,
                jobs=jobs,
                chunk=1,
                indices=pooled,
                timeout=pool_timeout,
                timeout_grace=_RECIPE_GRACE,
                max_retries=0,
                on_result=_on_result,
            )):
                results[index] = value
        for index in exclusive:
            value = factory.run(index)
            _on_result(index, value)
            results[index] = value

        for (obl_id, recipe), value in zip(flat, results):
            if isinstance(value, TrialFailure):
                value = {
                    "obligation": obl_id,
                    "type": recipe.type,
                    "describe": recipe.describe(),
                    "status": "error",
                    "pointer": f"recipe {value.reason} after {value.attempts} attempt(s)"
                               + (f": {value.message}" if value.message else ""),
                    "evidence": {"reason": value.reason, "attempts": value.attempts},
                    "duration_s": None,
                }
                if on_outcome is not None:
                    on_outcome(value)
            assert isinstance(value, dict)
            outcomes_by_obligation[obl_id].append(value)

    entries = [
        _obligation_verdict(o, outcomes_by_obligation[o.id], today) for o in obligations
    ]
    blocking_failures = [e["id"] for e in entries
                         if e["verdict"] == "fail" and e["severity"] == "release-blocking"]
    counts = {
        "total": len(entries),
        "passed": sum(1 for e in entries if e["verdict"] == "pass"),
        "failed": sum(1 for e in entries if e["verdict"] == "fail"),
        "waived": sum(1 for e in entries if e["verdict"] == "waived"),
    }
    return {
        "ok": not blocking_failures,
        "blocking_failures": blocking_failures,
        "counts": counts,
        "obligations": entries,
    }
