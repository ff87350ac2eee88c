"""Recipe executors: turn an obligation's evidence recipe into a verdict.

Every executor returns a JSON-safe *outcome* dict::

    {"status": "pass" | "fail" | "error",
     "duration_s": float,
     "pointer": "<one-line evidence pointer>",
     "evidence": {...recipe-specific detail...}}

``fail`` means the recipe ran and the invariant does not hold; ``error``
means the recipe itself could not produce evidence (missing file, crash,
timeout).  Both are gate failures — an invariant without evidence is not
satisfied — but the distinction is preserved in the manifest so a broken
recipe is not mistaken for a broken invariant.

Recipe types
------------
- ``pytest`` — run the named test node ids in a subprocess; the nodes
  *are* the evidence pointer.
- ``bench`` — evaluate gauge floor expressions against the newest
  ``benchmarks/BENCH_<date>.json`` snapshot, optionally (re)generating
  the gauges by running a benchmark file when they are absent.
- ``campaign_parity`` — run one campaign under several execution
  variants (``jobsN``, ``batchN``, ``resume``) and require every
  summary to be byte-identical to the serial baseline; ``jobsN`` with
  N > 1 runs on the shared-memory golden segment, and the ``resume``
  variant also diffs the two run manifests through
  :func:`repro.obs.cli.compare_runs`.  Optional ``target_halfwidth`` /
  ``stop_stratify`` / ``stop_check_every`` params put the early-stopping
  rule on the spec so its skip decisions are part of the parity.
  Optional ``trace_mode`` / ``trace_every`` params turn on the
  propagation flight recorder: every variant then writes its own trace
  file and must match the serial one ``read_bytes``-for-byte; the
  ``resume`` variant restarts from a half-truncated trace and has to
  re-derive the missing rows identically.
- ``lint`` — in-process ``repro-lint`` sweep; any finding is a failure.
- ``obs_diff`` — compare two existing run manifests / run logs.
- ``command`` — arbitrary argv; exit 0 is the invariant.
"""

from __future__ import annotations

import fnmatch
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.gate.spec import RECIPE_TYPES, RecipeSpec

__all__ = ["run_recipe"]

#: Characters of subprocess output preserved as evidence.
_OUTPUT_TAIL = 4000


def _tail(text: str, limit: int = _OUTPUT_TAIL) -> str:
    text = text.strip()
    return text if len(text) <= limit else "...[truncated]...\n" + text[-limit:]


def _subprocess_env(root: Path) -> dict:
    env = dict(os.environ)
    src = root / "src"
    if src.is_dir():
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else str(src)
    return env


def _run_argv(argv: list[str], root: Path, timeout: float) -> dict:
    """Run a subprocess, capturing the outcome shape all runners share."""
    try:
        proc = subprocess.run(
            argv, cwd=root, env=_subprocess_env(root),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"returncode": None, "timed_out": True, "output": "", "argv": argv}
    except OSError as exc:
        return {"returncode": None, "timed_out": False,
                "output": f"spawn failed: {exc}", "argv": argv}
    output = proc.stdout + ("\n" + proc.stderr if proc.stderr.strip() else "")
    return {"returncode": proc.returncode, "timed_out": False,
            "output": _tail(output), "argv": argv}


# -- pytest ----------------------------------------------------------------- #
def _recipe_pytest(params: dict, root: Path, timeout: float) -> dict:
    nodes = params.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        return {"status": "error", "pointer": "pytest recipe needs 'nodes'", "evidence": {}}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *nodes]
    run = _run_argv(argv, root, timeout)
    if run["timed_out"]:
        return {"status": "error", "pointer": f"pytest timed out after {timeout:g}s",
                "evidence": {"nodes": nodes, **run}}
    ok = run["returncode"] == 0
    pointer = f"pytest exit {run['returncode']}: {', '.join(nodes)}"
    return {"status": "pass" if ok else "fail", "pointer": pointer,
            "evidence": {"nodes": nodes, **run}}


# -- bench gauge floors ----------------------------------------------------- #
_OPS = {
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
}

_AGGS = {
    "max": max,
    "min": min,
    "mean": lambda vals: sum(vals) / len(vals),
}


def _latest_bench(root: Path, pattern: str) -> Path | None:
    candidates = sorted(root.glob(pattern))
    return candidates[-1] if candidates else None


def _load_gauges(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    return dict(payload.get("snapshot", {}).get("gauges", {}))


def _eval_check(check: dict, gauges: dict) -> dict:
    gauge, op = check.get("gauge", ""), check.get("op", ">=")
    agg, floor = check.get("agg", "max"), check.get("value")
    result = {"gauge": gauge, "op": op, "agg": agg, "value": floor}
    if op not in _OPS or agg not in _AGGS or not isinstance(floor, (int, float)):
        result.update(ok=False, reason="malformed check")
        return result
    matched = {k: v for k, v in gauges.items() if fnmatch.fnmatchcase(k, gauge)}
    if not matched:
        result.update(ok=False, reason="no matching gauge", matched={})
        return result
    observed = _AGGS[agg](list(matched.values()))
    result.update(ok=bool(_OPS[op](observed, floor)), observed=observed, matched=matched)
    return result


def _recipe_bench(params: dict, root: Path, timeout: float) -> dict:
    pattern = params.get("file", "benchmarks/BENCH_*.json")
    checks = params.get("checks")
    if not isinstance(checks, list) or not checks:
        return {"status": "error", "pointer": "bench recipe needs 'checks'", "evidence": {}}
    generate = params.get("generate")

    path = _latest_bench(root, pattern)
    gauges = _load_gauges(path) if path is not None else {}
    missing = [c for c in checks
               if not any(fnmatch.fnmatchcase(k, c.get("gauge", "")) for k in gauges)]
    generated = None

    def _regenerate() -> dict | None:
        # (Re)measure: run the benchmark file that owns the gauges; its
        # session-end hook merges them into today's BENCH snapshot.
        nonlocal path, gauges, generated
        generated = _run_argv([sys.executable, "-m", "pytest", "-q", generate], root, timeout)
        if generated["timed_out"]:
            return {"status": "error",
                    "pointer": f"benchmark generation timed out after {timeout:g}s",
                    "evidence": {"generate": generated}}
        path = _latest_bench(root, pattern)
        gauges = _load_gauges(path) if path is not None else {}
        return None

    can_generate = isinstance(generate, str) and bool(generate)
    if missing and can_generate:
        timed_out = _regenerate()
        if timed_out is not None:
            return timed_out

    if path is None:
        return {"status": "error", "pointer": f"no benchmark snapshot matches {pattern}",
                "evidence": {"pattern": pattern, "generate": generated}}
    results = [_eval_check(c, gauges) for c in checks]
    ok = all(r["ok"] for r in results)
    if not ok and generated is None and can_generate:
        # A stale snapshot (e.g. measured under load) may under-report;
        # re-measure once before calling the floor violated.
        timed_out = _regenerate()
        if timed_out is not None:
            return timed_out
        results = [_eval_check(c, gauges) for c in checks]
        ok = all(r["ok"] for r in results)
    worst = next((r for r in results if not r["ok"]), None)
    pointer = (f"all {len(results)} gauge floor(s) hold in {path.name}" if ok else
               f"{worst['gauge']} {worst['op']} {worst['value']} violated in {path.name}"
               f" (observed {worst.get('observed', 'nothing')})")
    evidence = {"file": str(path), "checks": results}
    if generated is not None:
        evidence["generate"] = generated
    return {"status": "pass" if ok else "fail", "pointer": pointer, "evidence": evidence}


# -- campaign parity -------------------------------------------------------- #
def _comparable_summary(result) -> dict:
    from repro.core.serialize import campaign_summary

    summary = campaign_summary(result)
    # Execution counters describe the harness (retries, pool rebuilds,
    # resumed trials), not the physics; identity is everything else.
    summary.pop("execution", None)
    return json.loads(json.dumps(summary, sort_keys=True))


def _summary_divergences(base: dict, other: dict) -> list[str]:
    from repro.obs.cli import _flatten

    flat_a: dict = {}
    flat_b: dict = {}
    _flatten(base, "", flat_a)
    _flatten(other, "", flat_b)
    return sorted(
        key for key in set(flat_a) | set(flat_b)
        if flat_a.get(key, "<absent>") != flat_b.get(key, "<absent>")
    )


def _recipe_campaign_parity(params: dict, root: Path, timeout: float) -> dict:
    del timeout  # the supervised pool's per-recipe deadline is the backstop
    from repro.core.campaign import CampaignSpec, run_campaign
    from repro.obs.cli import compare_runs
    from repro.obs.manifest import load_run

    network = params.get("network")
    if not isinstance(network, str) or not network:
        return {"status": "error", "pointer": "campaign_parity needs 'network'", "evidence": {}}
    halfwidth = params.get("target_halfwidth")
    spec = CampaignSpec(
        network=network,
        dtype=str(params.get("dtype", "FLOAT16")),
        target=str(params.get("target", "datapath")),
        n_trials=int(params.get("trials", 48)),
        seed=int(params.get("seed", 9)),
        target_halfwidth=float(halfwidth) if halfwidth is not None else None,
        stop_stratify=str(params.get("stop_stratify", "overall")),
        stop_check_every=int(params.get("stop_check_every", 64)),
        trace_mode=str(params.get("trace_mode", "off")),
        trace_every=int(params.get("trace_every", 16)),
    )
    variants = params.get("variants", ["jobs2", "batch16", "resume"])
    tracing = spec.trace_mode != "off"

    with tempfile.TemporaryDirectory(prefix="repro-gate-") as tmp:
        tmpdir = Path(tmp)

        def _trace_kwargs(label: str) -> dict:
            # Each run writes its own trace file; the parity claim is
            # that every one of them is byte-identical to serial's.
            return {"trace_path": tmpdir / f"{label}.trace.jsonl"} if tracing else {}

        def _trace_divergence(label: str) -> list[str]:
            if not tracing:
                return []
            base = (tmpdir / "serial.trace.jsonl").read_bytes()
            other = (tmpdir / f"{label}.trace.jsonl").read_bytes()
            return [] if base == other else [f"trace:{label} bytes differ from serial"]

        baseline = run_campaign(spec, **_trace_kwargs("serial"))
        base_summary = _comparable_summary(baseline)
        per_variant: dict[str, dict] = {}
        for variant in variants:
            if variant.startswith("jobs"):
                result = run_campaign(spec, jobs=int(variant[4:] or 2),
                                      **_trace_kwargs(variant))
                diverged = _summary_divergences(base_summary, _comparable_summary(result))
            elif variant.startswith("batch"):
                result = run_campaign(spec, batch=int(variant[5:] or 16),
                                      **_trace_kwargs(variant))
                diverged = _summary_divergences(base_summary, _comparable_summary(result))
            elif variant == "resume":
                # A kill at ~50%: the reference run's checkpoint truncated
                # to its first half of entry lines (header preserved), then
                # a resumed run on top of it.  Truncating the real file —
                # rather than re-writing records by position — keeps trial
                # indices and early-stop skip entries faithful.  Trace rows
                # live on their records' lines, so the truncation tears the
                # trace back too: the resumed run must re-derive the second
                # half of the rows byte-for-byte.
                ref_ck = tmpdir / "ref.jsonl"
                run_campaign(spec, checkpoint=ref_ck, **_trace_kwargs("ref"))
                half_ck = tmpdir / "half.jsonl"
                lines = ref_ck.read_text(encoding="utf-8").splitlines()
                header, entries = lines[0], lines[1:]
                half_ck.write_text(
                    "\n".join([header] + entries[: len(entries) // 2]) + "\n",
                    encoding="utf-8",
                )
                result = run_campaign(spec, checkpoint=half_ck, resume=True,
                                      **_trace_kwargs("resume"))
                diverged = _summary_divergences(base_summary, _comparable_summary(result))
                # The run manifests must agree on every deterministic
                # fact too — the same check `repro-obs diff` enforces.
                manifest_a = ref_ck.with_name(ref_ck.name + ".manifest.json")
                manifest_b = half_ck.with_name(half_ck.name + ".manifest.json")
                diverged += [
                    f"manifest:{line}"
                    for line in compare_runs(load_run(manifest_a), load_run(manifest_b))
                ]
            else:
                per_variant[variant] = {"identical": False, "diverged": ["unknown variant"]}
                continue
            diverged += _trace_divergence(variant)
            per_variant[variant] = {"identical": not diverged, "diverged": diverged[:20]}

    ok = all(v["identical"] for v in per_variant.values())
    bad = sorted(v for v, d in per_variant.items() if not d["identical"])
    pointer = (
        f"{network} x{spec.n_trials}: serial == {', '.join(per_variant)} (byte-identical)"
        if ok else f"{network} x{spec.n_trials}: diverged under {', '.join(bad)}"
    )
    return {"status": "pass" if ok else "fail", "pointer": pointer,
            "evidence": {"spec": {"network": spec.network, "dtype": spec.dtype,
                                  "target": spec.target, "n_trials": spec.n_trials,
                                  "seed": spec.seed},
                         "variants": per_variant}}


# -- lint ------------------------------------------------------------------- #
def _recipe_lint(params: dict, root: Path, timeout: float) -> dict:
    del timeout
    from repro.analysis.config import find_pyproject, load_config
    from repro.analysis.engine import lint_paths

    rel_paths = params.get("paths", ["src", "tests", "benchmarks", "examples"])
    targets = [root / p for p in rel_paths if (root / p).exists()]
    if not targets:
        return {"status": "error", "pointer": f"no lint targets exist under {root}",
                "evidence": {"paths": rel_paths}}
    config = load_config(find_pyproject(root))
    findings = lint_paths(targets, config, root=root)
    shown = [f"{f.file}:{f.line}: {f.rule_id} {f.message}" for f in findings[:10]]
    pointer = ("repro-lint clean over " + " ".join(str(p) for p in rel_paths)
               if not findings else f"repro-lint: {len(findings)} finding(s)")
    return {"status": "pass" if not findings else "fail", "pointer": pointer,
            "evidence": {"paths": [str(p) for p in rel_paths],
                         "findings": len(findings), "first": shown}}


# -- obs diff --------------------------------------------------------------- #
def _recipe_obs_diff(params: dict, root: Path, timeout: float) -> dict:
    del timeout
    from repro.obs.cli import compare_runs
    from repro.obs.manifest import load_run

    run_a, run_b = params.get("run_a"), params.get("run_b")
    if not run_a or not run_b:
        return {"status": "error", "pointer": "obs_diff needs 'run_a' and 'run_b'",
                "evidence": {}}
    paths = [Path(p) if Path(p).is_absolute() else root / p for p in (run_a, run_b)]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        return {"status": "error", "pointer": f"run file(s) missing: {', '.join(missing)}",
                "evidence": {"missing": missing}}
    diverged = compare_runs(load_run(paths[0]), load_run(paths[1]))
    pointer = (f"{paths[0].name} == {paths[1].name} on every deterministic fact"
               if not diverged else
               f"{paths[0].name} != {paths[1].name}: {len(diverged)} fact(s) differ")
    return {"status": "pass" if not diverged else "fail", "pointer": pointer,
            "evidence": {"run_a": str(paths[0]), "run_b": str(paths[1]),
                         "diverged": diverged[:20]}}


# -- command ---------------------------------------------------------------- #
def _recipe_command(params: dict, root: Path, timeout: float) -> dict:
    argv = params.get("argv")
    if not isinstance(argv, list) or not argv:
        return {"status": "error", "pointer": "command recipe needs 'argv'", "evidence": {}}
    run = _run_argv([str(a) for a in argv], root, timeout)
    if run["timed_out"]:
        return {"status": "error", "pointer": f"command timed out after {timeout:g}s",
                "evidence": run}
    ok = run["returncode"] == 0
    return {"status": "pass" if ok else "fail",
            "pointer": f"exit {run['returncode']}: {' '.join(str(a) for a in argv)}",
            "evidence": run}


_RUNNERS = {
    "pytest": _recipe_pytest,
    "bench": _recipe_bench,
    "campaign_parity": _recipe_campaign_parity,
    "lint": _recipe_lint,
    "obs_diff": _recipe_obs_diff,
    "command": _recipe_command,
}

assert set(_RUNNERS) == set(RECIPE_TYPES), "recipe registry out of sync with spec"


def run_recipe(recipe: RecipeSpec, root: str | Path) -> dict:
    """Execute one recipe against the checkout at ``root``.

    Never raises: an executor bug becomes an ``error`` outcome so the
    gate can report it alongside the honest verdicts.
    """
    runner = _RUNNERS.get(recipe.type)
    start = time.perf_counter()
    if runner is None:
        outcome = {"status": "error", "pointer": f"unknown recipe type {recipe.type!r}",
                   "evidence": {}}
    else:
        try:
            outcome = runner(dict(recipe.params), Path(root), recipe.timeout)
        except Exception as exc:  # a recipe bug must not take down the gate
            outcome = {"status": "error",
                       "pointer": f"recipe raised {type(exc).__name__}: {exc}",
                       "evidence": {"exception": repr(exc)}}
    outcome["type"] = recipe.type
    outcome["describe"] = recipe.describe()
    outcome["duration_s"] = round(time.perf_counter() - start, 3)
    return outcome
