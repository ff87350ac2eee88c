"""Obligation specs: the declarative form of the repo's reliability invariants.

An *obligation* is one promise the repo makes (serial ≡ parallel ≡
batch-N ≡ kill/resume byte-identity, golden immutability, FIT within the
ISO 26262 budget, SED precision/recall floors, bench speedup floors,
lint cleanliness...) written down as data instead of being implied by
the existence of a CI job.  Each obligation declares:

- ``id`` — stable ``OBL-...`` identifier CI and waivers refer to;
- ``invariant`` — the promise in prose, for humans;
- ``severity`` — ``release-blocking`` (gate fails the release) or
  ``advisory`` (reported, never blocks);
- ``recipes`` — how to *check* the promise: pytest node ids, benchmark
  gauge floors over ``BENCH_<date>.json``, campaign-parity probes,
  obs-manifest diffs, lint sweeps, or a plain command;
- ``waiver`` — an explicit, expiring acknowledgement that the
  obligation is allowed to fail (reason + expiry date + who).

Specs live in ``obligations/*.yaml`` packs at the repo root; the gate
(:mod:`repro.gate.runner`) resolves them, executes the recipes, and
emits an evidence manifest (:mod:`repro.gate.evidence`).
"""

from __future__ import annotations

import datetime as _dt
import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

__all__ = [
    "OBLIGATION_ID_RE",
    "RECIPE_TYPES",
    "SEVERITIES",
    "SPEC_FORMAT",
    "SPEC_VERSION",
    "Obligation",
    "RecipeSpec",
    "SpecError",
    "Waiver",
    "default_spec_dir",
    "load_pack",
    "load_specs",
]

SPEC_FORMAT = "repro-obligations"
SPEC_VERSION = 1

#: Obligation identifiers: stable, grep-able, CI-referenceable.
OBLIGATION_ID_RE = re.compile(r"OBL-[A-Z0-9][A-Z0-9-]*")

SEVERITIES = ("release-blocking", "advisory")

#: Recipe executors the gate knows how to run (repro.gate.recipes).
RECIPE_TYPES = ("pytest", "bench", "campaign_parity", "lint", "obs_diff", "command")

#: Recipe wall-clock ceiling when a spec does not declare one (seconds).
DEFAULT_RECIPE_TIMEOUT = 900.0


class SpecError(ValueError):
    """An obligation pack is malformed (parse, schema, or policy error)."""


@dataclass(frozen=True)
class Waiver:
    """An expiring permission for an obligation to fail.

    A waiver is never silent: the evidence manifest records it, and an
    *expired* waiver stops shielding the obligation — the failure counts
    again, plus the manifest flags the stale waiver itself.
    """

    reason: str
    expires: str  # ISO date, YYYY-MM-DD
    by: str = ""

    def expiry_date(self) -> _dt.date:
        try:
            return _dt.date.fromisoformat(self.expires)
        except ValueError as exc:
            raise SpecError(f"waiver expiry {self.expires!r} is not YYYY-MM-DD") from exc

    def active(self, today: _dt.date | None = None) -> bool:
        today = today if today is not None else _dt.date.today()
        return today <= self.expiry_date()


@dataclass(frozen=True)
class RecipeSpec:
    """One executable evidence recipe of an obligation."""

    type: str
    params: dict = field(default_factory=dict)
    timeout: float = DEFAULT_RECIPE_TIMEOUT

    def describe(self) -> str:
        """One-line human summary used by ``list`` / ``explain``."""
        p = self.params
        if self.type == "pytest":
            nodes = p.get("nodes", [])
            head = nodes[0] if nodes else "?"
            extra = f" (+{len(nodes) - 1} more)" if len(nodes) > 1 else ""
            return f"pytest {head}{extra}"
        if self.type == "bench":
            checks = p.get("checks", [])
            parts = [f"{c.get('gauge')} {c.get('op', '>=')} {c.get('value')}" for c in checks]
            return "bench " + "; ".join(parts)
        if self.type == "campaign_parity":
            return (f"campaign_parity {p.get('network')}/{p.get('dtype', 'FLOAT16')}"
                    f" x{p.get('trials')} vs {','.join(p.get('variants', []))}")
        if self.type == "lint":
            return "repro-lint " + " ".join(p.get("paths", []))
        if self.type == "obs_diff":
            return f"obs_diff {p.get('run_a')} vs {p.get('run_b')}"
        if self.type == "command":
            return "command " + " ".join(str(a) for a in p.get("argv", []))
        return self.type


@dataclass(frozen=True)
class Obligation:
    """One declared invariant plus the recipes that evidence it."""

    id: str
    title: str
    invariant: str
    severity: str
    recipes: tuple[RecipeSpec, ...]
    tags: tuple[str, ...] = ()
    waiver: Waiver | None = None
    pack: str = ""
    path: str = ""

    @property
    def blocking(self) -> bool:
        return self.severity == "release-blocking"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _parse_recipe(raw: object, where: str) -> RecipeSpec:
    _require(isinstance(raw, dict), f"{where}: recipe must be a mapping, got {type(raw).__name__}")
    assert isinstance(raw, dict)
    params = dict(raw)
    rtype = params.pop("type", None)
    _require(isinstance(rtype, str) and rtype in RECIPE_TYPES,
             f"{where}: recipe type {rtype!r} not one of {RECIPE_TYPES}")
    timeout = params.pop("timeout", DEFAULT_RECIPE_TIMEOUT)
    _require(isinstance(timeout, (int, float)) and timeout > 0,
             f"{where}: recipe timeout must be a positive number")
    return RecipeSpec(type=str(rtype), params=params, timeout=float(timeout))


def _parse_waiver(raw: object, where: str) -> Waiver | None:
    if raw is None:
        return None
    _require(isinstance(raw, dict), f"{where}: waiver must be a mapping")
    assert isinstance(raw, dict)
    reason, expires = raw.get("reason"), raw.get("expires")
    _require(isinstance(reason, str) and bool(reason.strip()),
             f"{where}: waiver needs a non-empty 'reason'")
    _require(isinstance(expires, str) and bool(expires),
             f"{where}: waiver needs an 'expires' date (YYYY-MM-DD)")
    waiver = Waiver(reason=str(reason), expires=str(expires), by=str(raw.get("by", "")))
    waiver.expiry_date()  # validate eagerly, not at check time
    return waiver


def _parse_obligation(raw: object, pack: str, path: Path) -> Obligation:
    _require(isinstance(raw, dict), f"{path}: obligation must be a mapping")
    assert isinstance(raw, dict)
    obl_id = raw.get("id")
    where = f"{path}:{obl_id or '<missing id>'}"
    _require(isinstance(obl_id, str) and OBLIGATION_ID_RE.fullmatch(obl_id) is not None,
             f"{where}: id must match {OBLIGATION_ID_RE.pattern!r}")
    severity = raw.get("severity", "release-blocking")
    _require(severity in SEVERITIES, f"{where}: severity {severity!r} not one of {SEVERITIES}")
    title = raw.get("title")
    _require(isinstance(title, str) and bool(title.strip()), f"{where}: needs a 'title'")
    invariant = raw.get("invariant")
    _require(isinstance(invariant, str) and bool(invariant.strip()),
             f"{where}: needs the 'invariant' stated in prose")
    raw_recipes = raw.get("recipes")
    _require(isinstance(raw_recipes, list) and len(raw_recipes) > 0,
             f"{where}: needs at least one recipe")
    assert isinstance(raw_recipes, list)
    recipes = tuple(_parse_recipe(r, where) for r in raw_recipes)
    tags = raw.get("tags", [])
    _require(isinstance(tags, list) and all(isinstance(t, str) for t in tags),
             f"{where}: tags must be a list of strings")
    unknown = set(raw) - {"id", "title", "invariant", "severity", "recipes", "tags", "waiver"}
    _require(not unknown, f"{where}: unknown keys {sorted(unknown)}")
    return Obligation(
        id=str(obl_id),
        title=str(title).strip(),
        invariant=" ".join(str(invariant).split()),
        severity=str(severity),
        recipes=recipes,
        tags=tuple(tags),
        waiver=_parse_waiver(raw.get("waiver"), where),
        pack=pack,
        path=str(path),
    )


def load_pack(path: str | Path) -> list[Obligation]:
    """Parse one ``obligations/*.yaml`` pack into validated obligations."""
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise SpecError(f"{path}: {exc}") from exc
    _require(isinstance(doc, dict), f"{path}: pack must be a mapping")
    assert isinstance(doc, dict)
    _require(doc.get("format") == SPEC_FORMAT,
             f"{path}: format must be {SPEC_FORMAT!r}, got {doc.get('format')!r}")
    _require(doc.get("version") == SPEC_VERSION,
             f"{path}: unsupported version {doc.get('version')!r}")
    pack = doc.get("pack")
    _require(isinstance(pack, str) and bool(pack), f"{path}: needs a 'pack' name")
    raw = doc.get("obligations")
    _require(isinstance(raw, list) and len(raw) > 0, f"{path}: needs a non-empty 'obligations' list")
    assert isinstance(raw, list)
    return [_parse_obligation(o, str(pack), path) for o in raw]


def load_specs(spec_dir: str | Path) -> list[Obligation]:
    """Load every pack under ``spec_dir``, enforcing repo-unique ids."""
    spec_dir = Path(spec_dir)
    paths = sorted(spec_dir.glob("*.yaml")) + sorted(spec_dir.glob("*.yml"))
    _require(bool(paths), f"no obligation packs (*.yaml) under {spec_dir}")
    obligations: list[Obligation] = []
    seen: dict[str, str] = {}
    for path in paths:
        for obl in load_pack(path):
            if obl.id in seen:
                raise SpecError(
                    f"{path}: duplicate obligation id {obl.id} (also in {seen[obl.id]})")
            seen[obl.id] = str(path)
            obligations.append(obl)
    return sorted(obligations, key=lambda o: o.id)


def default_spec_dir(start: str | Path | None = None) -> Path:
    """Locate the repo's ``obligations/`` directory from ``start`` upward."""
    here = Path(start) if start is not None else Path.cwd()
    for candidate in (here, *here.resolve().parents):
        spec_dir = candidate / "obligations"
        if spec_dir.is_dir() and (
            list(spec_dir.glob("*.yaml")) or list(spec_dir.glob("*.yml"))
        ):
            return spec_dir
    # Fall back to the checkout that repro itself was imported from.
    pkg_root = Path(__file__).resolve().parents[3]
    spec_dir = pkg_root / "obligations"
    if spec_dir.is_dir():
        return spec_dir
    raise SpecError(
        f"no obligations/ directory found above {here} (pass --specs explicitly)")
