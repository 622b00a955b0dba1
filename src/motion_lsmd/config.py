"""Flat key=value configuration of the detector and the tracker.

Each key sets one or more fields of ``DetectorConfig`` or
``TrackerConfig``. Those dataclasses state every default and type; this
module states which fields each key sets and the range it accepts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from typing import Iterator

from .detector import DetectorConfig
from .errors import InputError, holds_foreign_number_text
from .tracker import TrackerConfig


def _positive(v) -> bool:
    return v > 0


def _non_negative(v) -> bool:
    return v >= 0


def _unit(v) -> bool:
    return 0.0 <= v <= 1.0


# key -> (the fields it sets, space-separated; range predicate;
# description of the legal range). A field is a dotted path from Config,
# where a digit step indexes an array. A key's type is its default's.
SCHEMA: dict[str, tuple[str, object, str]] = {
    "pipeline.seed": ("detector.seed tracker.seed", _non_negative, ">= 0"),
    "ingest.patch_size": ("detector.patch_size", _positive, "> 0"),
    "ingest.stride": ("detector.stride", _positive, "> 0"),
    "sparse.lambda1": ("tracker.lambda1", _non_negative, ">= 0"),
    "sparse.tol": ("tracker.tol", _positive, "> 0"),
    "lsmd.mu_L": ("detector.lsmd.mu_L", _positive, "> 0"),
    "lsmd.mu_S": ("detector.lsmd.mu_S", _positive, "> 0"),
    "lsmd.lambda_l1": ("detector.lsmd.lambda_l1", _non_negative, ">= 0"),
    "lsmd.max_iter": ("detector.lsmd.max_iter", _positive, "> 0"),
    "lsmd.rel_tol": ("detector.lsmd.rel_tol", _positive, "> 0"),
    "lsmd.k": ("detector.tree_k", lambda v: v >= 2, ">= 2"),
    "tracker.n_particles": ("tracker.n_particles", _positive, "> 0"),
    "tracker.sigma_lx": ("tracker.motion.sigma.0", _non_negative, ">= 0"),
    "tracker.sigma_ly": ("tracker.motion.sigma.1", _non_negative, ">= 0"),
    "tracker.sigma_theta": ("tracker.motion.sigma.2", _non_negative, ">= 0"),
    "tracker.sigma_s": ("tracker.motion.sigma.3", _non_negative, ">= 0"),
    "tracker.sigma_alpha": ("tracker.motion.sigma.4", _non_negative, ">= 0"),
    "tracker.sigma_phi": ("tracker.motion.sigma.5", _non_negative, ">= 0"),
    "tracker.n_templates": ("tracker.n_templates", lambda v: v >= 2, ">= 2"),
    "tracker.sigma_c": ("tracker.sigma_c", _positive, "> 0"),
    "tracker.eps_occ": ("tracker.eps_occ", _positive, "> 0"),
    "tracker.tau_update": ("tracker.tau_update", _unit, "in [0,1]"),
    "tracker.occ_gate": ("tracker.occ_gate", _unit, "in [0,1]"),
    "tracker.ring_scale": ("tracker.ring_scale", _positive, "> 0"),
    "detector.tau_on": ("detector.tau_on", _non_negative, ">= 0"),
    "detector.tau_off": ("detector.tau_off", _non_negative, ">= 0"),
    "detector.min_len": ("detector.min_len", _positive, "> 0"),
}


def _step(obj, name: str):
    return obj[int(name)] if name.isdigit() else getattr(obj, name)


@dataclass
class Config:
    """The library configs a run uses, each built from its own defaults.
    ``cfg[key] = value`` writes each field the key sets, and ``cfg[key]``
    reads the first one back."""

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)

    def _fields(self, key: str) -> Iterator[tuple[object, str]]:
        """(owner, last step) of each field that ``key`` sets."""
        for path in SCHEMA[key][0].split():
            *parents, last = path.split(".")
            yield reduce(_step, parents, self), last

    def __getitem__(self, key: str):
        owner, last = next(self._fields(key))
        value = _step(owner, last)
        return float(value) if isinstance(value, float) else value  # a sigma entry is a numpy float

    def __setitem__(self, key: str, value) -> None:
        for owner, last in self._fields(key):
            if last.isdigit():
                owner[int(last)] = value
            else:
                setattr(owner, last, value)

    def echo(self) -> None:
        for key in sorted(SCHEMA):
            print(f"{key} = {self[key]}", file=sys.stderr)


def _convert(key: str, raw: str, typ: type):
    _paths, check, legal = SCHEMA[key]
    raw = raw.strip()
    if holds_foreign_number_text(raw):
        raise InputError(f"{key} = {raw!r} holds '_' or non-ASCII text")
    try:
        val = typ(raw)
    except ValueError as exc:
        raise InputError(f"{key}: cannot parse {raw!r} as {typ.__name__}") from exc
    if typ is float and not math.isfinite(val):
        raise InputError(f"{key} = {raw!r} is not a finite number")
    if not check(val):
        raise InputError(f"{key} = {val!r} outside legal range ({legal})")
    return val


def iter_kv_lines(lines: list[str], source: str) -> Iterator[tuple[int, str, str]]:
    """The shared 'key = value' line format with '#' comments: yields
    (line number, key, raw value) per line, both sides stripped."""
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InputError(f"{source}:{lineno}: expected key = value")
        key, raw = stripped.split("=", 1)
        yield lineno, key.strip(), raw.strip()


def parse_config(
    path: str | Path | None = None,
    overrides: list[str] | None = None,
    verbose: bool = False,
) -> Config:
    """Parse a config file plus 'key=value' override strings.

    Overrides win over file values, and a repeated key keeps its last
    value; absent keys keep their dataclass defaults.
    """
    pairs: list[tuple[str, str]] = []
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        pairs += [(key, raw) for _lineno, key, raw in iter_kv_lines(text.splitlines(), str(path))]
    for item in overrides or []:
        if "=" not in item:
            raise InputError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        pairs.append((key.strip(), raw))
    cfg = Config()
    for key, raw in pairs:
        if key not in SCHEMA:
            raise InputError(f"unknown config key {key!r}")
        cfg[key] = _convert(key, raw, type(cfg[key]))
    if cfg["detector.tau_off"] > cfg["detector.tau_on"]:
        raise InputError("detector.tau_off must not exceed detector.tau_on")
    if verbose:
        cfg.echo()
    return cfg
