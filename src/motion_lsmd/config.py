"""Flat key=value configuration covering every documented default."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .detector import DetectorConfig
from .errors import InputError, holds_foreign_number_text
from .lsmd import LsmdParams
from .tracker import MotionModelParams, TrackerConfig


def _positive(v) -> bool:
    return v > 0


def _non_negative(v) -> bool:
    return v >= 0


def _unit(v) -> bool:
    return 0.0 <= v <= 1.0


def _any(_v) -> bool:
    return True


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# key -> (type, default, range predicate, description of the legal range)
SCHEMA: dict[str, tuple[type, object, object, str]] = {
    "pipeline.seed": (int, 0, _non_negative, ">= 0"),
    "ingest.patch_size": (int, 16, _positive, "> 0"),
    "ingest.stride": (int, 8, _positive, "> 0"),
    "sparse.lambda1": (float, 0.01, _non_negative, ">= 0"),
    "sparse.tol": (float, 1e-8, _positive, "> 0"),
    "lsmd.mu_L": (float, 1.0, _positive, "> 0"),
    "lsmd.mu_S": (float, 0.3, _positive, "> 0"),
    "lsmd.lambda_l1": (float, 0.05, _non_negative, ">= 0"),
    "lsmd.max_iter": (int, 200, _positive, "> 0"),
    "lsmd.rel_tol": (float, 1e-6, _positive, "> 0"),
    "lsmd.k": (int, 4, lambda v: v >= 2, ">= 2"),
    "tracker.n_particles": (int, 600, _positive, "> 0"),
    "tracker.sigma_lx": (float, 4.0, _non_negative, ">= 0"),
    "tracker.sigma_ly": (float, 4.0, _non_negative, ">= 0"),
    "tracker.sigma_theta": (float, 0.02, _non_negative, ">= 0"),
    "tracker.sigma_s": (float, 0.01, _non_negative, ">= 0"),
    "tracker.sigma_alpha": (float, 0.002, _non_negative, ">= 0"),
    "tracker.sigma_phi": (float, 0.001, _non_negative, ">= 0"),
    "tracker.n_templates": (int, 10, lambda v: v >= 2, ">= 2"),
    "tracker.sigma_c": (float, 0.1, _positive, "> 0"),
    "tracker.eps_occ": (float, 0.15, _positive, "> 0"),
    "tracker.tau_update": (float, 0.3, _unit, "in [0,1]"),
    "tracker.occ_gate": (float, 0.3, _unit, "in [0,1]"),
    "tracker.ring_scale": (float, 1.5, _positive, "> 0"),
    "detector.tau_on": (float, 0.5, _non_negative, ">= 0"),
    "detector.tau_off": (float, 0.35, _non_negative, ">= 0"),
    "detector.min_len": (int, 5, _positive, "> 0"),
    "detector.normalize": (bool, True, _any, "bool"),
}


@dataclass
class Config:
    values: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        merged = {k: spec[1] for k, spec in SCHEMA.items()}
        merged.update(self.values)
        self.values = merged

    def __getitem__(self, key: str):
        return self.values[key]

    def echo(self) -> None:
        for key in sorted(self.values):
            print(f"{key} = {self.values[key]}", file=sys.stderr)

    # --- views consumed by the library modules ---

    def tracker_config(self) -> TrackerConfig:
        sigma = np.array(
            [
                self["tracker.sigma_lx"],
                self["tracker.sigma_ly"],
                self["tracker.sigma_theta"],
                self["tracker.sigma_s"],
                self["tracker.sigma_alpha"],
                self["tracker.sigma_phi"],
            ]
        )
        return TrackerConfig(
            n_particles=self["tracker.n_particles"],
            motion=MotionModelParams(sigma=sigma),
            n_templates=self["tracker.n_templates"],
            sigma_c=self["tracker.sigma_c"],
            eps_occ=self["tracker.eps_occ"],
            tau_update=self["tracker.tau_update"],
            occ_gate=self["tracker.occ_gate"],
            ring_scale=self["tracker.ring_scale"],
            seed=self["pipeline.seed"],
            lambda1=self["sparse.lambda1"],
            tol=self["sparse.tol"],
        )

    def lsmd_params(self) -> LsmdParams:
        return LsmdParams(
            mu_L=self["lsmd.mu_L"],
            mu_S=self["lsmd.mu_S"],
            lambda_l1=self["lsmd.lambda_l1"],
            max_iter=self["lsmd.max_iter"],
            rel_tol=self["lsmd.rel_tol"],
        )

    def detector_config(self) -> DetectorConfig:
        return DetectorConfig(
            patch_size=self["ingest.patch_size"],
            stride=self["ingest.stride"],
            tree_k=self["lsmd.k"],
            lsmd=self.lsmd_params(),
            tau_on=self["detector.tau_on"],
            tau_off=self["detector.tau_off"],
            min_len=self["detector.min_len"],
            normalize=self["detector.normalize"],
            seed=self["pipeline.seed"],
        )


def _convert(key: str, raw: str):
    typ, _default, check, legal = SCHEMA[key]
    raw = raw.strip()
    if holds_foreign_number_text(raw):
        raise InputError(f"{key} = {raw!r} holds '_' or non-ASCII text")
    try:
        if typ is bool:
            val = _parse_bool(raw)
        elif typ is int:
            val = int(raw)
        else:
            val = float(raw)
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
    value; absent keys take documented defaults.
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
    values: dict[str, object] = {}
    for key, raw in pairs:
        if key not in SCHEMA:
            raise InputError(f"unknown config key {key!r}")
        values[key] = _convert(key, raw)
    cfg = Config(values=values)
    if cfg["detector.tau_off"] > cfg["detector.tau_on"]:
        raise InputError("detector.tau_off must not exceed detector.tau_on")
    if verbose:
        cfg.echo()
    return cfg
