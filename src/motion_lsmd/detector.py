"""Frame-level activity energy, hysteresis event detection, report
aggregation, and synthetic sequence generation.

Per frame the pipeline is: difference image -> proposal grid -> feature
matrix -> low-rank/sparse decomposition under the clip's index tree ->
per-proposal activity scores -> one scalar energy. The tree is built
once per clip, over the proposal centres. Hysteresis over the per-frame
energies yields event intervals.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .ingest import check_clip, extract_proposals, feature_matrix, frame_difference
from .lsmd import (
    LsmdParams,
    activity_scores,
    build_index_tree,
    clustering_points,
    decompose,
    motion_prior,
)


@dataclass
class FrameScore:
    frame: int
    lsmd_energy: float


@dataclass
class EventInterval:
    start: int
    end: int  # inclusive
    peak: float = 0.0

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"start {self.start} > end {self.end}")

    def length(self) -> int:
        return self.end - self.start + 1


@dataclass
class ReportRow:
    name: str
    total_frames: int
    num_events: int
    correct_detections: int


@dataclass
class DetectionReport:
    rows: list[ReportRow]
    totals: ReportRow
    accuracy: float | None  # None when no events were evaluated


@dataclass
class DetectorConfig:
    """Settings of the LSMD detection pipeline: proposal grid, index tree,
    solver and hysteresis thresholds."""

    patch_size: int = 16
    stride: int = 8
    tree_k: int = 4
    lsmd: LsmdParams = field(default_factory=LsmdParams)
    tau_on: float = 0.5
    tau_off: float = 0.35
    min_len: int = 5
    seed: int = 0


# ---------------------------------------------------------------------------
# scoring and hysteresis
# ---------------------------------------------------------------------------

def frame_activity_energy(scores: np.ndarray) -> float:
    """Mean of the top 10% of proposal scores (at least one)."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise InputError("no proposal scores")
    k = max(1, math.ceil(0.1 * scores.size))
    top = np.partition(scores, scores.size - k)[scores.size - k :]
    return float(top.mean())


def detect_events(
    scores: list[FrameScore], tau_on: float, tau_off: float, min_len: int
) -> list[EventInterval]:
    """Hysteresis thresholding of the per-frame LSMD energy."""
    if tau_off > tau_on:
        raise InputError(f"tau_off {tau_off} > tau_on {tau_on}")
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    events: list[EventInterval] = []
    open_start = None
    peak = 0.0
    for sc in scores:
        if open_start is None:
            if sc.lsmd_energy >= tau_on:
                open_start = sc.frame
                peak = sc.lsmd_energy
        else:
            if sc.lsmd_energy >= tau_off:
                peak = max(peak, sc.lsmd_energy)
            else:
                if sc.frame - open_start >= min_len:
                    events.append(EventInterval(open_start, sc.frame - 1, peak))
                open_start = None
    if open_start is not None:
        last = scores[-1].frame
        if last - open_start + 1 >= min_len:
            events.append(EventInterval(open_start, last, peak))
    return events


def _check_sorted(intervals: list[EventInterval], label: str) -> None:
    for a, b in zip(intervals, intervals[1:]):
        if b.start <= a.end:
            raise InputError(f"{label} intervals must be sorted and disjoint")


def _overlap(a: EventInterval, b: EventInterval) -> int:
    return min(a.end, b.end) - max(a.start, b.start) + 1


def match_events(detected: list[EventInterval], truth: list[EventInterval]) -> int:
    """Greedy one-to-one matching in time order. A truth event counts as
    correct when an unmatched detection overlaps it by at least 50% of
    the shorter interval, the paper's rule. Under it one detection over a
    whole clip matches any one truth event, so the rule sees no false
    alarm or over-long detection; change it only deliberately, since every
    report's accuracy rests on it."""
    _check_sorted(detected, "detected")
    _check_sorted(truth, "truth")
    used = [False] * len(detected)
    correct = 0
    for tr in truth:
        for i, det in enumerate(detected):
            if used[i]:
                continue
            ov = _overlap(det, tr)
            if ov >= 0.5 * min(det.length(), tr.length()):
                used[i] = True
                correct += 1
                break
    return correct


def aggregate_report(rows: list[ReportRow]) -> DetectionReport:
    """Echo rows, add a totals row and the overall accuracy."""
    for r in rows:
        if r.total_frames < 0 or r.num_events < 0 or r.correct_detections < 0:
            raise InputError(f"negative count in row {r.name!r}")
        if r.correct_detections > r.num_events:
            raise InputError(
                f"row {r.name!r}: correct {r.correct_detections} exceeds events {r.num_events}"
            )
    totals = ReportRow(
        name="TOTAL",
        total_frames=sum(r.total_frames for r in rows),
        num_events=sum(r.num_events for r in rows),
        correct_detections=sum(r.correct_detections for r in rows),
    )
    accuracy = totals.correct_detections / totals.num_events if totals.num_events else None
    return DetectionReport(rows=list(rows), totals=totals, accuracy=accuracy)


# ---------------------------------------------------------------------------
# synthetic sequences
# ---------------------------------------------------------------------------

@dataclass
class SynthSpec:
    h: int = 64
    w: int = 64
    n_frames: int = 100
    events: list[tuple[int, int, str]] = field(default_factory=list)


_KINDS = ("burst", "swap")


def _render(bg: np.ndarray, centers: np.ndarray, amps: np.ndarray, sigma: float) -> np.ndarray:
    h, w = bg.shape
    yy, xx = np.mgrid[0:h, 0:w]
    img = bg.copy()
    for (cy, cx), amp in zip(centers, amps):
        img += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma * sigma))
    # quantize to the 8-bit grid the PGM pipeline delivers; this also snaps
    # far-field Gaussian tails to exact zero difference
    return np.rint(np.clip(img, 0.0, 1.0) * 255.0) / 255.0


# blob centres start this far inside the frame
_MARGIN = 12.0


def synth_sequence(spec: SynthSpec, seed: int = 0) -> tuple[Iterator[np.ndarray], list[EventInterval]]:
    """(frames, truth): two Gaussian blobs over static noise, as seen by a
    stationary camera: a frame outside every event is byte-equal to the
    one before it; inside events blobs move 4-8 px/frame (burst: one blob
    oscillates; swap: the blobs trade places). Events may come in any
    order but must not share a frame. Frames are quantized to the 8-bit
    grid the PGM pipeline delivers.

    The spec is checked now; the frames come from an iterator that
    renders each one when it is reached."""
    if spec.h < 2 * _MARGIN or 0.45 * spec.w < _MARGIN:
        raise InputError(f"synth frame {spec.h}x{spec.w} too small: need h >= 24 and w >= 27")
    if spec.n_frames < 1:
        raise InputError(f"synth needs n_frames >= 1, got {spec.n_frames}")
    if seed < 0:
        raise InputError(f"synth seed must be >= 0, got {seed}")
    for start, end, kind in spec.events:
        if not (0 <= start <= end < spec.n_frames):
            raise InputError(f"event ({start}, {end}) outside [0, {spec.n_frames})")
        if kind not in _KINDS:
            raise InputError(f"unknown event kind {kind!r}")
    ordered = sorted(spec.events)
    for (s0, e0, _k0), (s1, e1, _k1) in zip(ordered, ordered[1:]):
        if s1 <= e0:
            raise InputError(f"events ({s0}, {e0}) and ({s1}, {e1}) share frame {s1}")
    truth = [EventInterval(s, e) for s, e, _k in ordered]
    return _synth_frames(spec, seed), truth


def _synth_frames(spec: SynthSpec, seed: int) -> Iterator[np.ndarray]:
    rng = np.random.default_rng(seed)
    bg = 0.08 + 0.02 * rng.random((spec.h, spec.w))
    pos = np.array(
        [
            [rng.uniform(_MARGIN, spec.h - _MARGIN), rng.uniform(_MARGIN, spec.w * 0.45)],
            [rng.uniform(_MARGIN, spec.h - _MARGIN), rng.uniform(spec.w * 0.55, spec.w - _MARGIN)],
        ]
    )
    amps = np.array([0.8, 0.7])
    sigma = 2.5

    active: dict[int, tuple[int, int, str]] = {}
    for ev in spec.events:
        for t in range(ev[0], ev[1] + 1):
            active[t] = ev

    swap_anchor: dict[tuple[int, int], np.ndarray] = {}
    for t in range(spec.n_frames):
        yield _render(bg, pos, amps, sigma)
        if t + 1 >= spec.n_frames:
            break
        ev = active.get(t + 1)
        if ev is None:
            pass  # static scene between events
        elif ev[2] == "burst":
            # blob 0 jumps diagonally around its base point, ~4.5 px/frame
            start, _end, _ = ev
            phase = (t + 1) - start
            offset = 3.2 if phase % 2 else -3.2
            pos = pos.copy()
            pos[0, 0] += offset
            pos[0, 1] += -offset
        else:  # swap
            key = (ev[0], ev[1])
            if key not in swap_anchor:
                swap_anchor[key] = pos.copy()
            anchor = swap_anchor[key]
            dur = max(ev[1] - ev[0], 1)
            u = ((t + 1) - ev[0]) / dur
            lerp = anchor[::-1] * u + anchor * (1.0 - u)
            # alternating row wobble tops the lerp step up to ~5 px/frame
            step = np.linalg.norm(anchor[::-1] - anchor, axis=1) / dur
            wob = 0.5 * np.sqrt(np.maximum(25.0 - step**2, 0.0))
            sign = 1.0 if ((t + 1) - ev[0]) % 2 else -1.0
            pos = lerp + np.stack([sign * wob, np.zeros(2)], axis=1)
        pos[:, 0] = np.clip(pos[:, 0], 2.0, spec.h - 3.0)
        pos[:, 1] = np.clip(pos[:, 1], 2.0, spec.w - 3.0)


# ---------------------------------------------------------------------------
# the end-to-end detection pipeline
# ---------------------------------------------------------------------------

def run_detection(
    frames: Iterable[np.ndarray], config: DetectorConfig | None = None
) -> tuple[list[FrameScore], list[EventInterval]]:
    """Score frames 1..T-1 of a clip (see ``check_clip``) and extract
    events by hysteresis, reading the frames once and holding two.

    One index tree over the proposal centres is built at the first frame
    pair with motion and reused by every later one; a clip without motion
    builds none.

    The hysteresis thresholds are ``tau_on * peak`` and ``tau_off * peak``,
    where peak is the clip's largest frame energy; a clip whose peak is
    0 has no events.
    """
    clip = check_clip(frames)
    cfg = config or DetectorConfig()
    prev = next(clip)
    h, w = prev.shape
    tree = None
    scores: list[FrameScore] = []
    for t, cur in enumerate(clip, start=1):
        if t == 1 and cfg.patch_size > min(h, w):  # a still clip never reaches extract_proposals
            raise InputError(f"patch {cfg.patch_size} exceeds frame {h}x{w}")
        diff = frame_difference(prev, cur)
        prev = cur
        if not diff.any():
            # a still frame pair makes F = 0, which decomposes to L = S = +0.0
            # under any tree, so its energy is +0.0: skip the proposals and LSMD
            scores.append(FrameScore(t, 0.0))
            continue
        patches, centres = extract_proposals(diff, cfg.patch_size, cfg.stride)
        data = feature_matrix(patches)
        if tree is None:
            # every frame pair has the same proposal grid, so one tree over
            # its centres serves the whole clip
            tree = build_index_tree(clustering_points(centres, h, w), k=cfg.tree_k, seed=cfg.seed)
        dec = decompose(data, tree, cfg.lsmd)
        energy = frame_activity_energy(activity_scores(dec.S, motion_prior(patches)))
        scores.append(FrameScore(t, energy))

    peak = max((sc.lsmd_energy for sc in scores), default=0.0)
    if peak <= 0.0:
        return scores, []
    events = detect_events(scores, cfg.tau_on * peak, cfg.tau_off * peak, cfg.min_len)
    return scores, events
