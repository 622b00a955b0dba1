"""Detection quality beyond the clean clips: criterion 7's synthetic
clips, perturbed here rather than by `synth` knobs, scored cell by cell.

A cell is one perturbation over a range of clip seeds. It reads
(correct truth events / truth events, detections, F1), with
F1 = 2 correct / (truth + detections) and a truth event correct as
`match_events` counts it. Seeds 0-19 tune; seeds 20-39 (clean) and 8-19
(noise) are held out.

Run `python tests/detection_quality.py` to print the table for the
package under this checkout's `src`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from motion_lsmd.detector import DetectorConfig, EventInterval, match_events, run_detection, synth_sequence

from test_acceptance import _event_spec


def _remap(frames: list[np.ndarray], pixels) -> list[np.ndarray]:
    """The clip with frame i replaced by pixels(i, frame i)."""
    return [pixels(i, f) for i, f in enumerate(frames)]


def noise(sigma: float):
    """Gaussian pixel noise of std sigma from default_rng(5000 + seed),
    drawn frame by frame, clipped to [0, 1]."""

    def perturb(frames: list[np.ndarray], seed: int) -> list[np.ndarray]:
        rng = np.random.default_rng(5000 + seed)
        return _remap(frames, lambda i, p: np.clip(p + rng.normal(0.0, sigma, p.shape), 0.0, 1.0))

    return perturb


def gain_ramp(frames: list[np.ndarray], seed: int) -> list[np.ndarray]:
    """Frame i of n multiplied by 0.6 + 0.8 i / (n - 1), clipped to [0, 1]."""
    n = len(frames)
    return _remap(frames, lambda i, p: np.clip(p * (0.6 + 0.8 * i / (n - 1)), 0.0, 1.0))


def jitter(frames: list[np.ndarray], seed: int) -> list[np.ndarray]:
    """Frame i rolled by a (dy, dx) in {-1, 0, 1}^2, row i of
    default_rng(7000 + seed).integers(-1, 2, size=(n, 2))."""
    shifts = np.random.default_rng(7000 + seed).integers(-1, 2, size=(len(frames), 2))
    return _remap(frames, lambda i, p: np.roll(p, tuple(shifts[i]), axis=(0, 1)))


def clean(frames: list[np.ndarray], seed: int) -> list[np.ndarray]:
    return frames


@dataclass
class Cell:
    name: str
    perturb: object  # (clip, seed) -> clip, a clip being a list of 2-D arrays
    seeds: range


CELLS = [
    Cell("clean, seeds 0-19", clean, range(0, 20)),
    Cell("held out: clean, seeds 20-39", clean, range(20, 40)),
    Cell("sigma = 0.01, seeds 0-7", noise(0.01), range(0, 8)),
    Cell("sigma = 0.03, seeds 0-7", noise(0.03), range(0, 8)),
    Cell("held out: sigma = 0.03, seeds 8-19", noise(0.03), range(8, 20)),
    Cell("held out: sigma = 0.05, seeds 8-19", noise(0.05), range(8, 20)),
    Cell("gain ramp, seeds 0-7", gain_ramp, range(0, 8)),
    Cell("1-px jitter, seeds 0-7", jitter, range(0, 8)),
    Cell("sigma = 0.08, seeds 0-7", noise(0.08), range(0, 8)),
]


@dataclass
class CellResult:
    correct: int
    truth: int
    events: dict[int, list[EventInterval]]  # detected events per clip seed

    @property
    def detected(self) -> int:
        return sum(len(ev) for ev in self.events.values())

    @property
    def f1(self) -> float:
        return 2.0 * self.correct / (self.truth + self.detected)

    def __str__(self) -> str:
        return f"{self.correct}/{self.truth}, {self.detected}, {self.f1:.3f}"


def run_cell(cell: Cell, cfg: DetectorConfig | None = None) -> CellResult:
    """Detect on every perturbed clip of the cell and match against truth."""
    result = CellResult(correct=0, truth=0, events={})
    for seed in cell.seeds:
        frames, truth = synth_sequence(_event_spec(seed), seed=seed)
        frames = list(frames)
        _scores, events = run_detection(cell.perturb(frames, seed), cfg)
        result.correct += match_events(events, truth)
        result.truth += len(truth)
        result.events[seed] = events
    return result


def main() -> int:
    print("| cell | correct/truth, detections, F1 |")
    print("| --- | --- |")
    for cell in CELLS:
        print(f"| {cell.name} | {run_cell(cell)} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
