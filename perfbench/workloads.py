"""The benchmark's three workloads.

Each workload writes its inputs with the program's own writers (`synth`,
`write_pgm`, `write_matrix_csv`), turns one input into the argv of one
`motion_lsmd.cli.main` call, and checks that call's outputs with parsing
of its own. Inputs depend only on the workload seed.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from motion_lsmd import cli, fileio
from motion_lsmd.detector import EventInterval, match_events
from motion_lsmd.ingest import write_pgm


@dataclass
class Input:
    """One op's input: where it lives, how many items one op processes,
    and what the check needs to know about it. A probe input is run once
    per run, outside the timed ops; its quality is reported, not gated."""

    path: Path
    items: int
    truth: object
    probe: bool = False


@dataclass
class Check:
    ok: bool
    reason: str = ""
    quality: dict = field(default_factory=dict)


def sha256_files(paths: list[Path]) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _seed_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


class Workload:
    """Defaults shared by the workloads below."""

    def make_probe(self, root: Path) -> Input | None:
        """An extra input that shows a known defect; most workloads have none."""
        return None


class DetectClips(Workload):
    """`detect` on 64x64, 100-frame synthetic clips with 1-3 burst/swap
    events: the index tree dominates and the tracker is idle."""

    name = "detect-clips"
    rate = "frames_per_s"
    threaded = True  # run_detection's default thread pool
    pool = 3  # clip seeds seed*3 + (0, 1, 2) carry 1, 2 and 3 events: the same mix every run
    n_frames = 100

    @staticmethod
    def event_spec(clip_seed: int) -> list[tuple[int, int, str]]:
        # the acceptance suite's criterion-7 rule
        rng = np.random.default_rng(1000 + clip_seed)
        events, cursor = [], 8
        for i in range(1 + clip_seed % 3):
            start = cursor + int(rng.integers(6, 14))
            end = min(start + int(rng.integers(10, 16)), 97)
            if end - start < 8:
                break
            events.append((start, end, "burst" if (clip_seed + i) % 2 == 0 else "swap"))
            cursor = end
        return events

    def make_inputs(self, root: Path, seed: int) -> list[Input]:
        inputs = []
        for i in range(self.pool):
            clip_seed = seed * self.pool + i
            events = self.event_spec(clip_seed)
            clip = root / f"clip{i}"
            spec = root / f"clip{i}.spec"
            lines = ["h = 64", "w = 64", f"n_frames = {self.n_frames}"]
            lines += [f"event = {s},{e},{k}" for s, e, k in events]
            spec.write_text("\n".join(lines) + "\n", encoding="utf-8")
            rc = cli.main(["synth", "--spec", str(spec), "--seed", str(clip_seed), "--out-dir", str(clip)])
            if rc != 0:
                raise RuntimeError(f"synth exited {rc} for clip seed {clip_seed}")
            truth = [EventInterval(s, e) for s, e, _k in events]
            inputs.append(Input(clip, self.n_frames - 1, truth))
        return inputs

    def argv(self, inp: Input, out: Path) -> list[str]:
        return ["detect", str(inp.path), "--out", str(out / "scores.csv"),
                "--events", str(out / "events.csv")]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "scores.csv", out / "events.csv"]

    def check(self, inp: Input, out: Path) -> Check:
        scores = _rows(out / "scores.csv")
        if scores[0] != ["frame", "lsmd_energy", "tracker_conf", "combined"]:
            return Check(False, "bad scores header")
        if [int(r[0]) for r in scores[1:]] != list(range(1, self.n_frames)):
            return Check(False, "scores do not cover frames 1..T-1")
        events = _rows(out / "events.csv")
        if events[0] != ["start", "end", "peak"]:
            return Check(False, "bad events header")
        detected = [EventInterval(int(r[0]), int(r[1]), float(r[2])) for r in events[1:]]
        correct = match_events(detected, inp.truth)
        return Check(True, quality={"truth": len(inp.truth), "detected": len(detected), "correct": correct})

    def run_quality(self, qualities: list[dict]) -> tuple[bool, dict]:
        """Criterion 7's bar, over the whole run: recall and precision >= 0.8."""
        truth = sum(q["truth"] for q in qualities)
        detected = sum(q["detected"] for q in qualities)
        correct = sum(q["correct"] for q in qualities)
        recall = correct / max(truth, 1)
        precision = correct / max(detected, 1)
        quality = {"recall": (recall, "ratio"), "precision": (precision, "ratio")}
        return recall >= 0.8 and precision >= 0.8, quality


class DecomposePlanted(Workload):
    """`decompose` on 256x225 matrices (the feature matrix of a 128x128
    frame): rank-3 low-rank part plus 40 sparse columns of +-0.5. One tree
    and ~130 LSMD iterations per op, with real CSV I/O.

    The low-rank part varies smoothly with the column (proposal) position,
    as a static background does across a frame. With an i.i.d. Gaussian
    right factor instead, about 6% of instances stop after 2 iterations:
    the first sparse step shrinks S to 0, which is a fixed point of the
    alternating scheme, and ||L - L0|| / ||L0|| ends at 0.052-0.055. The
    probe op keeps that defect in view: one such i.i.d. draw, run once per
    run, with its l_rel_err reported and not held to the 0.05 bar."""

    name = "decompose-planted"
    rate = "matrices_per_s"
    threaded = False
    pool = 8
    shape = (256, 225)
    sparse_cols = 40
    probe_key = [4, 5]  # an i.i.d. draw on which decompose stalls

    def _sparse(self, rng: np.random.Generator) -> np.ndarray:
        d, n = self.shape
        S0 = np.zeros((d, n))
        cols = rng.choice(n, self.sparse_cols, replace=False)
        S0[:, cols] = rng.choice([-0.5, 0.5], size=(d, self.sparse_cols))
        return S0

    def make_inputs(self, root: Path, seed: int) -> list[Input]:
        inputs = []
        d, n = self.shape
        theta = 2.0 * np.pi * np.arange(n) / n
        smooth = np.stack([np.ones(n), np.sqrt(2.0) * np.cos(theta), np.sqrt(2.0) * np.sin(theta)])
        for i in range(self.pool):
            rng = _seed_rng(seed, i)
            L0 = 2.0 * rng.standard_normal((d, 3)) @ rng.standard_normal((3, 3)) @ smooth
            path = root / f"features{i}.csv"
            fileio.write_matrix_csv(path, L0 + self._sparse(rng))
            inputs.append(Input(path, 1, L0))
        return inputs

    def make_probe(self, root: Path) -> Input:
        """A stalling instance: 2.0 x an i.i.d. Gaussian rank-3 product."""
        rng = np.random.default_rng(self.probe_key)
        d, n = self.shape
        L0 = 2.0 * rng.standard_normal((d, 3)) @ rng.standard_normal((3, n))
        path = root / "probe.csv"
        fileio.write_matrix_csv(path, L0 + self._sparse(rng))
        return Input(path, 1, L0, probe=True)

    def probe_quality(self, quality: dict) -> dict:
        return {"probe_l_rel_err": (quality["l_rel_err"], "ratio"),
                "probe_iterations": (quality["iterations"], "count"),
                "probe_stalled": (int(quality["l_rel_err"] > 0.05), "count")}

    def argv(self, inp: Input, out: Path) -> list[str]:
        return ["decompose", str(inp.path), "--out-prefix", str(out / "dec")]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "dec_L.csv", out / "dec_S.csv", out / "dec_obj.csv"]

    def check(self, inp: Input, out: Path) -> Check:
        """Criterion 4's bar: ||L - L0|| / ||L0|| <= 0.05, and a
        non-increasing objective trace."""
        rows = _rows(out / "dec_L.csv")
        if rows[0] != ["rows", "cols"] or [int(v) for v in rows[1]] != list(self.shape):
            return Check(False, "bad L header")
        L = np.array(rows[2:], dtype=np.float64)
        L0 = inp.truth
        err = float(np.linalg.norm(L - L0) / np.linalg.norm(L0))
        trace = np.array([float(r[1]) for r in _rows(out / "dec_obj.csv")[1:]])
        monotone = bool(np.all(np.diff(trace) <= 1e-9 * np.maximum(1.0, np.abs(trace[:-1]))))
        quality = {"l_rel_err": err, "iterations": len(trace) - 1}
        if not monotone:
            return Check(False, "objective trace increases", quality)
        if err > 0.05 and not inp.probe:
            return Check(False, f"l_rel_err {err:.4f} > 0.05", quality)
        return Check(True, quality=quality)

    def run_quality(self, qualities: list[dict]) -> tuple[bool, dict]:
        return True, {"l_rel_err": (float(np.mean([q["l_rel_err"] for q in qualities])), "ratio")}


class TrackSquare(Workload):
    """`track` of criterion 6's translating 24-px square on 64x160 frames,
    300 particles: the tracker's block coding dominates and every
    detection layer is idle."""

    name = "track-square"
    rate = "frames_per_s"
    threaded = False
    pool = 3
    n_frames = 4  # 3 tracked frames per op
    h, w, size, speed = 64, 160, 24, 2

    def make_inputs(self, root: Path, seed: int) -> list[Input]:
        inputs = []
        for i in range(self.pool):
            rng = _seed_rng(seed, i)
            cy = int(rng.integers(20, 45))
            cx0 = int(rng.integers(20, 121))
            seq = root / f"square{i}"
            seq.mkdir()
            centers = []
            for t in range(self.n_frames):
                cx = cx0 + self.speed * t
                img = np.zeros((self.h, self.w))
                img[cy - self.size // 2 : cy + self.size // 2, cx - self.size // 2 : cx + self.size // 2] = 0.9
                write_pgm(seq / f"{t:04d}.pgm", img)
                centers.append((cx, cy))
            inputs.append(Input(seq, self.n_frames - 1, centers))
        return inputs

    def argv(self, inp: Input, out: Path) -> list[str]:
        cx, cy = inp.truth[0]
        return ["track", str(inp.path), "--init", f"{cx},{cy},0,1,1,0", "--out", str(out / "track.csv"),
                "--set", "tracker.n_particles=300", "--set", "pipeline.seed=7"]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "track.csv"]

    def check(self, inp: Input, out: Path) -> Check:
        """Criterion 6's bar: mean centre error <= 3 px."""
        rows = _rows(out / "track.csv")
        if rows[0][:3] != ["frame", "l_x", "l_y"]:
            return Check(False, "bad track header")
        if [int(r[0]) for r in rows[1:]] != list(range(1, self.n_frames)):
            return Check(False, "track does not cover frames 1..T-1")
        errs = []
        for r in rows[1:]:
            cx, cy = inp.truth[int(r[0])]
            errs.append(np.hypot(float(r[1]) - cx, float(r[2]) - cy))
        err = float(np.mean(errs))
        if err > 3.0:
            return Check(False, f"center_err_px {err:.3f} > 3", {"center_err_px": err})
        return Check(True, quality={"center_err_px": err})

    def run_quality(self, qualities: list[dict]) -> tuple[bool, dict]:
        return True, {"center_err_px": (float(np.mean([q["center_err_px"] for q in qualities])), "px")}


WORKLOADS = {w.name: w for w in (DetectClips(), DecomposePlanted(), TrackSquare())}
