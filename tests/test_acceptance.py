"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime. Run with `pytest tests/test_acceptance.py -v -s`."""

import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from motion_lsmd import fileio, tracker
from motion_lsmd.detector import (
    DetectorConfig,
    ReportRow,
    SynthSpec,
    aggregate_report,
    match_events,
    run_detection,
    synth_sequence,
)
from motion_lsmd.lsmd import (
    LsmdParams,
    build_index_tree,
    decompose,
    prox_nuclear,
    prox_tree_norm,
    tree_norm,
)
from motion_lsmd.ingest import Frame, FrameSequence
from motion_lsmd.tracker import AffineState, MotionModelParams, TrackerConfig, track_sequence

from oracles import (
    active_set_nn_lasso,
    nn_lasso,
    nuclear_objective,
    prox_nuclear_oracle,
    prox_tree_oracle,
)
from report_fixture import ROWS
from test_lsmd import check_tree_invariants


@contextmanager
def criterion(name, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] {name} ({time.perf_counter() - t0:.2f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    suffix = f" / budget {budget_s:.0f}s" if budget_s else ""
    print(f"[PASS] {name} ({elapsed:.2f}s{suffix})", flush=True)
    if budget_s is not None:
        assert elapsed < budget_s, f"{name}: {elapsed:.2f}s exceeds {budget_s}s budget"


def test_criterion_1_report_reproduction(tmp_path):
    with criterion("criterion 1: report schema reproduction", budget_s=1.0):
        report = aggregate_report([ReportRow(*r) for r in ROWS])
        assert report.totals.num_events == 47
        assert report.totals.correct_detections == 32
        assert abs(report.accuracy - 0.6809) <= 1e-4
        out = tmp_path / "report.csv"
        fileio.write_report_csv(out, report)
        golden = Path(__file__).parent / "data" / "report_golden.csv"
        assert out.read_bytes() == golden.read_bytes()


def test_criterion_2_nn_lasso_oracle_suite():
    with criterion("criterion 2: nn_lasso oracle suite", budget_s=10.0):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((4, 6))
            t = rng.standard_normal(4)
            code = nn_lasso(X, t, lambda1=0.1)
            _g, best = active_set_nn_lasso(X, t, 0.1)
            assert abs(code.objective - best) <= 1e-5 * max(1.0, abs(best))
        # overcomplete 8x12 instances at lambda 0.5; test_sparse holds the
        # same instances to a KKT residual of 1e-9 at lambda 0.1 and 0.01
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            X = rng.standard_normal((8, 12))
            t = rng.standard_normal(8)
            code = nn_lasso(X, t, lambda1=0.5, tol=1e-8, max_iter=500)
            assert code.kkt_residual <= 1e-6


def test_criterion_3_prox_oracle_suite():
    with criterion("criterion 3: prox oracle suite", budget_s=30.0):
        rng = np.random.default_rng(42)
        # nuclear norm prox: 1e-5 objective gap against the numeric oracle
        for _ in range(20):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            V = rng.standard_normal((m, n))
            tau = float(rng.uniform(0.2, 1.5))
            got, _sv = prox_nuclear(V, tau)
            want = prox_nuclear_oracle(V, tau)
            gap = abs(nuclear_objective(got, V, tau) - nuclear_objective(want, V, tau))
            assert gap <= 1e-5

        # tree-structured prox: 1e-6 point distance against the numeric oracle
        for seed in range(20):
            n = int(rng.integers(4, 8))
            tree = build_index_tree(rng.random((n, 2)) * 10, k=3, seed=seed)
            S = rng.standard_normal((3, n))
            tau = float(rng.uniform(0.2, 1.0))
            lam = float(rng.choice([0.0, 0.3]))
            got = prox_tree_norm(S, tree, tau, lam)
            want = prox_tree_oracle(S, tree, tau, lam)
            assert np.abs(got - want).max() <= 1e-6

        # non-expansiveness on 100 random pairs each
        tree = build_index_tree(rng.random((6, 2)) * 10, k=4, seed=0)
        for _ in range(100):
            A, B = rng.standard_normal((3, 6)), rng.standard_normal((3, 6))
            assert np.linalg.norm(prox_nuclear(A, 0.8)[0] - prox_nuclear(B, 0.8)[0]) <= np.linalg.norm(A - B) + 1e-12
            pa = prox_tree_norm(A, tree, 0.5, 0.1)
            pb = prox_tree_norm(B, tree, 0.5, 0.1)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(A - B) + 1e-12


def test_criterion_4_lsmd_recovery():
    with criterion("criterion 4: LSMD recovery", budget_s=30.0):
        rng = np.random.default_rng(16)
        d, n = 64, 100
        tree = build_index_tree(rng.random((n, 2)) * 10, k=4, seed=16)
        leaves = [nd for nd in tree.nodes if not nd.children and len(nd.members) >= 2]
        cols = np.concatenate([nd.members for nd in leaves[:5]])
        L0 = 2.0 * rng.standard_normal((d, 2)) @ rng.standard_normal((2, n))
        S0 = np.zeros((d, n))
        S0[:, cols] = rng.choice([-1.0, 1.0], size=(d, len(cols)))
        dec = decompose(L0 + S0, tree, LsmdParams())

        assert np.linalg.norm(dec.L - L0) / np.linalg.norm(L0) <= 0.05
        est = np.abs(dec.S) > 1e-6
        true = np.abs(S0) > 0
        tp = np.sum(est & true)
        f1 = 2 * tp / max(2 * tp + np.sum(est & ~true) + np.sum(~est & true), 1)
        assert f1 >= 0.9
        trace = np.array(dec.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9 * np.maximum(1.0, np.abs(trace[:-1])))


def test_criterion_5_index_tree_invariants():
    with criterion("criterion 5: index-tree invariants"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = 1 + seed % 53
            pts = rng.random((n, 3)) * 10
            tree = build_index_tree(pts, k=4, seed=seed)
            check_tree_invariants(tree, n)
            assert all(len(nd.children) <= 4 for nd in tree.nodes)
            # stop rule: internal nodes had >= k members and >= 2 distinct points
            for nd in tree.nodes:
                if nd.children:
                    assert len(nd.members) >= 4
            # determinism
            again = build_index_tree(pts, k=4, seed=seed)
            assert len(again.nodes) == len(tree.nodes)
            for a, b in zip(tree.nodes, again.nodes):
                assert a.parent == b.parent and np.array_equal(a.members, b.members)


def test_criterion_6_tracker_synthetic_accuracy(monkeypatch):
    # every frame's codes are solved, none stopped at its step cap
    cap_hits = []
    score = tracker.score_particles

    def counting(frame, states, templates, cfg):
        scores = score(frame, states, templates, cfg)
        cap_hits.append(int((scores.holistic_steps >= tracker._HOLISTIC_MAX_ITER).sum()
                            + (scores.block_steps >= tracker._LOCAL_MAX_ITER).sum()))
        return scores

    monkeypatch.setattr(tracker, "score_particles", counting)
    with criterion("criterion 6: tracker synthetic accuracy", budget_s=60.0):
        h, w, size, speed = 64, 160, 24, 2.0
        cy, cx = 32.0, 20.0
        frames, centers = [], []
        for t in range(50):
            img = np.zeros((h, w))
            r0, c0 = int(round(cy - size / 2)), int(round(cx - size / 2))
            img[r0 : r0 + size, c0 : c0 + size] = 0.9
            frames.append(Frame(img, t))
            centers.append((cy, cx))
            cx += speed
        seq = FrameSequence(frames, "square")
        init = AffineState(l_x=centers[0][1], l_y=centers[0][0])

        results = track_sequence(seq, init, TrackerConfig(n_particles=300, seed=7))
        errs = [
            np.hypot(r.state.l_x - centers[r.frame_index][1], r.state.l_y - centers[r.frame_index][0])
            for r in results
        ]
        assert np.mean(errs) <= 3.0
        assert cap_hits == [0] * 49

        # degenerate sigma=0 case: state exactly constant
        static = FrameSequence([Frame(frames[0].pixels.copy(), i) for i in range(5)], "static")
        cfg0 = TrackerConfig(n_particles=5, motion=MotionModelParams(np.zeros(6)), seed=1)
        for r in track_sequence(static, init, cfg0):
            assert r.state == init


def _event_spec(seed):
    rng = np.random.default_rng(1000 + seed)
    n_events = 1 + seed % 3
    events, cursor = [], 8
    for i in range(n_events):
        start = cursor + int(rng.integers(6, 14))
        end = min(start + int(rng.integers(10, 16)), 97)
        if end - start < 8:
            break
        events.append((start, end, "burst" if (seed + i) % 2 == 0 else "swap"))
        cursor = end
    return SynthSpec(64, 64, 100, events)


def test_criterion_7_end_to_end_detection():
    with criterion("criterion 7: end-to-end detection", budget_s=600.0):
        cfg = DetectorConfig()
        total_truth = total_detected = total_correct = 0
        for seed in range(20):
            seq, truth = synth_sequence(_event_spec(seed), seed=seed)
            _scores, events = run_detection(seq, cfg)
            total_truth += len(truth)
            total_detected += len(events)
            total_correct += match_events(events, truth)
        recall = total_correct / total_truth
        precision = total_correct / max(total_detected, 1)
        print(f"  recall {recall:.3f} precision {precision:.3f} "
              f"({total_correct}/{total_truth} truth, {total_detected} detected)", flush=True)
        assert recall >= 0.8
        assert precision >= 0.8


def test_criterion_8_pipeline_determinism(tmp_path):
    with criterion("criterion 8: byte-level determinism"):
        spec = tmp_path / "spec.cfg"
        spec.write_text("h = 64\nw = 64\nn_frames = 40\nevent = 12,26,burst\n", encoding="utf-8")

        def full_run(tag):
            base = tmp_path / tag
            frames = base / "frames"
            cmds = [
                ["synth", "--spec", spec, "--seed", "9", "--out-dir", frames],
                ["detect", frames, "--out", base / "scores.csv", "--events", base / "events.csv"],
                ["eval", "--events", base / "events.csv", "--truth", frames / "truth.csv",
                 "--name", "clip", "--frames", "40", "--append", base / "report.csv"],
            ]
            for cmd in cmds:
                res = subprocess.run(
                    [sys.executable, "-m", "motion_lsmd", *[str(a) for a in cmd]],
                    capture_output=True, text=True,
                )
                assert res.returncode == 0, res.stderr
            return {
                name: (base / name).read_bytes()
                for name in ("scores.csv", "events.csv", "report.csv")
            }

        serial_a = full_run("serial_a")
        serial_b = full_run("serial_b")
        assert serial_a == serial_b
