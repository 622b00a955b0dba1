"""The names the benchmark's tracer wraps are still in the package, are
the stages that run, and return what its facts read.

perfbench/tracer.py replaces module globals by name, so a rename or a
removal in the package would first show up as an AttributeError in a
traced benchmark run. These tests read the tracer's table as it is.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from motion_lsmd import _kernels

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_callable_attribute():
    wrapped = load_tracer().WRAPPED
    assert wrapped
    missing = [
        f"{owner.__name__}.{name}"
        for owner, name, _fact in wrapped
        if not callable(getattr(owner, name, None))
    ]
    assert not missing, missing


def test_backend_name_runs():
    assert isinstance(_kernels.backend_name(), str)


def test_cd_nn_lasso_gram_gives_the_tracer_its_sweeps():
    # the tracer's fact reads the solver's step count r[2] against
    # max_iter a[5] as a cap hit
    fact = next(f for owner, name, f in load_tracer().WRAPPED
                if owner is _kernels and name == "cd_nn_lasso_gram")
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 12))
    t = rng.standard_normal(8)
    args = (X.T @ X, X.T @ t, float(t @ t), 0.01, 1e-8, 500)
    result = _kernels.cd_nn_lasso_gram(*args)
    assert isinstance(result, tuple) and len(result) == 3
    steps = result[2]
    assert type(steps) is int and 1 < steps < 500
    assert fact(args, result) == (steps, False)
    # one step cannot solve this problem, so a cap of 1 is hit
    args = args[:5] + (1,)
    result = _kernels.cd_nn_lasso_gram(*args)
    assert type(result[2]) is int
    assert fact(args, result) == (1, True)


def square_frames(directory, n_frames):
    """A 24-px square moving 2 px per frame across 64x160 frames."""
    from motion_lsmd.ingest import write_pgm

    directory.mkdir()
    for t in range(n_frames):
        img = np.zeros((64, 160))
        img[20:44, 8 + 2 * t : 32 + 2 * t] = 0.9
        write_pgm(directory / f"{t:04d}.pgm", img)
    return directory


def test_the_wrapped_tracker_stages_run_once_per_frame(tmp_path, monkeypatch):
    # the tracer counts a stage only when the tracker calls it through the
    # module global it wraps
    from motion_lsmd import cli, tracker

    calls = Counter()

    def counting(name, stage):
        def counted(*args):
            calls[name] += 1
            return stage(*args)

        return counted

    for owner, name in ((tracker, "discriminative_confidence"), (tracker, "generative_confidence"),
                        (_kernels, "block_residuals")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    frames = square_frames(tmp_path / "frames", 4)
    rc = cli.main(["track", str(frames), "--init", "20,32,0,1,1,0", "--out", str(tmp_path / "t.csv"),
                   "--set", "tracker.n_particles=50"])
    assert rc == 0
    assert calls == {"discriminative_confidence": 3, "generative_confidence": 3, "block_residuals": 3}


def test_the_map_patch_is_warped_only_for_an_update(tmp_path, monkeypatch):
    # the tracer counts tracker.warp_patch calls: the template and its four
    # ring negatives come from frame 0, and a later frame's MAP patch is
    # warped only when the update gates are open
    from motion_lsmd import cli, tracker

    frames = square_frames(tmp_path / "frames", 4)
    warp, update = tracker.warp_patch, tracker.update_templates
    for gates, overrides in (("shut", ["tracker.tau_update=1", "tracker.occ_gate=0"]),
                             ("open", ["tracker.tau_update=0", "tracker.occ_gate=1"])):
        warped, taken, order = Counter(), [], {}

        def counted_warp(frame, *args):
            # an array carries no frame number: key frames by first appearance,
            # and hold each so that a later streamed frame cannot reuse its id
            warped[order.setdefault(id(frame), (len(order), frame))[0]] += 1
            return warp(frame, *args)

        def counted_update(templates, *args):
            out = update(templates, *args)
            taken.append(out is not templates)
            return out

        monkeypatch.setattr(tracker, "warp_patch", counted_warp)
        monkeypatch.setattr(tracker, "update_templates", counted_update)
        rc = cli.main(["track", str(frames), "--init", "20,32,0,1,1,0", "--out", str(tmp_path / "t.csv"),
                       "--set", "tracker.n_particles=50", *[a for kv in overrides for a in ("--set", kv)]])
        assert rc == 0
        assert taken == [gates == "open"] * 3, gates
        # an update warps the MAP patch and four new ring negatives
        assert warped == ({0: 5, 1: 5, 2: 5, 3: 5} if gates == "open" else {0: 5}), gates


def test_the_wrapped_detection_stages_run_once_per_clip_and_moving_frame(monkeypatch):
    # the tracer counts the index tree and the solver only when
    # run_detection calls them through the detector's module globals: one
    # tree per clip with motion, one solve per frame pair with motion
    from motion_lsmd import detector

    calls = Counter()

    def counting(name, stage):
        def counted(*args, **kwargs):
            calls[name] += 1
            return stage(*args, **kwargs)

        return counted

    for name in ("build_index_tree", "decompose"):
        monkeypatch.setattr(detector, name, counting(name, getattr(detector, name)))
    frames = list(detector.synth_sequence(
        detector.SynthSpec(n_frames=30, events=[(5, 12, "burst"), (18, 25, "swap")]), seed=2)[0])
    moving = sum(not np.array_equal(a, b) for a, b in zip(frames, frames[1:]))
    assert 0 < moving < len(frames) - 1
    detector.run_detection(frames)
    assert calls == {"build_index_tree": 1, "decompose": moving}

    calls.clear()
    still = [frames[0]] * 10
    scores, events = detector.run_detection(still)
    assert not calls and events == [] and all(sc.lsmd_energy == 0.0 for sc in scores)
