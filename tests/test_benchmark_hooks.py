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
    # the tracer's fact reads the sweep count r[2] against max_iter a[5]
    fact = next(f for owner, name, f in load_tracer().WRAPPED
                if owner is _kernels and name == "cd_nn_lasso_gram")
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 12))
    t = rng.standard_normal(8)
    for max_iter in (3, 500):
        args = (X.T @ X, X.T @ t, float(t @ t), 0.01, 1e-300, max_iter)
        result = _kernels.cd_nn_lasso_gram(*args)
        assert isinstance(result, tuple) and len(result) == 3
        sweeps = result[2]
        assert type(sweeps) is int and 1 <= sweeps <= max_iter
        # a tolerance of 1e-300 is never met, so the problem is capped
        assert sweeps == max_iter
        assert fact(args, result) == (max_iter, True)


def test_the_wrapped_tracker_stages_run_once_per_frame(tmp_path, monkeypatch):
    # the tracer counts a stage only when the tracker calls it through the
    # module global it wraps
    from motion_lsmd import cli, tracker
    from motion_lsmd.ingest import write_pgm

    calls = Counter()

    def counting(name, stage):
        def counted(*args):
            calls[name] += 1
            return stage(*args)

        return counted

    for owner, name in ((tracker, "discriminative_confidence"), (tracker, "generative_confidence"),
                        (_kernels, "block_residuals")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    frames = tmp_path / "frames"
    frames.mkdir()
    for t in range(4):
        img = np.zeros((64, 160))
        img[20:44, 8 + 2 * t : 32 + 2 * t] = 0.9
        write_pgm(frames / f"{t:04d}.pgm", img)
    rc = cli.main(["track", str(frames), "--init", "20,32,0,1,1,0", "--out", str(tmp_path / "t.csv"),
                   "--set", "tracker.n_particles=50"])
    assert rc == 0
    assert calls == {"discriminative_confidence": 3, "generative_confidence": 3, "block_residuals": 3}
