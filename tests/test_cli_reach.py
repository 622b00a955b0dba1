"""src/motion_lsmd holds what the CLI runs.

One in-process run of every subcommand, under cProfile, must reach every
function and method defined in the package's source, except the ones
listed in ``NOT_RUN`` with the reason each stays. The list is exact: a
listed function that starts to run must leave the list too.
"""

import cProfile
import importlib
import inspect
import pkgutil
import pstats

import numpy as np

import motion_lsmd
from motion_lsmd import cli, fileio
from motion_lsmd.ingest import write_pgm

PERFBENCH = "perfbench reads it"
TESTS = "only tests use it"

NOT_RUN = {
    "_kernels.cd_nn_lasso_gram": PERFBENCH,
    "_kernels.backend_name": PERFBENCH,
    "lsmd.nuclear_norm": PERFBENCH,
    "cli.entry": "it is the console-script entry",
    "lsmd.IndexTree.node": TESTS,
    "lsmd.IndexTree.leaves": TESTS,
    "lsmd.IndexTree.depth": TESTS,
    "lsmd.TreeNode.is_leaf": TESTS,
    "tracker.ParticleSet.__len__": TESTS,
    "tracker.TemplateSet.m": TESTS,
    "config.default_config": TESTS,
    "sparse.nn_lasso": TESTS,
    "sparse.objective_value": TESTS,
    "sparse.kkt_residual": TESTS,
    "lsmd._repair_empty_clusters": "it is an edge path: k-means leaves a cluster empty",
}


def defined_functions():
    """{"module.qualname": code key} of every function and method (a
    property's getter included) written in the package's source; methods
    that dataclasses generate have no source there and are left out."""
    out = {}
    for info in pkgutil.iter_modules(motion_lsmd.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"motion_lsmd.{info.name}")
        found = [obj for obj in vars(module).values() if getattr(obj, "__module__", None) == module.__name__]
        for cls in [obj for obj in found if inspect.isclass(obj)]:
            found += [a.fget if isinstance(a, property) else getattr(a, "__func__", a) for a in vars(cls).values()]
        for fn in found:
            if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                code = fn.__code__
                out[f"{info.name}.{fn.__qualname__}"] = (code.co_filename, code.co_firstlineno, code.co_name)
    return out


def run_every_subcommand(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("h = 48\nw = 48\nn_frames = 16\nevent = 5,9,burst\n", encoding="utf-8")
    clip = tmp_path / "clip"
    square = tmp_path / "square"
    square.mkdir()
    for t in range(4):
        img = np.zeros((64, 96))
        img[20:44, 8 + 2 * t : 32 + 2 * t] = 0.9
        write_pgm(square / f"{t:04d}.pgm", img)
    features = tmp_path / "features.csv"
    fileio.write_matrix_csv(features, np.random.default_rng(0).standard_normal((6, 12)))
    events = tmp_path / "events.csv"
    report = tmp_path / "report.csv"
    commands = [
        ["synth", "--spec", spec, "--seed", "3", "--out-dir", clip],
        ["detect", clip, "--out", tmp_path / "scores.csv", "--events", events,
         "--set", "detector.normalize=true", "--set", "detector.tau_on=0.5", "--verbose"],
        ["eval", "--events", events, "--truth", clip / "truth.csv", "--name", "a", "--append", report],
        ["eval", "--events", events, "--truth", clip / "truth.csv", "--name", "b", "--append", report],
        ["track", square, "--init", "20,32,0,1,1,0", "--out", tmp_path / "track.csv",
         "--set", "tracker.n_particles=20", "--set", "tracker.tau_update=0", "--set", "tracker.occ_gate=1"],
        ["decompose", features, "--out-prefix", tmp_path / "dec"],
        ["frobnicate"],
    ]
    profile = cProfile.Profile()
    codes = []
    for argv in commands:
        profile.enable()
        try:
            codes.append(cli.main([str(a) for a in argv]))
        finally:
            profile.disable()
    assert codes == [0, 0, 0, 0, 0, 0, 1]
    return set(pstats.Stats(profile).stats)


def test_every_function_runs_under_some_command_or_says_why_not(tmp_path):
    ran = run_every_subcommand(tmp_path)
    never = sorted(name for name, key in defined_functions().items() if key not in ran)
    assert never == sorted(NOT_RUN)
