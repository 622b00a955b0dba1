"""src/motion_lsmd holds what the CLI runs.

One in-process run of every subcommand, under cProfile, must reach every
function and method defined in the package's source, except the ones
listed in ``NOT_RUN`` with the reason each stays. The list is exact: a
listed function that starts to run must leave the list too. Every name
bound at a module's top level must also be read somewhere in the
package's source, or be listed in ``NOT_RUN``. Every exception class in
``errors`` must be ``InputError`` itself or be named by some ``except``
clause there: a subclass that no caller tells apart is one name too many.
"""

import ast
import cProfile
import importlib
import inspect
import pkgutil
import pstats
from pathlib import Path

import numpy as np

import motion_lsmd
from motion_lsmd import cli, errors, fileio
from motion_lsmd.ingest import write_pgm

PERFBENCH = "perfbench reads it"

NOT_RUN = {
    "_kernels.cd_nn_lasso_gram": PERFBENCH,
    "_kernels.backend_name": PERFBENCH,
    "lsmd.nuclear_norm": PERFBENCH,
    "cli.entry": "it is the console-script entry",
    "lsmd._repair_empty_clusters": "it is an edge path: k-means leaves a cluster empty",
}

SRC = Path(motion_lsmd.__file__).parent


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
         "--set", "detector.tau_off=0.35", "--set", "detector.tau_on=0.5", "--verbose"],
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


def module_level_names():
    """{"module.name": name} of every name a def, class or assignment
    binds at the top level of a module in the package's source; dunders
    are left out."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    out[f"{path.stem}.{name}"] = name
    return out


def names_read():
    """Every name the package's source loads, reads as an attribute, or
    imports."""
    read = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rsplit(".", 1)[-1])
    return read


def test_every_module_level_name_is_read_or_says_why_not():
    read = names_read()
    unread = sorted(key for key, name in module_level_names().items() if name not in read and key not in NOT_RUN)
    assert unread == []


def names_caught():
    """Every name an ``except`` clause in the package's source names."""
    caught = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for n in ast.walk(node.type):
                    if isinstance(n, ast.Name):
                        caught.add(n.id)
                    elif isinstance(n, ast.Attribute):
                        caught.add(n.attr)
    return caught


def test_every_error_class_is_input_error_or_caught_by_name():
    caught = names_caught()
    classes = [name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__]
    assert "InputError" in classes
    assert sorted(name for name in classes if name != "InputError" and name not in caught) == []
