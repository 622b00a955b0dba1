"""The names the benchmark's tracer wraps are still in the package.

perfbench/tracer.py replaces module globals by name, so a rename or a
removal in the package would first show up as an AttributeError in a
traced benchmark run. This test reads the tracer's table as it is.
"""

import importlib.util
from pathlib import Path

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
