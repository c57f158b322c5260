"""Every function the perfbench traced run patches must exist in ``src``.

``perfbench/tracing.py`` wraps ``repro`` functions at the module attribute
their callers look them up by; a renamed function or a dropped import
makes ``Tracer.install`` fail. This checks each patch target without
running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


PATCHES = _load_patches()


@pytest.mark.parametrize(
    "module_name, attr",
    [(row[0], row[1]) for row in PATCHES],
    ids=[f"{row[0]}:{row[1]}" for row in PATCHES],
)
def test_patch_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        class_name, attr = attr.split(".")
        owner = getattr(owner, class_name)
        # install() reads the class's own __dict__, not an inherited one.
        assert attr in vars(owner), f"{module_name}.{class_name} defines no {attr}"
    assert callable(getattr(owner, attr, None)), f"{module_name} has no {attr}"
