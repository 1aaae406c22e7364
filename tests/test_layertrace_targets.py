"""The benchmark's trace points must name attributes the program has.

``perfbench/layertrace.py`` wraps program functions by module and attribute
name; a renamed function makes every traced benchmark operation fail while
the solver tests stay green.  This loads the file by path (``perfbench`` is
not a package) and resolves each target the way its ``installed`` does.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_layertrace", _PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t[0]}:{t[1]}")
def test_target_resolves(target):
    mod_name, path, _, _ = target
    owner = importlib.import_module(mod_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{mod_name}.{path} is gone"
