"""The jobs/ entrypoints import cleanly and expose a main()."""
import importlib.util
import pathlib

import pytest

JOBS = ["fig6_single_quality", "fig8_single_efficiency", "fig11_stcc"]


def _load(name: str):
    p = pathlib.Path(__file__).resolve().parents[1] / "jobs" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, p)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", JOBS)
def test_job_module_has_main(name):
    mod = _load(name)
    assert callable(mod.main)


def test_fig9_job_imports():
    # fig9 prepends jobs/ to sys.path for its session helper.
    mod = _load("fig9_multi")
    assert callable(mod.main)


def test_run_all_job_imports():
    # So does run_all, the job that writes results/.
    mod = _load("run_all")
    assert callable(mod.main)


def test_session_helper_builds_conf():
    mod = _load("_session")
    assert callable(mod.get_spark)
