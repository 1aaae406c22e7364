"""The benchmark's seed-0 plans must match its committed digests.

``perfbench/run.py`` marks a run incorrect when a seed-0 plan breaks
``plancheck.check_plan`` or its digest differs from
``perfbench/digests.json``.  This solves each workload once at seed 0 the
way a timed operation does, so a change to a solver's plans shows up here
and not first as a failed benchmark.  ``perfbench`` is not a package, so its
files are loaded by path.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", _DIR / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


cases, plancheck = _load("cases"), _load("plancheck")
DIGESTS = json.loads((_DIR / "digests.json").read_text())


@pytest.mark.parametrize("name", sorted(cases.CASES))
def test_seed0_plan_matches_committed_digest(name, request):
    case = cases.CASES[name]
    spark = request.getfixturevalue("spark") if case.uses_spark else None
    inst = cases.make_instance(case, 0)
    out = cases.solve(case, inst, spark)
    positions = plancheck.worker_positions(inst.wl.workers)
    errors = plancheck.check_plan(inst.wl.tasks, positions, out.plan,
                                  m=case.m, k=cases.K, budget=inst.budget)
    assert errors == []
    assert plancheck.plan_digest(out.plan) == DIGESTS[name]
