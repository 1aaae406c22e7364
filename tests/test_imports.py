"""The import boundary: executors need numpy and ``repro.core`` only.

Spark's Python workers unpickle each round's row function, which imports
the ``repro.core`` modules it refers to.  Those modules must load neither
pandas nor PySpark, and ``repro.sparkpar`` loads PySpark only through the
session it is handed (DESIGN.md §3).  The root ``conftest.py`` imports
PySpark, so every check runs in a fresh interpreter.
"""
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from pyspark import cloudpickle

from repro.core.assignment import average_task_cost, build_task_contexts
from repro.sparkpar import task_parallel
from repro.workloads import gen_workload

_SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(code: str, stdin: bytes = b"") -> bytes:
    """Run ``code`` in a new interpreter with only ``src`` on its path;
    return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    out = subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                         capture_output=True, check=False, timeout=300)
    assert out.returncode == 0, out.stderr.decode()
    return out.stdout


def _loaded(imports: str, probes: list[str]) -> dict[str, bool]:
    code = (f"import json, sys\nimport {imports}\n"
            f"print(json.dumps({{p: p in sys.modules for p in {probes!r}}}))")
    return json.loads(_fresh_python(code))


def test_core_loads_neither_pandas_nor_pyspark():
    loaded = _loaded(
        "repro.core.multi_greedy, repro.core.tree_index, repro.core.assignment",
        ["pandas", "pyspark"],
    )
    assert loaded == {"pandas": False, "pyspark": False}


def test_spark_frameworks_load_no_pyspark():
    loaded = _loaded("repro.sparkpar.task_parallel, repro.sparkpar.group_parallel",
                     ["pyspark"])
    assert loaded == {"pyspark": False}


class _FirstRound(Exception):
    pass


def test_task_parallel_round_runs_on_a_worker_without_pandas(monkeypatch):
    """The first round's state rows and chain function, pickled as the
    stage pickles them, run in an interpreter that has imported only what
    a Spark Python worker preloads, and give the in-process chains."""
    captured = {}

    def first_round(spark, rows, row_fn, num_partitions=None):
        captured.update(rows=rows, row_fn=row_fn)
        raise _FirstRound  # returning no chains would relaunch the round forever

    monkeypatch.setattr(task_parallel, "run_stage", first_round)
    wl = gen_workload(n_tasks=8, n_workers=80, m=12, dist="gaussian", seed=1)
    b = 0.5 * average_task_cost(build_task_contexts(wl)) * wl.n_tasks
    with pytest.raises(_FirstRound):
        task_parallel.solve_msqm_task_parallel(None, wl, b, 3)
    rows, row_fn = captured["rows"], captured["row_fn"]
    want = [list(row_fn(r)) for r in rows]
    assert any(want)

    got = _fresh_python(
        "import pickle, sys\n"
        "import pyspark.worker\n"
        "rows, row_fn = pickle.loads(sys.stdin.buffer.read())\n"
        "out = [list(row_fn(r)) for r in rows]\n"
        "sys.stdout.buffer.write(pickle.dumps(('pandas' in sys.modules, out)))\n",
        stdin=cloudpickle.dumps((rows, row_fn)),
    )
    pandas_loaded, out = pickle.loads(got)
    assert not pandas_loaded
    assert out == want
