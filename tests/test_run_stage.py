"""The contract of :func:`repro.sparkpar.run_stage`, the one Spark stage of
both parallel frameworks: it returns what a local flat map returns, every
float keeps its bits, and each call is one job of one stage with one task per
partition and never more partitions than rows, cores or ``num_partitions``.
"""
import math
import sys

import pytest

from repro.sparkpar import run_stage
from tests.test_task_parallel import _stages_of

#: Values whose bits a lossy transport would change: infinities, signed
#: zero, subnormals and the extremes of the normal range.
_FLOATS = [math.inf, -math.inf, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
           sys.float_info.max, 0.1 + 0.2, 1 / 3]


def _rows(n):
    # Row i carries i floats, so the first row emits nothing.
    return [(i, [_FLOATS[(i + j) % len(_FLOATS)] for j in range(i)])
            for i in range(n)]


def _bits(out):
    return sorted((i, j, x.hex()) for i, j, x in out)


@pytest.mark.parametrize("num_partitions", [None, 1, 2, 16])
@pytest.mark.parametrize("n_rows", [0, 1, 3, 9])
def test_run_stage_is_one_stage_flat_map(spark, n_rows, num_partitions):
    rows = _rows(n_rows)

    def emit(row):  # nested, so Spark pickles it by value
        i, xs = row
        return [(i, j, x) for j, x in enumerate(xs)]

    out, stages = _stages_of(
        spark, f"test_run_stage_{n_rows}_{num_partitions}",
        lambda: run_stage(spark, rows, emit, num_partitions),
    )
    want = [o for r in rows for o in emit(r)]
    assert all(type(x) is float for *_, x in out)
    assert _bits(out) == _bits(want)
    cores = spark.sparkContext.defaultParallelism
    if not rows:
        assert stages == []
        return
    assert len(stages) == 1
    assert stages[0].numTasks == min(n_rows, cores, num_partitions or cores)
    assert stages[0].numFailedTasks == 0
