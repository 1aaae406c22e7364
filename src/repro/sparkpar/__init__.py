"""The paper's two parallel frameworks (Sec IV-A) on Spark, and the one
Spark stage both run (DESIGN.md §3)."""
from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from pyspark.sql import SparkSession


def run_stage(
    spark: SparkSession,
    rows: list[tuple],
    row_fn: Callable[[tuple], Iterable[tuple]],
    num_partitions: int | None = None,
) -> list[tuple]:
    """``row_fn`` over every row on the executors, collected: one RDD job of
    one stage, since nothing is shuffled.

    Rows and outputs are pickled, so every value keeps its bits.  The job
    has one task per partition, and never more partitions than rows, cores
    or ``num_partitions``; no rows means no job.
    """
    if not rows:
        return []
    sc = spark.sparkContext
    cores = sc.defaultParallelism
    n = min(len(rows), cores, num_partitions or cores)
    return sc.parallelize(rows, n).flatMap(row_fn).collect()
