"""The paper's two parallel frameworks (Sec IV-A) on Spark, and the one
Spark stage both run (DESIGN.md §3)."""
from __future__ import annotations

from collections.abc import Callable, Iterable

import pandas as pd
from pyspark.sql import SparkSession


def run_stage(
    spark: SparkSession,
    state: pd.DataFrame,
    state_schema: str,
    row_fn: Callable[[tuple], Iterable[tuple]],
    out_schema: str,
    num_partitions: int | None = None,
) -> pd.DataFrame:
    """``row_fn`` over every state row on the executors, collected: one Spark
    job of one stage, since the state frame is never shuffled.

    ``row_fn`` takes a state row (a named tuple of ``state_schema``'s
    columns) and returns rows in the field order of ``out_schema``, a DDL
    string of ``name type`` fields.  ``num_partitions`` only merges the
    state frame's partitions (``coalesce``), so it never exceeds the rows or
    the cores.
    """
    columns = [field.split()[0] for field in out_schema.split(",")]

    def stage(batches):
        for pdf in batches:
            yield pd.DataFrame(
                [out for row in pdf.itertuples(index=False) for out in row_fn(row)],
                columns=columns,
            )

    sdf = spark.createDataFrame(state, state_schema)
    if num_partitions:
        sdf = sdf.coalesce(num_partitions)
    return sdf.mapInPandas(stage, out_schema).toPandas()
