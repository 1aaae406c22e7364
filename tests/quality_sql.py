"""The TCSC quality metric as a Spark SQL query (Catalyst-executed): a test
oracle for the numpy metric the solvers score with.

The metric over a ``subtasks(task_id, slot, executed)`` relation is one SQL
query: join unexecuted slots to executed ones, window-rank by temporal
distance, aggregate the top-k distances (padding missing neighbours with m,
footnote 2), then fold the entropy sum.  The *same SQL text* runs on DuckDB,
so ``tests.oracle.assert_equivalent`` can diff the Spark result row-by-row
against an independent engine — and ``tests/test_quality_sql.py``
cross-checks both against the numpy reference (:mod:`repro.core.quality`).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def quality_sql(k: int, m: int, table: str = "subtasks") -> str:
    """SQL text computing per-task quality; valid in Spark SQL and DuckDB."""
    return f"""
WITH ex AS (
    SELECT task_id, slot FROM {table} WHERE executed
),
nn AS (
    SELECT s.task_id, s.slot, ABS(s.slot - e.slot) AS d,
           ROW_NUMBER() OVER (
               PARTITION BY s.task_id, s.slot
               ORDER BY ABS(s.slot - e.slot), e.slot
           ) AS rn
    FROM {table} s
    JOIN ex e ON s.task_id = e.task_id
    WHERE NOT s.executed
),
interp AS (
    SELECT task_id, slot, SUM(d) AS dsum, COUNT(*) AS cnt
    FROM nn WHERE rn <= {k}
    GROUP BY task_id, slot
),
probs AS (
    SELECT s.task_id,
           CASE
               -- CAST: Spark types the literal 1.0 as DECIMAL (6-digit
               -- division), DuckDB as DOUBLE; force DOUBLE in both.
               WHEN s.executed THEN CAST(1.0 AS DOUBLE) / {m}
               WHEN i.task_id IS NULL THEN 0.0
               ELSE (1.0 - (i.dsum + ({k} - i.cnt) * {m})
                           / CAST({k} * {m} AS DOUBLE)) / {m}
           END AS pv
    FROM {table} s
    LEFT JOIN interp i ON s.task_id = i.task_id AND s.slot = i.slot
)
SELECT task_id,
       SUM(CASE WHEN pv > 0 THEN -pv * LOG2(pv) ELSE 0.0 END) AS quality
FROM probs
GROUP BY task_id
"""


def subtasks_pdf(exec_sets: dict[int, set[int]], m: int) -> pd.DataFrame:
    """Dense ``(task_id, slot, executed)`` relation from per-task slot sets."""
    rows = []
    for tid, ex in exec_sets.items():
        executed = np.zeros(m, dtype=bool)
        if ex:
            executed[np.asarray(sorted(ex), dtype=np.int64)] = True
        rows.append(
            pd.DataFrame(
                {
                    "task_id": np.full(m, tid, dtype=np.int64),
                    "slot": np.arange(m, dtype=np.int64),
                    "executed": executed,
                }
            )
        )
    return pd.concat(rows, ignore_index=True)


def task_quality_df(
    spark: SparkSession, subtasks: DataFrame, k: int, m: int
) -> DataFrame:
    """Per-task quality, computed by Catalyst over the subtasks relation."""
    subtasks.createOrReplaceTempView("subtasks")
    return spark.sql(quality_sql(k, m))
