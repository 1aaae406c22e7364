"""The one SparkSession builder: job entrypoints, the pytest ``spark``
fixture and the benchmark all call :func:`get_spark` (local[*] unless
``SPARK_MASTER`` says otherwise, Arrow on, broadcast joins disabled), so
job, test and benchmark runs exercise the same plans.
"""
import os

from pyspark.sql import SparkSession


def get_spark(app_name: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app_name)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
