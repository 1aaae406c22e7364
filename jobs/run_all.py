"""Run every figure harness at benchmark scale and dump the result tables.

Writes ``results/figX.txt`` (one plain-text table per paper figure) — the
source of the "measured" column in EXPERIMENTS.md.

Run: ``spark-submit jobs/run_all.py`` (or plain python).
"""
import pathlib
import sys

sys.path.insert(0, "jobs")
from _session import get_spark  # noqa: E402

from repro import experiments as ex  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parents[1] / "results"


def _dump(name: str, df) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}.txt"
    path.write_text(df.to_string(index=False) + "\n")
    print(f"\n== {name} ==")
    print(df.to_string(index=False))


def main() -> None:
    spark = get_spark("run-all")
    spark.sparkContext.setLogLevel("ERROR")
    _dump("fig6a", ex.fig6a())
    _dump("fig6b", ex.fig6b())
    _dump("fig7", ex.fig7())
    _dump("fig8a", ex.fig8a())
    _dump("fig8b", ex.fig8b())
    _dump("fig8c", ex.fig8c())
    _dump("fig8d", ex.fig8d())
    _dump("fig8e", ex.fig8e())
    _dump("fig8f", ex.fig8f())
    _dump("fig8g", ex.fig8g())
    _dump("fig8h", ex.fig8h())
    _dump("fig9a", ex.fig9a(spark))
    _dump("fig9b", ex.fig9b(spark))
    _dump("fig9c", ex.fig9c(spark))
    _dump("fig9d", ex.fig9d(spark))
    _dump("fig9e", ex.fig9e(spark))
    _dump("fig9f", ex.fig9f(spark))
    _dump("fig9g", ex.fig9g())
    _dump("fig9h", ex.fig9h())
    for name, df in ex.fig11().items():
        _dump(name, df)
    spark.stop()


if __name__ == "__main__":
    main()
