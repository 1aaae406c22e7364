"""TCSC planning benchmark: plan latency end to end, and per layer when traced.

Run from the repository root::

    python3 perfbench/run.py --workload msqm_conflict --seed 0 --seconds 20 --trace 0

Load model: a closed loop with one client — one solve at a time, from this
process.  A solve turns a generated workload and its budget into a complete
plan, worker ranking included.  Every timed solve is checked
(:mod:`plancheck`); it fails if it raises, if its plan breaks an invariant,
if its plan differs from the run's first plan, or, at seed 0, if its plan
digest differs from the one committed in ``digests.json``.

``--trace 0`` reports the end-to-end metrics from untraced solves.
``--trace 1`` alternates untraced and traced solves and reports the
per-layer metrics, the tracing overhead among them.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--record PATH`` also writes the whole run record.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from layertrace import Tracer, installed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
#: Fixed Spark parallelism, capped by the available cores.
SPARK_CORES = min(4, os.cpu_count() or 1)
#: Instance builds per run; set-up reports their median.
SETUP_REPEATS = 3


def prepare_env() -> None:
    """Point imports, Spark and temporary files at this checkout."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}")
    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    paths = [str(ROOT / "src"), str(ROOT)]
    sys.path[:0] = paths
    # Spark's Python workers import repro too, and inherit this variable.
    os.environ["PYTHONPATH"] = os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK_DIR / "spark-local")
    os.environ["SPARK_MASTER"] = f"local[{SPARK_CORES}]"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--driver-memory 1g",
        "--driver-java-options", shlex.quote(f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"),
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.showConsoleProgress=false",
        "--conf", shlex.quote(f"spark.sql.warehouse.dir={WORK_DIR / 'warehouse'}"),
        "pyspark-shell",
    ])


def start_spark():
    from jobs._session import get_spark

    spark = get_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for its JVM (and so its Python workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()  # the JVM exits when its stdin closes
        gateway.proc.wait(timeout=120)


def machine() -> dict:
    import numpy
    import pandas
    import pyspark

    model = next(
        (line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "spark_master": os.environ["SPARK_MASTER"],
    }


def spark_counts(sc, group: str) -> dict:
    """Jobs, stages and tasks Spark ran under one job group."""
    tracker = sc.statusTracker()
    stages = set()
    jobs = tracker.getJobIdsForGroup(group)
    for j in jobs:
        info = tracker.getJobInfo(j)
        if info is not None:
            stages.update(info.stageIds)
    tasks = failed = 0
    for s in stages:
        info = tracker.getStageInfo(s)
        if info is not None:
            tasks += info.numCompletedTasks
            failed += info.numFailedTasks
    return {"spark.jobs": len(jobs), "spark.stages": len(stages), "spark.tasks": tasks, "spark.failed_tasks": failed}


def index_counters(plan: list) -> dict:
    """Counters the tree index returned in ``Assignment.stats``, summed."""
    keys = ("nodes_expanded", "interp_ops", "candidates_evaluated", "candidates_total")
    return {k: sum(a.stats.get(k, 0) for a in plan) for k in keys}


def solve_spans_s(tr, name: str) -> float:
    """Total duration of the ``name`` spans made directly by the solve."""
    return sum(s["end"] - s["start"] for s in tr.child_spans("solve", name))


INDEX_METHODS = ("init", "best_candidate", "exact_heuristic", "commit", "update_cost")
QUALITY_FUNCTIONS = ("partial_quality", "knn_distances", "p_vector")


def layer_metrics(case, inst, out, tr) -> dict:
    """Per-layer figures of one traced solve (``tr`` holds its trace)."""
    solve_s = tr.total("solve")
    build_s = tr.total("assignment.build_task_contexts")
    c = index_counters(out.plan)
    bc_calls = tr.calls("tree_index.best_candidate")
    lm = {
        "trace.solve_s": solve_s,
        "trace.unattributed_s": tr.self_time("solve"),
        "assignment.build_task_contexts_s": build_s,
        "assignment.pairs_ranked": (
            inst.wl.n_tasks * len(inst.wl.workers) if tr.calls("assignment.build_task_contexts") else 0
        ),
        "tree_index.best_candidate.calls": bc_calls,
        "tree_index.best_candidate.self_s": tr.self_time("tree_index.best_candidate"),
        "tree_index.exact_heuristic.calls": tr.calls("tree_index.exact_heuristic"),
        "tree_index.exact_heuristic.s": tr.total("tree_index.exact_heuristic"),
        "tree_index.commit.calls": tr.calls("tree_index.commit"),
        "tree_index.commit.s": tr.total("tree_index.commit"),
        "tree_index.init.calls": tr.calls("tree_index.init"),
        "tree_index.init.s": tr.total("tree_index.init"),
        "tree_index.update_cost.calls": tr.calls("tree_index.update_cost"),
        "tree_index.update_cost.s": tr.total("tree_index.update_cost"),
        "tree_index.self_s": sum(tr.self_time(f"tree_index.{n}") for n in INDEX_METHODS),
        "tree_index.nodes_expanded": c["nodes_expanded"],
        "tree_index.interp_ops": c["interp_ops"],
        "tree_index.pruned_share": (
            1.0 - c["candidates_evaluated"] / c["candidates_total"] if c["candidates_total"] else 0.0
        ),
        "tree_index.evals_per_step": c["candidates_evaluated"] / out.steps if out.steps else 0.0,
    }
    for n in QUALITY_FUNCTIONS:
        lm[f"quality.{n}.calls"] = tr.calls(f"quality.{n}")
        lm[f"quality.{n}.s"] = tr.total(f"quality.{n}")
    serial = case.name == "msqm_conflict"
    lm["multi_greedy.steps"] = out.steps if serial else 0
    lm["multi_greedy.conflicts"] = out.conflicts if serial else 0
    lm["multi_greedy.self_s"] = tr.self_time("solve") if serial else 0.0
    lm["multi_greedy.reeval_share"] = (bc_calls - out.steps) / bc_calls if serial and bc_calls else 0.0
    if out.tables is not None:
        create = solve_spans_s(tr, "spark.createDataFrame")
        collect = solve_spans_s(tr, "spark.toPandas")
        rounds = out.tables["rounds"]
        lm.update({
            "task_parallel.rounds": rounds,
            "task_parallel.conflicts": out.conflicts,
            "task_parallel.create_df_s": create,
            "task_parallel.collect_s": collect,
            "task_parallel.driver_merge_s": solve_s - build_s - create - collect,
            "task_parallel.round_s": (solve_s - build_s) / rounds,
        })
    return lm


def group_parallel_metrics(cases, plancheck, seed: int, spark) -> tuple[dict, list[str]]:
    """Layers of one traced group-parallel solve on ``cases.GROUP_CASE``."""
    inst = cases.make_instance(cases.GROUP_CASE, seed)
    tr = Tracer()
    with installed(tr), tr.span("solve"):
        res, gstats = cases.solve_group_parallel(inst, spark)
    errors = plancheck.check_plan(
        inst.wl.tasks, plancheck.worker_positions(inst.wl.workers), res.assignments,
        m=cases.GROUP_CASE.m, k=cases.K, budget=inst.budget,
    )
    return {
        "group_parallel.solve_s": tr.total("solve"),
        "group_parallel.apply_s": solve_spans_s(tr, "spark.toPandas"),
        "group_parallel.max_group_share": gstats["max_group"] / inst.wl.n_tasks,
        "conflict_graph.conflict_edges_s": tr.total("conflict_graph.conflict_edges"),
        "conflict_graph.expansion_rounds": gstats["expansion_rounds"],
        "conflict_graph.edges": gstats["n_edges"],
        "conflict_graph.groups": gstats["n_groups"],
        "conflict_graph.max_group": gstats["max_group"],
    }, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, help="also write the whole run record here")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prepare_env()
    import cases
    import plancheck

    if args.workload not in cases.CASES:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(cases.CASES)}")
    case = cases.CASES[args.workload]
    import_s = time.perf_counter() - T_START

    # ------------------------------------------------------------- set-up
    spark = None
    session_s = warmup_s = 0.0
    if case.uses_spark:
        t = time.perf_counter()
        spark = start_spark()
        session_s = time.perf_counter() - t
    try:
        gen_times, build_times = [], []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            cases.gen_workload(n_tasks=case.n_tasks, n_workers=case.n_workers, m=case.m, seed=args.seed)
            gen_times.append(time.perf_counter() - t)
            t = time.perf_counter()
            inst = cases.make_instance(case, args.seed)
            positions = plancheck.worker_positions(inst.wl.workers)
            build_times.append(time.perf_counter() - t)
        if spark is not None:
            t = time.perf_counter()
            cases.solve(case, inst, spark)
            warmup_s = time.perf_counter() - t
        setup_s = import_s + session_s + statistics.median(build_times) + warmup_s

        committed = json.loads((BENCH_DIR / "digests.json").read_text()).get(case.name)

        def check(plan) -> list[str]:
            errors = plancheck.check_plan(inst.wl.tasks, positions, plan, m=case.m, k=cases.K, budget=inst.budget)
            if args.seed == 0 and plancheck.plan_digest(plan) != committed:
                errors.append(f"plan digest differs from the committed seed-0 digest {committed}")
            return errors

        # --------------------------------------------------------- measure
        untraced, traced_layers, spans = [], [], []
        attempted = failed = 0
        first = None
        plan_steps = q_sum = q_min = None
        deadline = time.perf_counter() + args.seconds
        while True:
            use_trace = bool(args.trace) and attempted % 2 == 1
            gc.collect()
            tr = Tracer()
            try:
                if use_trace:
                    group = f"perfbench-{attempted}"
                    if spark is not None:
                        spark.sparkContext.setJobGroup(group, group)
                    with installed(tr), tr.span("solve"):
                        out = cases.solve(case, inst, spark)
                else:
                    t = time.perf_counter()
                    out = cases.solve(case, inst, spark)
                    untraced.append(time.perf_counter() - t)
                errors = check(out.plan)
                digest = plancheck.plan_digest(out.plan)
                if first is None:
                    first = digest
                    plan_steps = out.steps
                    qs = [a.quality for a in out.plan]
                    q_sum, q_min = sum(qs), min(qs)
                elif digest != first:
                    errors.append("plan differs from the run's first plan")
            except Exception as exc:  # a failed operation, counted below
                errors = [f"solve raised {exc!r}"]
            attempted += 1
            if errors:
                failed += 1
                print(f"operation {attempted} failed: {errors[:5]}", file=sys.stderr)
            elif use_trace:
                lm = layer_metrics(case, inst, out, tr)
                if spark is not None:
                    lm.update(spark_counts(spark.sparkContext, group))
                traced_layers.append(lm)
                spans.append(tr.spans)
            if time.perf_counter() >= deadline and (not args.trace or attempted >= 2):
                break

        # ------------------------------------------------ traced extras
        extra = {}
        if args.trace and spark is not None and first is not None:
            serial = cases.solve_serial_msqm(inst)
            extra["task_parallel.q_gap_vs_serial"] = serial.q_sum - q_sum
            gp, errors = group_parallel_metrics(cases, plancheck, args.seed, spark)
            attempted += 1
            if errors:
                failed += 1
                print(f"group-parallel plan failed: {errors[:5]}", file=sys.stderr)
            extra.update(gp)
    finally:
        if spark is not None:
            stop_spark(spark)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = failed == 0 and first is not None

    # ------------------------------------------------------------- report
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = dict.fromkeys(units, 0)
        values.update({
            "workloads.gen_s": statistics.median(gen_times),
            "spark.session_start_s": session_s,
            "spark.cores": SPARK_CORES if spark is not None else 0,
            "warmup_s": warmup_s,
        })
        for name in traced_layers[0] if traced_layers else ():
            values[name] = statistics.median(lm[name] for lm in traced_layers)
        values.update(extra)
        if untraced:
            values["trace.untraced_solve_s"] = statistics.median(untraced)
            values["trace.overhead_s"] = values["trace.solve_s"] - values["trace.untraced_solve_s"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        solve_s = statistics.median(untraced) if untraced else 0.0
        values = {
            "solve_s": solve_s,
            "subtasks_per_s": plan_steps / solve_s if plan_steps and solve_s else 0.0,
            "setup_s": setup_s,
            "q_sum": q_sum or 0.0,
            "q_min": q_min or 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    n_timed = len(traced_layers) if args.trace else len(untraced)
    print(f"perfbench {case.name} seed={args.seed} trace={args.trace} plan_digest={first}")
    print(f"  ({n_timed} {'traced ' if args.trace else ''}solves timed; {os.environ['SPARK_MASTER']} "
          f"{'used' if spark is not None else 'unused'}; peak RSS is this driver process only, "
          f"the JVM and Spark's Python workers are excluded)")
    for n, mv in metrics.items():
        print(f"  {n:40s} {mv['value']:.6g} {mv['unit']}")
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps({
            "workload": case.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine(),
            "attempted": attempted,
            "failed": failed,
            "untraced_solve_s": untraced,
            "setup": {
                "import_s": import_s,
                "session_start_s": session_s,
                "instance_build_s": build_times,
                "gen_s": gen_times,
                "warmup_s": warmup_s,
            },
            "layers_per_solve": traced_layers,
            "extra": extra,
            "spans": spans,
            "metrics": metrics,
        }, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
