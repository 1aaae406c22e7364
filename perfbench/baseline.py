"""Record the benchmark baseline with one command.

Run from the repository root::

    python3 perfbench/baseline.py

Runs every workload of ``BENCHMARK.json`` at seed 0 for ``run_seconds``,
once untraced and once traced, each in its own process, and writes
``perfbench/baseline.json``: the machine, then per workload the end-to-end
and per-layer metrics, operation counts and per-solve times.
"""
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
KEEP = ("attempted", "failed", "untraced_solve_s", "setup", "extra", "metrics")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = ROOT / ".bench_work" / "baseline-record.json"
    out = {"run_seconds": spec["run_seconds"], "seed": 0, "workloads": {}}
    for w in spec["workloads"]:
        runs = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", w["name"], "--seed", "0",
                "--seconds", str(spec["run_seconds"]), "--trace", str(trace), "--record", str(record),
            ]
            subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            rec = json.loads(record.read_text())
            out["machine"] = rec["machine"]
            runs[f"trace{trace}"] = {k: rec[k] for k in KEEP}
            print(f"{w['name']} trace={trace}: {rec['attempted']} operations, {rec['failed']} failed", flush=True)
        out["workloads"][w["name"]] = {"why": w["why"], **runs}
    (BENCH_DIR / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
