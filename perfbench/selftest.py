"""Self-test of the benchmark at tiny size; it never looks at a timing.

    python3 perfbench/selftest.py

Runs run.py on every workload of BENCHMARK.json with --size tiny (sweep-k
to m + n <= 3, algebra-kf to m + n <= 4, quantize-render on 20
expressions), untraced and traced.  Each run must exit 0 and end with a
result line of the right shape that names exactly the metrics of
BENCHMARK.json, with their units, and has no failed output.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(workload: str, trace: int, expected_units: dict) -> list[str]:
    where = f"{workload} --trace {trace}"
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != KEYS:
        return [f"{where}: result keys {sorted(result)}"]
    problems = []
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: failed_ratio is not 0: {result}")
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if units != expected_units:
        problems.append(f"{where}: metrics {units} != {expected_units}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{where}: {name} is not a number: {value!r}")
    return problems


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            units = {metric["name"]: metric["unit"] for metric in spec[group]}
            problems += check_run(workload["name"], trace, units)
    for problem in problems:
        print(problem)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
