"""quantlab benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload sweep-k --seed 1 --seconds 40 --trace 0

Run it from anywhere; it uses the quantlab sources in ``src/`` next to
this directory.  Workloads (BENCHMARK.json says why each exists):

    sweep-k          verify_pair + failed_claims for every m + n <= 8, then
                     the JSON sweep report
    algebra-kf       K, F1 and F2 for every m + n <= 10: build, Poisson
                     bracket, both quantizations and the ladder one, both
                     commutators; no action oracle
    quantize-render  2000 seeded expressions: parse, quantize under both
                     schemes, render text, JSON and LaTeX, normal-ordered
                     and differential

Load is a closed loop with one client: each pass is a fresh interpreter
(worker.py) started when the previous one has ended, and inside a pass
each item starts when the previous one finishes.  A ``quantlab`` command
pays interpreter start, the import and the filling of quantlab's caches
every time, so no pass is warmed up.  Passes repeat until the next one
would end after --seconds, with at least MIN_PASSES of them.

The shared host's speed swings within seconds, so the worker also runs
a fixed speed probe every 50 ms, inside items too, and times are
reported at a reference host speed: each item's time is scaled by the
reference probe time over that of the probes taken while it ran
(worker.py).  Raw times are printed alongside.  Each item's time is its
median over the run's passes.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates an
untraced pass with a traced one and reports the per-layer metrics; the
traced pass wraps quantlab's public functions (spans.py) and writes its
spans to .perfbench/ when it ends.

Every item output is checked: by its reference digest from
references.json, and by claims and round trips that need no reference.
The first pass makes every check; later passes skip the round trips of
quantize-render, which cost as much as the items, and must instead
reproduce the first pass's output digests.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every output
is correct, 1 when one is not, and 2 when the run cannot be made.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PROBE_ROUNDS, REFERENCE_PROBE_MS, speed_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"

MIN_PASSES = 3  # untraced passes; --trace 1 needs one untraced/traced pair
SETUP_STARTS = 2  # extra cold starts before each pass, stopping once the inputs exist
DEADLINE_S = 170.0  # a run must end within 180 s
TAIL_BEYOND = 10  # samples that must lie above the tail percentile

# Per-layer metrics that repeat exactly for one seed.
DETERMINISTIC = (".calls", ".term_pairs", ".probes", ".hit_ratio", ".bytes_out")


class RunError(Exception):
    """The run cannot be completed; no result is printed."""


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Seconds for a hundred speed probes in one: shows host speed drift."""
    return speed_probe(100 * PROBE_ROUNDS) / 1000.0


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(samples: int) -> float:
    """Highest percentile, in steps of 0.1, with TAIL_BEYOND samples above it.

    Below 11 samples it is the median.
    """
    for tenths in range(999, 500, -1):
        pct = tenths / 10.0
        if samples - math.ceil(samples * pct / 100.0) >= TAIL_BEYOND:
            return pct
    return 50.0


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = clock() + DEADLINE_S

    def spawn(self, *extra: str) -> dict:
        timeout = self.deadline - clock()
        if timeout <= 0:
            raise RunError(f"run did not finish within {DEADLINE_S:.0f} s")
        cmd = [
            sys.executable,
            str(WORKER),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--size", self.args.size,
            "--spawned-at", repr(clock()),
            *extra,
        ]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"worker exceeded the {DEADLINE_S:.0f} s run limit") from exc
        if proc.returncode != 0:
            raise RunError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def measure(self) -> tuple[list[dict], list[dict], list[dict]]:
        """Passes, each after SETUP_STARTS set-up-only starts, until --seconds is used up.

        The set-up-only starts are spread over the run, like the passes, so
        that their median does not rest on the host's speed in one moment.
        """
        setups, plain, traced, unit_s = [], [], [], []
        end = clock() + self.args.seconds
        min_units = 1 if self.args.trace else MIN_PASSES
        while len(unit_s) < min_units or clock() + statistics.median(unit_s) <= end:
            start = clock()
            setups += [self.spawn("--setup-only") for _ in range(SETUP_STARTS)]
            # Only the first pass makes every check; the rest must repeat its digests.
            plain.append(self.spawn("--repeat") if plain else self.spawn())
            if self.args.trace:
                spans_out = OUT / f"spans-{self.args.workload}-seed{self.args.seed}-{len(traced)}.jsonl"
                traced.append(self.spawn("--repeat", "--trace", "--trace-out", str(spans_out)))
            unit_s.append(clock() - start)
        return setups + plain + traced, plain, traced


def compare_repeats(passes: list[dict]) -> list[str]:
    """Outputs of later passes whose digest differs from the first pass's.

    The first pass makes every check; a later pass skips the costly ones,
    so its outputs must match the first pass's byte for byte.  Each pass's
    digests are dropped here, after use, to keep the run record small.
    """
    first = passes[0].pop("digests")
    failures = []
    for index, later in enumerate(passes[1:], 1):
        for key, found in later.pop("digests").items():
            if key in first and found != first[key]:
                failures.append(f"{key}: pass {index} digest {found} != first pass {first[key]}")
    return failures


def end_to_end(plain: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics from each item's median time over the run's passes.

    Every pass runs the same items in the same order from a cold start, so
    the item at one position is the same work, with the same cache state,
    in every pass.  Item times are those at the reference host speed
    (worker.py); the same figures from the raw times go into the notes.
    """
    per_pass = len(plain[0]["item_ms"])
    tail = tail_percentile(per_pass)

    def figures(item_key: str, report_key: str) -> dict:
        item_ms = [statistics.median(times) for times in zip(*(p[item_key] for p in plain))]
        report_ms = statistics.median(p[report_key] for p in plain)
        return {
            "items_per_s": per_pass * 1000.0 / (sum(item_ms) + report_ms),
            "item_p50_ms": percentile(item_ms, 50.0),
            "item_tail_ms": percentile(item_ms, tail),
        }

    values = {
        **figures("item_adj_ms", "report_adj_ms"),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "setup_s": statistics.median(s["setup_adj_s"] for s in setups),
    }
    probes = [ms for p in plain for ms in p["probe_ms"]]
    notes = {
        "items_per_pass": per_pass,
        "tail_percentile": tail,
        "setup_samples": len(setups),
        "raw": {
            **figures("item_ms", "report_ms"),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        },
        "probe_ms": {
            "count": len(probes),
            "min": min(probes),
            "median": statistics.median(probes),
            "max": max(probes),
        },
    }
    return values, notes


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    runs = [{**t["layers"], "render.bytes_out": t["bytes_out"]} for t in traced]
    values = {}
    for name in runs[0]:
        each = [r[name] for r in runs]
        values[name] = each[0] if name.endswith(DETERMINISTIC) else statistics.median(each)
    unsteady = sorted(
        name
        for name in values
        if name.endswith(DETERMINISTIC) and any(r[name] != values[name] for r in runs)
    )
    values["trace.overhead_s"] = statistics.median(
        t["core_s"] - p["core_s"] for p, t in zip(plain, traced)
    )
    notes = {"traced_passes": len(traced), "missing": traced[0]["missing"], "unsteady_counts": unsteady}
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("sweep-k", "algebra-kf", "quantize-render")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny is the self-test size"
    )
    args = parser.parse_args(argv)
    try:
        return run(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    if not (ROOT / "src" / "quantlab" / "__init__.py").is_file():
        raise RunError(f"no quantlab sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Build: byte-compile once, so that no pass pays for compiling.
    for directory in (ROOT / "src", HERE):
        if not compileall.compile_dir(directory, quiet=1):
            raise RunError(f"cannot byte-compile {directory}")
    OUT.mkdir(exist_ok=True)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "calibration_before_s": calibrate(),
    }
    setups, plain, traced = Runner(args).measure()
    context["calibration_after_s"] = calibrate()

    passes = plain + traced
    repeat_failures = compare_repeats(passes)
    attempted = sum(p["checked"] for p in passes)
    failed = sum(p["failed"] for p in passes) + len(repeat_failures)
    context.update(
        passes=len(plain),
        failed_ratio=failed / attempted,
        referenced=sum(p["referenced"] for p in passes),
        failures=([f for p in passes for f in p["failures"]] + repeat_failures)[:10],
    )
    if args.trace:
        values, notes = per_layer(plain, traced)
        metric_spec = spec["per_layer"]
    else:
        values, notes = end_to_end(plain, setups)
        metric_spec = spec["end_to_end"]
    context.update(notes)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in metric_spec
        if m["name"] in values
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "metrics": metrics, "passes": passes}, indent=1)
    )
    _print_report(context, metrics, attempted, failed, set(m["name"] for m in metric_spec))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _print_report(context, metrics, attempted, failed, names) -> None:
    print(
        f"perfbench {context['workload']} seed={context['seed']} size={context['size']}"
        f" trace={context['trace']}"
    )
    print(
        f"context: python {context['python']} ({context['implementation']}),"
        f" cpus {context['cpu_count']} (usable {context['usable_cpus']}),"
        f" PYTHONHASHSEED={context['PYTHONHASHSEED']},"
        f" calibration loop {context['calibration_before_s']:.4f} s before,"
        f" {context['calibration_after_s']:.4f} s after"
    )
    if "tail_percentile" in context:
        raw, probes = context["raw"], context["probe_ms"]
        print(
            f"passes: {context['passes']} cold, {context['items_per_pass']} items each;"
            f" item times are medians over the passes; {context['setup_samples']} setups;"
            f" item_tail_ms is p{context['tail_percentile']:g}"
        )
        print(
            f"host speed: {probes['count']} probes of {probes['min']:.3f} to"
            f" {probes['max']:.3f} ms, median {probes['median']:.3f} ms; timings below are"
            f" at the reference speed, where a probe takes {REFERENCE_PROBE_MS:g} ms"
        )
        print(
            "raw timings: "
            + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
        )
    else:
        print(
            f"passes: {context['passes']} untraced + {context['traced_passes']} traced;"
            f" counts differing between traced passes: {context['unsteady_counts'] or 'none'}"
        )
        share = metrics.get("trace.oracle_apply_share")
        if share is not None:
            print(f"oracle + action share of traced item time: {share['value']:.1%}")
        if context["missing"]:
            print(f"not wrapped (metrics absent): {', '.join(context['missing'])}")
    for name in sorted(names):
        if name in metrics:
            print(f"  {name:36s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
        else:
            print(f"  {name:36s} absent")
    print(
        f"failed_ratio: {context['failed_ratio']:g} ({failed} of {attempted} checked outputs"
        f" failed; {context['referenced']} compared with a reference digest)"
    )
    for failure in context["failures"]:
        print(f"failure: {failure}")


if __name__ == "__main__":
    raise SystemExit(main())
