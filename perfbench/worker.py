"""One cold pass of one workload, in a fresh interpreter.

run.py starts this script once per pass, so every pass pays what a
``quantlab`` command pays: interpreter start, ``import quantlab``, and
filling quantlab's caches.  The pass prints one JSON line with its
timings, raw and at the reference host speed, its speed probes, check
results, output digests and, with --trace, its per-layer numbers.  With --repeat it skips the checks that run.py makes instead by
comparing the pass's digests with those of the run's first pass.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = Path(__file__).resolve().parent / "references.json"


# The shared host's speed swings by a third within seconds and drifts
# between minutes, so every time is also given at a reference speed: a
# fixed probe runs every PROBE_EVERY_MS, inside items too (HostSpeed), and
# an item's time is scaled by REFERENCE_PROBE_MS over the median time of
# the probes taken while it ran.  The probe does what quantlab does most,
# rational arithmetic in tuple-keyed dicts and formatting, so it slows
# down with the host as quantlab does.
PROBE_ROUNDS = 1_500  # about a millisecond
PROBE_EVERY_MS = 50.0  # wall time between two probes
REFERENCE_PROBE_MS = 1.2  # the probe's time at the reference speed, near its median on a 2-vCPU Xeon VM


def clock() -> float:
    """System-wide monotonic clock, comparable with the parent's reading."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def speed_probe(rounds: int = PROBE_ROUNDS) -> float:
    """Milliseconds for a fixed piece of work: the host's speed just now.

    The work is rational arithmetic on int pairs in a tuple-keyed dict,
    then formatting, close to what quantlab does; it runs only its own
    code, so that quantlab's use of shared library code (fractions, whose
    bytecode the interpreter specializes as it runs) cannot change its
    speed.  The cyclic garbage collector is off meanwhile, so that the
    probe never pays for collecting quantlab's objects.
    """
    gc.disable()
    start = time.perf_counter()
    sums: dict = {}
    for index in range(rounds):
        key = (index % 7, index % 5)
        num, den = sums.get(key, (0, 1))
        num, den = num * 21 + (index % 11 + 1) * den, den * 21
        common = math.gcd(num, den)
        sums[key] = (num // common, den // common)
    ",".join(f"{key}:{num}/{den}" for key, (num, den) in sums.items())
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed * 1000.0


class HostSpeed:
    """Speed probes at a steady rate, taken out of the times they interrupt.

    A SIGALRM timer runs speed_probe() in the main thread between two
    bytecodes, wherever the pass is, so a long item is probed while it
    runs.  Each probe keeps its interval, so that item_times() can take
    the probe's own time out of the item it interrupted.
    """

    def __init__(self):
        self.probes: list[tuple[float, float, float]] = []  # start, end, probe ms
        self.busy = False
        # The interpreter specializes code as it runs it, so a fresh
        # interpreter's first probe reads up to twice as slow: drop it.
        speed_probe()

    def probe(self, *_signal_args) -> None:
        if self.busy:  # a probe slower than the timer's period
            return
        self.busy = True
        start = time.perf_counter()
        ms = speed_probe()
        self.probes.append((start, time.perf_counter(), ms))
        self.busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.probe)
        every = PROBE_EVERY_MS / 1000.0
        signal.setitimer(signal.ITIMER_REAL, every, every)

    def stop(self) -> None:
        """Stop the timer and take the probe that closes the last interval."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.probe()

    def item_times(self, intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
        """Milliseconds of each interval less its probes, raw and at the reference speed.

        The speed is that of the probes inside the interval or, for an
        interval too short to hold one, of the probes just before and after.
        """
        starts = [probe[0] for probe in self.probes]
        times = []
        for start, end in intervals:
            first, last = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
            inside = self.probes[first:last]
            raw_ms = (end - start - sum(e - s for s, e, _ in inside)) * 1000.0
            around = inside or self.probes[first - 1 : first + 1]
            speed_ms = statistics.median(ms for _, _, ms in around)
            times.append((raw_ms, raw_ms * REFERENCE_PROBE_MS / speed_ms))
        return times


# Per-layer metrics a traced pass reports: (metric, layer, source).  The
# source is "calls" or "self_s" from the spans, or "count" from a counter.
LAYER_METRICS = [
    ("verify.oracle.calls", "verify.oracle", "calls"),
    ("verify.oracle.self_s", "verify.oracle", "self_s"),
    ("verify.oracle.probes", "verify.oracle", "count"),
    ("weylalgebra.apply.calls", "weylalgebra.apply", "calls"),
    ("weylalgebra.apply.self_s", "weylalgebra.apply", "self_s"),
    ("weylalgebra.op_mul.calls", "weylalgebra.op_mul", "calls"),
    ("weylalgebra.op_mul.self_s", "weylalgebra.op_mul", "self_s"),
    ("weylalgebra.op_mul.term_pairs", "weylalgebra.op_mul", "count"),
    ("weylalgebra.commutator.self_s", "weylalgebra.commutator", "self_s"),
    ("quantizer.quantize.calls", "quantizer.quantize", "calls"),
    ("quantizer.quantize.self_s", "quantizer.quantize", "self_s"),
    ("quantizer.quantize_ladder.self_s", "quantizer.quantize_ladder", "self_s"),
    ("generators.build.self_s", "generators.build", "self_s"),
    ("phasepoly.poisson.self_s", "phasepoly.poisson", "self_s"),
    ("vlab.parser.parse.calls", "vlab.parser.parse", "calls"),
    ("vlab.parser.parse.self_s", "vlab.parser.parse", "self_s"),
    ("render.self_s", "render", "self_s"),
    ("coeffring.mul.calls", "coeffring.mul", "count"),
    ("coeffring.mul.term_pairs", "coeffring.mul", "count"),
]


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--repeat", action="store_true", help="skip claims a repeat need not check")
    parser.add_argument("--no-references", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(SRC))
    import quantlab

    if not Path(quantlab.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported quantlab from {quantlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    items = workloads.make_inputs(args.workload, args.size, args.seed)
    setup_s = clock() - args.spawned_at
    host = HostSpeed()
    host.probe()
    setup_adj_s = setup_s * REFERENCE_PROBE_MS / host.probes[0][2]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_adj_s": setup_adj_s}))
        return 0

    recorder = None
    missing = []
    if args.trace:
        import spans

        recorder = spans.Recorder()
        missing = recorder.install()

    def call(key, fn, *fn_args):
        return fn(*fn_args) if recorder is None else recorder.run_item(key, fn, *fn_args)

    run = workloads.RUN[args.workload]
    checker = Checker(args, workloads)
    intervals, records = [], []
    if recorder is None:  # probes inside a traced item would land in its spans
        host.start()
    for item in items:
        output = error = None
        start = time.perf_counter()
        try:
            output = call(item["key"], run, item)
        except Exception:
            error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        intervals.append((start, time.perf_counter()))
        if args.workload == "sweep-k" and error is None:
            records.append(output)
        checker.item(item, output, error)
    if args.workload == "sweep-k":
        max_sum = workloads.SIZES[args.size]["sweep-k"]
        start = time.perf_counter()
        sweep_report = call("report", workloads.sweep_report, records, max_sum)
        intervals.append((start, time.perf_counter()))
        checker.report(sweep_report, max_sum)
    host.stop()
    times = host.item_times(intervals)
    if args.workload == "sweep-k":
        report_ms, report_adj_ms = times.pop()
    else:
        report_ms = report_adj_ms = 0.0
    item_ms = [raw for raw, _ in times]
    item_adj_ms = [adjusted for _, adjusted in times]
    core_s = (sum(item_ms) + report_ms) / 1000.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "setup_adj_s": setup_adj_s,
        "core_s": core_s,
        "item_ms": item_ms,
        "item_adj_ms": item_adj_ms,
        "report_ms": report_ms,
        "report_adj_ms": report_adj_ms,
        "probe_ms": [ms for _, _, ms in host.probes],
        "peak_rss_mb": peak_rss_mb,
        **checker.summary(),
    }
    if recorder is not None:
        result["layers"] = _layer_metrics(recorder)
        result["missing"] = missing
        if args.trace_out:
            recorder.write(args.trace_out)
    print(json.dumps(result))
    return 0


class Checker:
    """Checks each output as soon as its item is timed, then lets it go.

    An output fails on an exception, on a broken claim or round trip, or
    on a digest that differs from its reference in references.json.
    """

    def __init__(self, args, workloads):
        self.workloads = workloads
        checks = workloads.REPEAT_CHECK if args.repeat else workloads.CHECK
        self.check = checks[args.workload]
        # make_references.py collects digests before any reference file exists.
        missing_ok = args.no_references and not REFERENCES.exists()
        refs = {} if missing_ok else json.loads(REFERENCES.read_text())
        if args.workload == "quantize-render":
            seed_refs = refs.get("quantize-render", {}).get(str(args.seed), [])
            self.expected = {str(index): value for index, value in enumerate(seed_refs)}
        else:
            self.expected = refs.get(args.workload, {}).get("items", {})
        self.report_refs = refs.get("sweep-k", {}).get("report", {})
        self.failures, self.digests = [], {}
        self.checked = self.referenced = self.bytes_out = 0

    def _compare(self, key: str, canonical, problems: list[str], want) -> None:
        self.checked += 1
        found = self.workloads.digest(canonical)
        if want is not None:
            self.referenced += 1
            if found != want:
                problems.append(f"{key}: output digest {found} != reference {want}")
        if problems:
            self.failures.append("; ".join(problems))
        else:
            # Only passing outputs get a digest, so that run.py's comparison
            # of passes never counts an output that has failed already.
            self.digests[key] = found

    def item(self, item: dict, output, error: str | None) -> None:
        key = item["key"]
        if error is None:
            try:
                canonical, problems, size = self.check(item, output)
            except Exception:
                error = "check raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        if error is not None:
            self.checked += 1
            self.failures.append(f"{key}: {error}")
            return
        self.bytes_out += size
        self._compare(key, canonical, problems, self.expected.get(key))

    def report(self, text: str, max_sum: int) -> None:
        """The sweep report is one more checked output."""
        self.bytes_out += len(text.encode())
        self._compare("report", text, [], self.report_refs.get(str(max_sum)))

    def summary(self) -> dict:
        return {
            "checked": self.checked,
            "failed": len(self.failures),
            "referenced": self.referenced,
            "failures": self.failures[:5],
            "bytes_out": self.bytes_out,
            "digests": self.digests,
        }


def _layer_metrics(recorder) -> dict:
    calls, self_s = recorder.layer_totals()
    values = {"calls": calls, "self_s": self_s, "count": recorder.counts}
    out = {}
    for metric, layer, source in LAYER_METRICS:
        if layer in recorder.found:
            out[metric] = values[source][metric if source == "count" else layer]
    # Share of all traced item time spent in the oracle and in the action.
    total = sum(span[2] - span[1] for span in recorder.spans if span[3] < 0)
    if {"verify.oracle", "weylalgebra.apply"} <= recorder.found and total > 0:
        share = self_s["verify.oracle"] + self_s["weylalgebra.apply"]
        out["trace.oracle_apply_share"] = share / total
    import quantlab.quantizer as quantizer

    cache_info = getattr(getattr(quantizer, "quantize_monomial", None), "cache_info", None)
    if cache_info is not None:
        info = cache_info()
        if info.hits + info.misses:
            out["quantizer.monomial_cache.hit_ratio"] = info.hits / (info.hits + info.misses)
    return out


if __name__ == "__main__":
    raise SystemExit(main())
