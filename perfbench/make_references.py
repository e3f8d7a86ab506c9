"""Write references.json: the digest of every item's canonical output.

    python3 perfbench/make_references.py

Run it only on a commit whose outputs are known to be right; a later
commit's outputs must then match byte for byte.  It runs every workload
at full size on two seeds.  The seed at most orders the pairs of sweep-k
and algebra-kf, so their digests are keyed by pair and must agree across
the seeds; quantize-render draws new expressions per seed, so it keeps a
list per seed.  The second seed is for checking a claim on inputs that
were not used while the claim was being made.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = (1, 2)


def digests(workload: str, seed: int, size: str = "full") -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
        "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
        "--no-references",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outputs fail their checks: {result['failures']}")
    return result["digests"]


def main() -> int:
    refs: dict = {}
    for workload in ("sweep-k", "algebra-kf"):
        runs = [digests(workload, seed) for seed in SEEDS]
        if any(run != runs[0] for run in runs):
            raise SystemExit(f"{workload}: digests depend on the seed")
        refs[workload] = {"items": dict(sorted(runs[0].items()))}
    # The sweep report digest depends on the bound: one per size.
    refs["sweep-k"]["report"] = {
        "8": refs["sweep-k"]["items"].pop("report"),
        "3": digests("sweep-k", SEEDS[0], "tiny")["report"],
    }
    refs["quantize-render"] = {
        str(seed): list(digests("quantize-render", seed).values()) for seed in SEEDS
    }
    (HERE / "references.json").write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
