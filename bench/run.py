"""Benchmark of the gotzmann package; see bench/README.md.

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that has ``src/gotzmann`` and
``BENCHMARK.json``.  Prints each metric with its unit, then the run record
as one JSON line, then the result as the last line: a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, where the metrics are
BENCHMARK.json's ``end_to_end`` list (``--trace 0``) or its ``per_layer``
list (``--trace 1``).  Exits 2 when the checkout lacks the program.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 11
# A fresh interpreter per sample, so every import is cold, as for a CLI user.
IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import gotzmann; "
    "print(time.perf_counter() - t)"
)


def measure_setup() -> tuple[float, float, list[float]]:
    """Median time to import gotzmann in a fresh interpreter, at the
    reference host speed and raw, and the raw samples."""
    host = HostSpeed()
    samples = []
    for _ in range(SETUP_SAMPLES):
        host.sample()
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(out.stdout))
    raw = statistics.median(samples)
    return raw * host.scale(), raw, samples


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 1024


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def host() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the gotzmann package.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 for the traced per-layer run")
    parser.add_argument("--record", help="also write the run record to this file")
    args = parser.parse_args(argv)

    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read {SPEC.name}: {exc}", file=sys.stderr)
        return 2
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(whys)}")
    if not (SRC / "gotzmann" / "__init__.py").is_file():
        print(f"bench: no program at {SRC / 'gotzmann'}", file=sys.stderr)
        return 2

    metrics: dict[str, tuple[float, str]] = {}
    setup_samples = None
    if not args.trace:
        setup_s, raw_setup_s, setup_samples = measure_setup()
        metrics["setup_s"] = (setup_s, "s")
        metrics["raw_setup_s"] = (raw_setup_s, "s")

    import workloads  # imports gotzmann from SRC, so only once SRC is known to hold it

    if not Path(workloads.certifier.__file__).resolve().is_relative_to(SRC):
        print(f"bench: gotzmann imported from outside {SRC}", file=sys.stderr)
        return 2
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics.update(outcome.metrics)
    if not args.trace:
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if metrics.get(m["name"], (0, None))[1] != m["unit"]]
    if missing:
        print(f"bench: metrics not measured in {SPEC.name}'s units: {missing}", file=sys.stderr)
        return 1
    tally = outcome.tally
    record = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "host": host(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "first_error": tally.first_error,
        "setup_samples_s": setup_samples,
        **outcome.details,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:9} {name:48} {value:>16.6g} {unit}")
    print(json.dumps(record, sort_keys=True))
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
