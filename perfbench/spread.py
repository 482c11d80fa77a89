"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 perfbench/spread.py --workload scan --seeds 1-10 [--seconds 20]

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric the median and the interquartile range as a share of
the median (statistics.quantiles(values, n=4)), next to the metric's
bound and a third of it, which is the steadiness target.  The unscaled
wall-clock figures from each run's notes get the same statistics, for
comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        notes = json.loads(next(ln for ln in lines if ln.startswith("notes: "))[7:])
        for name, value in notes.items():
            if name.startswith("raw_"):
                values.setdefault(name, []).append(value)
        if not result["correct"]:
            print(f"seed {seed}: incorrect, {result['failed']} failed", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    for metric in bench["end_to_end"]:
        med, spread = median_spread(values[metric["name"]])
        print(f"{metric['name']:<14} median {med:.6g} {metric['unit']:<4} spread {spread:.4f} "
              f"bound {metric['bound']} target<{metric['bound'] / 3:.4f} "
              f"{'ok' if spread < metric['bound'] / 3 else 'WIDE'}")
    for name in sorted(v for v in values if v.startswith("raw_")):
        med, spread = median_spread(values[name])
        print(f"{name:<14} median {med:.6g} spread {spread:.4f} (unscaled, not bounded)")
    return 0


def median_spread(vals: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med


if __name__ == "__main__":
    sys.exit(main())
