"""qtransversal benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli-cold,scan,certify} --seed N \\
        --seconds S --trace {0,1}

With --trace 0 the run sets up five times, each time importing the
library afresh (median reported as setup_s), repeats whole rounds of the
workload's ops until S seconds have passed, gates every op's result and
prints every end-to-end metric over the fastest timing of each op, in
nominal seconds (see hostspeed).  With --trace 1 it runs set-up once and
one round three times (untraced, then traced twice), in raw seconds,
prints every per-layer metric, and fails its self-check if a wrapper
predicted to fire stays silent or the exact counts of the two traced
rounds differ.  The last line of standard output is always
{"correct", "attempted", "failed", "metrics"}; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import signal
import statistics
import sys
import time
from pathlib import Path

import hostspeed

SETUP_REPEATS = 5
OUT_DIR = ".perfbench_out"
ROOT = Path(__file__).resolve().parent.parent

# Units of the printed metrics that BENCHMARK.json does not bound.
EXTRA_UNITS = {
    "qrado_pairs_per_s": "1/s",
    "uniqueness_families_per_s": "1/s",
    "repr_instances_per_s": "1/s",
    "error_rate": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli-cold", "scan", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_round(wl, tracer=None):
    """One round with the cyclic garbage collector paused, as timeit does:
    a collection's pause depends on the whole heap, the benchmark's own
    data included, and lands on whichever op happens to trigger it."""
    gc.collect()
    gc.disable()
    try:
        return wl.run_round(tracer)
    finally:
        gc.enable()


def timed_phase(wl, seconds: int):
    """Whole rounds, closed loop, until the time is up.  The host's speed
    is sampled in this process only if the ops run in it."""
    ops = []
    rounds = 0
    if wl.in_process:
        hostspeed.SAMPLER.start()
    try:
        start = time.perf_counter()
        while True:
            ops += run_round(wl)
            rounds += 1
            if time.perf_counter() - start >= seconds:
                return ops, rounds
    finally:
        hostspeed.SAMPLER.stop()


def fresh_setup(workload: str, seed: int):
    """Import the library afresh and set the workload up; returns the
    workload and the raw and nominal seconds both took."""
    for name in list(sys.modules):
        if name in ("qtransversal", "workloads") or name.startswith("qtransversal."):
            del sys.modules[name]
    gc.collect()  # free the previous set-up's modules and lattices now
    mark = hostspeed.SAMPLER.clock()
    workloads = importlib.import_module("workloads")  # imports qtransversal
    wl = workloads.WORKLOADS[workload](ROOT, seed)
    wl.setup()
    raw_s, nominal_s = hostspeed.SAMPLER.elapsed(mark)
    return wl, raw_s, nominal_s


def untraced_run(args):
    raw_setups, setups = [], []
    with hostspeed.SAMPLER:
        for _ in range(SETUP_REPEATS):
            wl, raw_s, nominal_s = fresh_setup(args.workload, args.seed)
            raw_setups.append(raw_s)
            setups.append(nominal_s)
    try:
        ops, rounds = timed_phase(wl, args.seconds)
        rss = wl.peak_rss_mb()
        failures = wl.gate(ops)
    finally:
        wl.close()
    best = wl.fastest(ops)
    latencies = [op.latency_s for op in best]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": wl.ops_per_s(best),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": rss,
        **wl.rates(best),
        "error_rate": len(failures) / len(ops),
    }
    kinds = sorted({op.kind for op in best})
    raw = [op.raw_s for op in best]
    notes = {
        "rounds": rounds,
        "ops": len(ops),
        "latency_samples": len(latencies),
        "setup_runs_s": setups,
        "op_p50_s_by_kind": {
            k: statistics.median(op.latency_s for op in best if op.kind == k) for k in kinds
        },
        # Unscaled wall-clock seconds of the same ops, and the host's speed
        # over them in nominal seconds per raw second.
        "host_speed": sum(latencies) / sum(raw),
        "raw_setup_s": statistics.median(raw_setups),
        "raw_ops_per_s": wl.ops_per_s(best) * statistics.fmean(
            op.latency_s / op.raw_s for op in best
        ),
        "raw_op_p50_s": statistics.median(raw),
        "raw_op_p90_s": statistics.quantiles(raw, n=10, method="inclusive")[8],
        **wl.counts(ops),
    }
    return ops, failures, metrics, notes


def traced_run(args, names: list[str], spans_path: Path):
    import workloads
    from spans import Tracer, exact_counts, layer_metrics, missed_predictions

    def traced(fn):
        tracer = Tracer()
        tracer.install()
        try:
            return tracer, fn(tracer)
        finally:
            tracer.uninstall()

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    try:
        t_setup, _ = traced(lambda _: wl.setup())
        plain = run_round(wl)
        t1, ops1 = traced(lambda t: run_round(wl, t))
        t2, ops2 = traced(lambda t: run_round(wl, t))
        ops = plain + ops1 + ops2
        failures = wl.gate(ops)
    finally:
        wl.close()
    report = Tracer()
    report.merge(t_setup.to_jsonable())
    report.merge(t1.to_jsonable())
    missed = missed_predictions(report, wl.name)
    if missed:
        failures.append(f"self-check: predicted wrappers recorded no call: {missed}")
    c1, c2 = exact_counts(t1), exact_counts(t2)
    if c1 != c2:
        diff = sorted(k for k in set(c1) | set(c2) if c1.get(k) != c2.get(k))
        failures.append(f"self-check: exact counts differ between traced rounds: {diff}")
    overheads = [op.extra["overhead_s"] for op in ops1 if "overhead_s" in op.extra]
    extra = {
        "trace.overhead_ratio": 1 - wl.ops_per_s(ops1) / wl.ops_per_s(plain),
        "cli.process_overhead_s": statistics.median(overheads) if overheads else 0.0,
        "cli.output_bytes": sum(op.extra.get("output_bytes", 0) for op in ops1),
    }
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(
        json.dumps({"setup": t_setup.to_jsonable(), "traced_round": t1.to_jsonable()})
    )
    notes = {"ops": len(ops), "spans_file": str(spans_path.relative_to(ROOT))}
    return ops, failures, layer_metrics(report, names, extra), notes


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # a running CLI child on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    src = ROOT / "src"
    if not (src / "qtransversal" / "__init__.py").is_file():
        print(f"perfbench: no qtransversal sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import qtransversal

    if Path(qtransversal.__file__).resolve().parent != src / "qtransversal":
        print(f"perfbench: imported qtransversal from {qtransversal.__file__}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "loadavg_before": os.getloadavg(),
    }
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    wanted = [m["name"] for m in declared]
    units = {m["name"]: m["unit"] for m in declared} | EXTRA_UNITS
    if args.trace:
        spans_path = ROOT / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        ops, failures, metrics, notes = traced_run(args, wanted, spans_path)
    else:
        ops, failures, metrics, notes = untraced_run(args)
    record["loadavg_after"] = os.getloadavg()
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise RuntimeError(f"benchmark does not compute {missing}")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>16.6g} {units[name]}")
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    print("notes: " + json.dumps(notes, sort_keys=True))
    print("run record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
