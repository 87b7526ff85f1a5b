#!/usr/bin/env python3
"""fewner benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload fewshot_lc --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout this file sits in. One
process runs one workload as a single closed-loop client (each iteration
starts when the previous one has finished), with numpy's BLAS pinned to one
thread. The inputs are set up several times and the median set-up time is
reported; then iterations repeat until ``--seconds`` have passed. Every time
is scaled to a reference CPU speed (speed.py); a run's time is the sum over
its timed parts of each part's median over the iterations. ``--trace 1``
alternates untraced and traced iterations and reports the per-layer metrics
of tracer.py instead.

Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A full
record (environment, per-iteration values, quartiles) is written to
``perfbench/results/``; ``compare.py`` reads those records. The exit code is
0 only when every output check passed.
"""

from __future__ import annotations

import os

# one BLAS thread for this process; must be set before numpy is imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"
WORKLOAD_NAMES = ("fewshot_lc", "episodic_proto", "cli_infer")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("train_s", "s"),
    ("infer_s", "s"),
    ("train_tokens_per_s", "tokens/s"),
    ("infer_tokens_per_s", "tokens/s"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Import fewner from this checkout's src/, never from anywhere else."""
    package = SRC / "fewner" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: no program to measure: {package} is missing")
    sys.path.insert(0, str(SRC))
    import fewner

    if Path(fewner.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported fewner from {fewner.__file__}, not {package}")


def git_commit() -> str | None:
    """HEAD's commit id, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(f" {name}"):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "fewner").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = None
    show_config = getattr(np, "show_config", None)
    try:
        config = show_config(mode="dicts") if show_config else None
        blas = config["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "machine": platform.machine(),
    }


def spread(values: list[float]) -> dict:
    """Median, quartiles and count, the way every timing is reported."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def timed_iteration(workload):
    start = time.perf_counter()
    it = workload.run()
    it.wall_s = time.perf_counter() - start
    return it


def part_time(times: dict[str, float], part: str | None) -> float:
    return sum(v for k, v in sorted(times.items()) if part is None or k.endswith(f"/{part}"))


def typical(iterations: list, part: str | None = None) -> float:
    """Sum over timed parts (of one kind, or all) of each part's median
    time at reference speed over the run's iterations."""
    keys = sorted({k for it in iterations for k in it.scaled})
    median = {k: statistics.median(it.scaled[k] for it in iterations if k in it.scaled) for k in keys}
    return part_time(median, part)


def end_to_end(setup_times: list[float], iterations: list) -> dict[str, dict]:
    """Each metric's reported value plus the median, quartiles and count of
    its per-iteration values. Times are at reference speed (speed.py)."""
    it0 = iterations[0]
    parts = {"run_s": None, "train_s": "train", "infer_s": "infer"}
    per_iteration = {
        name: [part_time(it.scaled, p) for it in iterations] for name, p in parts.items()
    }
    per_iteration["train_tokens_per_s"] = [
        it0.train_tokens / s if s else 0.0 for s in per_iteration["train_s"]
    ]
    per_iteration["infer_tokens_per_s"] = [
        it0.infer_tokens / s if s else 0.0 for s in per_iteration["infer_s"]
    ]
    value = {name: typical(iterations, p) for name, p in parts.items()}
    value["train_tokens_per_s"] = it0.train_tokens / value["train_s"] if value["train_s"] else 0.0
    value["infer_tokens_per_s"] = it0.infer_tokens / value["infer_s"] if value["infer_s"] else 0.0
    value["setup_s"] = statistics.median(setup_times)
    per_iteration["setup_s"] = setup_times
    # ru_maxrss is in KiB on Linux
    value["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_iteration["peak_rss_mb"] = [value["peak_rss_mb"]]
    return {
        name: {"value": value[name], **spread(per_iteration[name])} for name, _ in END_TO_END
    }


def run_workload(args) -> int:
    import_program()
    import workloads
    from speed import SpeedMeter
    from tracer import Tracer, per_layer_names

    env = environment(args.seed)
    meter = SpeedMeter()
    workload = workloads.WORKLOADS[args.workload](meter)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    started = time.time()
    with meter.running():
        try:
            setup_raw, setup_times = [], []
            for _ in range(workload.setups):
                with meter.timed() as timing:
                    workload.setup(args.seed, workdir)
                setup_raw.append(timing.seconds)
                setup_times.append(timing.scaled)
            workload.prepare()

            tracer = Tracer() if args.trace else None
            plain, traced, layers = [], [], []
            attempted, failures = 0, []
            loop_start = time.perf_counter()
            while True:
                if tracer is not None and len(traced) < len(plain):
                    with tracer:
                        it = timed_iteration(workload)
                    traced.append(it)
                    layers.append(tracer.summary(it.linear_train_tokens))
                    attempted += 1
                    counts = {k: v for k, v in layers[-1].items() if not k.endswith("self_s")}
                    first = {k: v for k, v in layers[0].items() if not k.endswith("self_s")}
                    if counts != first:
                        failures.append("trace: calls/tokens differ between traced iterations")
                else:
                    it = timed_iteration(workload)
                    plain.append(it)
                attempted += it.attempted
                failures += it.failures
                done = time.perf_counter() - loop_start >= args.seconds
                if done and (tracer is None or traced):
                    break
        finally:
            workload.cleanup()

    summary = end_to_end(setup_times, plain)
    f1 = plain[0].f1
    metrics: dict[str, dict] = {}
    if tracer is None:
        for name, unit in END_TO_END:
            metrics[name] = {"value": summary[name]["value"], "unit": unit}
    else:
        per_layer = dict(layers[0])
        for key in per_layer:
            if key.endswith("self_s"):
                per_layer[key] = statistics.median(layer[key] for layer in layers)
        per_layer["trace.overhead_ratio"] = typical(traced) / typical(plain)
        per_layer["quality.f1"] = statistics.fmean(f1.values()) if f1 else 0.0
        for name, unit in per_layer_names():
            metrics[name] = {"value": per_layer[name], "unit": unit}

    failed = len(failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "environment": env,
        "setup_seconds": setup_raw,
        "setup_scaled": setup_times,
        "iterations": [iteration_record(it) for it in plain],
        "traced_iterations": [iteration_record(it) for it in traced],
        "end_to_end": summary,
        "f1": f1,
        "absent": tracer.absent if tracer else [],
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.npz")

    print_report(record)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def iteration_record(it) -> dict:
    return {k: v for k, v in vars(it).items() if k != "meter"}


def print_report(record: dict) -> None:
    env = record["environment"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"blas={env['blas']} threads=1 commit={env['git_commit']}"
    )
    row = "{:44} {:>12} {:>12} {:>12} {:>12} {:>4}  {}"
    print(row.format("metric", "value", "median", "q1", "q3", "n", "unit"))
    units = dict(END_TO_END)
    for name, s in record["end_to_end"].items():
        cells = [f"{s[k]:.6g}" for k in ("value", "median", "q1", "q3")]
        print(row.format(name, *cells, s["n"], units[name]))
    if record["trace"]:
        for name, m in record["metrics"].items():
            layer_fn = name.rsplit(".", 1)[0]
            shown = "absent" if layer_fn in record["absent"] else f"{m['value']:.6g}"
            print(row.format(name, shown, "", "", "", "", m["unit"]))
    f1 = " ".join(f"{k}={v:.4f}" for k, v in record["f1"].items())
    print(f"f1: {f1}")
    print(f"fail_ratio: {len(record['failures'])}/{record['attempted']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not lines:
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
