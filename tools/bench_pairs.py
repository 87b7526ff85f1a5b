"""Run alternating parent/change pairs of the benchmark and write a BENCH file.

    python tools/bench_pairs.py --parent REV --out BENCH_17.json \\
        --title "what the change does" --seed-base 700 \\
        --claim episodic_proto:train_tokens_per_s

Both sides are extracted with ``git archive`` from the local repository into
a temporary directory: the parent from ``--parent`` and the change from
``--change`` (default HEAD), so only committed files are measured. Pair i
(1-based) of 10 runs each tree's own ``perfbench/run.py --workload all
--seed S --seconds T --trace 0`` with S = seed base + i and T the change's
``BENCHMARK.json`` ``run_seconds``, the parent first in odd pairs and the
change first in even ones.

The output follows BENCH_15.json's layout: per workload and end-to-end
metric each side's median and quartiles, the pairs the change wins and the
verdict of the change tree's ``perfbench/compare.py``; failed and attempted
operations; the exit code ``compare.py`` would give (1 when a verdict is
"worse"); the machine's core count, Python, numpy and BLAS versions; and the
line count of ``src/fewner/*.py`` in each tree; the digest result: before
the pairs, the change tree's ``tools/output_digests.py --src`` digests each
tree's ``src/`` in a subprocess, and the file records how many outputs are
identical, of how many, and the names of those that differ; and the tier-1
time: after the digests, each tree runs its tier-1 suite (``python -m pytest
-q --continue-on-collection-errors`` with ``src`` on ``PYTHONPATH``) 3 times,
the trees alternating. Every run draws its Hypothesis examples from one seed
(``--hypothesis-seed``, the seed base) and starts without a ``.hypothesis``
example database, so both trees' unseeded property tests run the same
examples each time. The file records each tree's wall seconds per run
with their median, its test count and the 10 slowest tests of its last run
(``--durations=10``). Beside them it records the pytest session's seconds,
raw and scaled to a reference CPU speed: the change tree's
``tools/tier1_probe.py`` pytest plugin runs its ``perfbench/speed.py`` probe
inside the suite's own process, right when the session starts and ends and
every 0.1 s during it, and reports the session's seconds and their scaled
value.
A failed digest run or a failed suite exits 1 and writes no file.
``compare.py`` pairs runs by start order, so when a workload of the change's
``BENCHMARK.json`` lacks a record of some run on either side, the tool also
exits 1 and writes no file. Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from output_digests import REPO, digest_result, digest_trees, extract, package_lines
from tier1_probe import PREFIX, load_perfbench

SIDES = ("parent", "change")
PAIRS = 10  # the fewest pairs a claimed gain is judged on
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10")
PROBE = ("-p", "tier1_probe")  # tools/tier1_probe.py, with tools/ on PYTHONPATH
TIER1_RUNS = 3
# a --durations line: seconds, phase, test id
DURATION = re.compile(r"^(\d+\.\d+)s (setup|call|teardown) +(.+)$", re.M)


def commit_id(rev: str) -> str:
    commit = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True,
    )
    if commit.returncode:
        raise SystemExit(commit.stderr.strip())
    return commit.stdout.strip()


def run_pair(trees: dict[str, Path], order, seed: int, seconds: float) -> None:
    for side in order:
        argv = [sys.executable, "perfbench/run.py", "--workload", "all"]
        argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=trees[side], capture_output=True, text=True)
        # a failed output check still writes its records and is counted from them
        status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
        print(f"seed {seed} {side}: {status}", file=sys.stderr, flush=True)


def tier1_times(trees: dict[str, Path], hypothesis_seed: int) -> dict | None:
    """Each tree's wall seconds over TIER1_RUNS runs of its tier-1
    suite, the parent first in odd runs, with the session seconds and their
    scaled values from the change tree's probe plugin in the suite's
    process, their medians, its test count and the slowest tests of its
    last run; every run has one Hypothesis seed and no example database.
    None if a run fails."""
    path = ("src", str(trees["change"] / "tools"), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = [sys.executable, *TIER1, *PROBE, f"--hypothesis-seed={hypothesis_seed}"]
    fields = ("wall_s", "session_s", "scaled_s")
    record = {side: {field: [] for field in fields} for side in SIDES}
    for i in range(TIER1_RUNS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            shutil.rmtree(trees[side] / ".hypothesis", ignore_errors=True)
            start = time.perf_counter()
            proc = subprocess.run(argv, cwd=trees[side], env=env, capture_output=True, text=True)
            wall = time.perf_counter() - start
            summary = (proc.stdout.strip().splitlines() or [""])[-1]
            print(f"tier-1 {side}: {summary}", file=sys.stderr, flush=True)
            if proc.returncode:
                return None
            probe = json.loads(re.search(f"^{PREFIX}(.+)$", proc.stdout, re.M)[1])
            values = (wall, probe["session_s"], probe["scaled_s"])
            for field, value in zip(fields, values):
                record[side][field].append(value)
            record[side]["tests"] = int(re.search(r"(\d+) passed", summary)[1])
            record[side]["slowest"] = [
                {"test": test, "phase": phase, "s": float(s)}
                for s, phase, test in DURATION.findall(proc.stdout)
            ]
    for runs in record.values():
        for field in fields:
            runs[f"median_{field}"] = statistics.median(runs[field])
    return record


def missing_runs(workloads, records: dict[str, dict]) -> list[str]:
    """The workloads and sides with fewer than PAIRS records."""
    return [
        f"{workload} {side}: {n} of {PAIRS} runs"
        for workload in workloads
        for side in SIDES
        if (n := len(records[side].get(workload, ()))) != PAIRS
    ]


def summarize(compare, spec: dict, records: dict[str, dict]) -> dict:
    """Per workload: runs, operations and each metric's quartiles, wins and verdict."""
    workloads = {}
    for workload in sorted(set(records["parent"]) & set(records["change"])):
        runs = {side: records[side][workload] for side in SIDES}
        metrics = {}
        for m in spec["end_to_end"]:
            values = {s: [r["metrics"][m["name"]]["value"] for r in runs[s]] for s in SIDES}
            lower = m["better"] == "lower"
            share, verdict = compare.verdict(values["parent"], values["change"], m["bound"], lower)
            pairs = min(len(v) for v in values.values())
            sides = {}
            for s in SIDES:
                q1, median, q3 = compare.quartiles(values[s])
                sides[s] = {"q1": q1, "median": median, "q3": q3}
            metrics[m["name"]] = {
                "unit": m["unit"],
                **sides,
                "change_wins": f"{round(share * pairs)}/{pairs}",
                "verdict": verdict,
            }
        workloads[workload] = {
            "runs": {s: len(runs[s]) for s in SIDES},
            "failed_operations": {s: sum(len(r["failures"]) for r in runs[s]) for s in SIDES},
            "attempted_operations": {s: sum(r["attempted"] for r in runs[s]) for s in SIDES},
            "metrics": metrics,
        }
    return workloads


def environment(records: dict[str, list[dict]]) -> dict:
    env = next(iter(records.values()))[0]["environment"]
    return {
        "cpu_count": env["nproc"],
        "numpy": env["numpy"],
        "python": env["python"],
        "blas": env["blas"],
        "blas_threads": int(env["blas_threads"]["OPENBLAS_NUM_THREADS"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--change", default="HEAD", metavar="REV")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument("--title", required=True, help="one line saying what the change does")
    parser.add_argument("--seed-base", type=int, required=True, help="pair i runs seed base + i")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the metric the change claims")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp, side) for side in SIDES}
        revs = {"parent": args.parent, "change": args.change}
        commits = {side: commit_id(revs[side]) for side in SIDES}
        for side in SIDES:
            extract(commits[side], trees[side])
        script = trees["change"] / "tools" / "output_digests.py"
        digests = digest_result(*digest_trees(script, *(trees[side] / "src" for side in SIDES)))
        tier1 = tier1_times(trees, args.seed_base)
        if tier1 is None:
            print("no BENCH file written; a tier-1 suite failed", file=sys.stderr)
            return 1
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = spec["run_seconds"]
        seeds = [args.seed_base + i for i in range(1, PAIRS + 1)]
        for i, seed in enumerate(seeds, 1):
            run_pair(trees, SIDES if i % 2 else SIDES[::-1], seed, seconds)
        compare = load_perfbench(trees["change"], "compare")
        results = {side: trees[side] / "perfbench" / "results" for side in SIDES}
        records = {side: compare.load_records(results[side]) for side in SIDES}
        lines = {side: package_lines(trees[side] / "src") for side in SIDES}

    missing = missing_runs([w["name"] for w in spec["workloads"]], records)
    if missing:
        print("no BENCH file written; runs are missing:", *missing, sep="\n", file=sys.stderr)
        return 1
    workloads = summarize(compare, spec, records)
    verdicts = [m["verdict"] for w in workloads.values() for m in w["metrics"].values()]
    bench = {
        "change": args.title,
        "command": (
            f"python3 perfbench/run.py --workload all --seed S --seconds {seconds:g} "
            f"--trace 0 (S = {args.seed_base} + pair number, {seeds[0]}-{seeds[-1]})"
        ),
        "pairs": (
            f"{PAIRS} alternating parent/change pairs (parent first in odd pairs), "
            "same seed on both sides of a pair, written by tools/bench_pairs.py"
        ),
        "verdicts": "python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS",
        "parent_commit": commits["parent"][:7],
        "change_commit": commits["change"][:7],
        "environment": environment(records["change"]),
        "workloads": workloads,
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        verdict = workloads[workload]["metrics"][metric]["verdict"]
        bench["claimed"] = {"workload": workload, "metric": metric, "compare_verdict": verdict}
    bench["compare_exit_code"] = int("worse" in verdicts)
    bench["src_lines"] = lines
    bench["digests"] = digests
    bench["tier1"] = {
        "command": (
            f"PYTHONPATH=src:tools python {' '.join(TIER1 + PROBE)} "
            f"--hypothesis-seed={args.seed_base}"
        ),
        "runs": (
            f"{TIER1_RUNS} per tree, alternating, the parent first, "
            "each without a .hypothesis directory"
        ),
        "scaled": (
            "seconds x perfbench/speed.py's REFERENCE_S / the probe's mean over the "
            "session, the probe taken in the suite's process by tools/tier1_probe.py"
        ),
        **tier1,
    }
    Path(args.out).write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}: {verdicts.count('worse')} verdicts worse", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
