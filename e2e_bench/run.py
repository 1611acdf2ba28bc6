#!/usr/bin/env python3
"""End-to-end benchmark for cubist.

Builds the `cubist_e2e` program from this checkout's sources (Release, into
.bench_build/), runs one workload, checks its answers and prints every
metric. The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json for --trace 0, its per-layer metrics for --trace 1. Each
run's full record is appended to .bench_results/results.jsonl (or
--results FILE), which compare mode reads.

  python3 e2e_bench/run.py --workload build --seed 1 --seconds 10 --trace 0
  python3 e2e_bench/run.py --workload all --seed 1            # all three
  python3 e2e_bench/run.py --self-test
  python3 e2e_bench/run.py --compare parent.jsonl change.jsonl

Exit status is non-zero on any build failure, exception or wrong answer.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cubist_e2e"
RESULTS_DIR = ROOT / ".bench_results"
WORKLOADS = ("build", "serve-zipf", "serve-shift")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_binary():
    """Configures and builds cubist_e2e; returns its path, or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: no cubist sources at", ROOT / "src")
        return None
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "cubist_e2e",
                  "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout is reserved for results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed:", " ".join(cmd))
            return None
    return BUILD_DIR / "cubist_e2e"


def run_binary(binary, workload, seed, seconds, trace, extra=(), echo=True):
    """Runs one workload; returns (exit code, full record or None, the
    human-readable lines before it)."""
    out_dir = RESULTS_DIR / ("selftest" if "--tiny" in extra else "")
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out", str(out_dir), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    record = None
    if lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = None
    return proc.returncode, record, lines[:-1]


def contract_metrics(record, names):
    """The named metrics as {name: {value, unit}}; KeyError if one is
    missing."""
    return {name: {"value": record["metrics"][name]["value"],
                   "unit": record["metrics"][name]["unit"]} for name in names}


def result_line(record, metrics):
    correct = bool(record["correct"]) and record["failed"] == 0
    return json.dumps({"correct": correct,
                       "attempted": int(record["attempted"]),
                       "failed": int(record["failed"]),
                       "metrics": metrics})


def append_result(path, record):
    path.parent.mkdir(parents=True, exist_ok=True)
    record = dict(record, host_cores=os.cpu_count())
    with open(path, "a") as f:
        f.write(json.dumps(record) + "\n")


def cmd_run(args, spec):
    binary = build_binary()
    if binary is None:
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[section]]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        rc, record, _ = run_binary(binary, workload, args.seed, args.seconds,
                                   args.trace)
        if record is None:
            log(f"run.py: {workload} printed no result (exit {rc})")
            return rc or 1
        append_result(args.results, record)
        try:
            metrics = contract_metrics(record, names)
        except KeyError as missing:
            log(f"run.py: {workload} did not report metric {missing}")
            return 1
        if rc != 0 or record["failed"] != 0:
            status = rc or 1
        if len(workloads) == 1:
            print(result_line(record, metrics))
        else:
            print(f"{workload}: {result_line(record, metrics)}")
            combined["correct"] &= bool(record["correct"])
            combined["attempted"] += int(record["attempted"])
            combined["failed"] += int(record["failed"])
            for name, value in metrics.items():
                combined["metrics"][f"{workload}/{name}"] = value
    if len(workloads) > 1:
        print(json.dumps(combined))
    return status


def cmd_self_test(spec):
    """Tiny shapes: every named metric prints with its unit, the traced
    table adds up, and a planted wrong answer is caught."""
    binary = build_binary()
    if binary is None:
        return 2
    failures = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        stem = RESULTS_DIR / "selftest" / f"{workload}-s1"
        for path in (Path(f"{stem}.trace.json"), Path(f"{stem}.layers.txt")):
            path.unlink(missing_ok=True)
        for trace in (0, 1):
            section = "per_layer" if trace else "end_to_end"
            rc, record, lines = run_binary(binary, workload, 1, 1, trace,
                                           extra=("--tiny",), echo=False)
            tag = f"{workload} trace={trace}"
            expect(rc == 0 and record is not None and record["failed"] == 0
                   and record["attempted"] > 0,
                   f"{tag}: clean run (exit {rc})")
            if record is None:
                continue
            table = {line.split()[0]: line.split()[2] for line in lines
                     if len(line.split()) >= 3}
            for metric in spec[section]:
                name, unit = metric["name"], metric["unit"]
                got = record["metrics"].get(name)
                expect(got is not None and got["unit"] == unit
                       and table.get(name) == unit,
                       f"{tag}: {name} printed in {unit}")
            if trace:
                m = record["metrics"]
                rows = sum(v["value"] for k, v in m.items()
                           if k.startswith("self.") and k != "self.total_s")
                total = m["self.total_s"]["value"]
                expect(total > 0 and abs(rows - total) <= 1e-6 * total + 1e-9,
                       f"{tag}: layer rows + unattributed = traced total")
                expect(Path(f"{stem}.trace.json").is_file()
                       and Path(f"{stem}.layers.txt").is_file(),
                       f"{tag}: trace and layer table written")
        rc, record, _ = run_binary(binary, workload, 1, 1, 0,
                                   extra=("--tiny", "--plant-error"),
                                   echo=False)
        expect(rc != 0 and record is not None and not record["correct"]
               and record["failed"] > 0,
               f"{workload}: planted wrong answer is reported as an error")
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(path, end_to_end):
    """{(workload, metric): ([values], better)}; end-to-end metrics only
    from untraced runs, per-layer metrics from traced runs."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, m in record["metrics"].items():
                if (name in end_to_end) == bool(record["trace"]):
                    continue
                key = (record["workload"], name)
                runs.setdefault(key, ([], m["better"]))[0].append(m["value"])
    return runs


def cmd_compare(base_path, new_path, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base = load_runs(base_path, bounds)
    new = load_runs(new_path, bounds)
    header = (f"{'workload':<12} {'metric':<30} {'base q1/med/q3':>34} "
              f"{'new q1/med/q3':>34} {'change':>8} {'bound':>6}  verdict")
    print(header)
    regressions = 0
    for key in sorted(set(base) & set(new)):
        bvals, better = base[key]
        nvals, _ = new[key]
        bq1, bmed, bq3 = quartiles(bvals)
        nq1, nmed, nq3 = quartiles(nvals)
        if bmed == 0:
            continue
        sign = 1 if better == "lower" else -1
        worse = sign * (nmed - bmed) / abs(bmed)  # > 0: the change is worse
        bound = bounds.get(key[1])
        if bound is None:
            verdict = "-"
        elif (bq3 - bq1) / abs(bmed) > bound:
            all_better = all(sign * (n - b) < 0 for n in nvals for b in bvals)
            verdict = "better" if all_better else "unresolved"
        elif worse > bound:
            verdict = "WORSE"
            regressions += 1
        elif worse < -bound:
            verdict = "better"
        else:
            verdict = "ok"
        print(f"{key[0]:<12} {key[1]:<30} "
              f"{bq1:>10.4g}/{bmed:>10.4g}/{bq3:>10.4g} "
              f"{nq1:>10.4g}/{nmed:>10.4g}/{nq3:>10.4g} "
              f"{worse:>+8.3f} {bound if bound is not None else '-':>6}  "
              f"{verdict}")
    print(f"compare: {regressions} metric(s) worse than their bound")
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path,
                        default=RESULTS_DIR / "results.jsonl")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BASE", "NEW"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        return cmd_compare(*args.compare, spec)
    if args.self_test:
        return cmd_self_test(spec)
    if not args.workload:
        parser.error("--workload, --self-test or --compare is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return cmd_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
