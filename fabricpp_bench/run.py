#!/usr/bin/env python3
"""Builds and runs fabricpp_bench (see README.md).

  run.py --workload NAME --seed N --seconds S --trace 0|1 [binary flags]
      Builds into .bench_build/ if needed, then runs one workload in this
      process; the last stdout line is the JSON result.
  run.py --workload all --seed S [--repeat N] [--seconds S] --out R.json
         [--trace T.json]
      Runs every workload in its own process, N times with seeds S..S+N-1,
      and writes the metrics to R.json. --trace adds one traced run per
      workload: its per-layer metrics, the tracing overhead (traced minus
      untraced end-to-end metrics) and its span files go to T.json.
  run.py --compare BASE.json NEW.json
      Median and quartiles per (metric, workload), each judged against its
      allowance (the bound in BENCHMARK.json, or ABSOLUTE below): better,
      worse, same, or unresolved when the run-to-run spread exceeds the
      allowance. Exits 1 on any regression.
  run.py --smoke
      Every workload for 2 s plus one traced run; checks exit codes and that
      every metric named in BENCHMARK.json is reported.

  --binary PATH skips the build and runs PATH instead.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ["smallbank_hot", "smallbank_uniform", "ycsb_readmostly",
             "smallbank_socket"]
# Allowances in the metric's own unit, which BENCHMARK.json cannot state:
# its bounds are shares of the median. abort_ratio may rise by 0.02 whatever
# its median (near 0 on three workloads, so no share of it works); setup_s
# may worsen by 0.1 s where that is more than its share. A pair's allowance
# is the larger of the share and this amount.
ABSOLUTE = {"abort_ratio": {"better": "lower", "amount": 0.02},
            "setup_s": {"amount": 0.1}}


def build():
    """Configures and builds the benchmark with the root project's default
    build type (a no-op when up to date); the build output goes to stderr so
    stdout stays the benchmark's own."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(["cmake", "-S", str(ROOT / "fabricpp_bench"),
                    "-B", str(BUILD)] + generator,
                   check=True, env=env, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "fabricpp_bench", "-j", "4"],
                   check=True, env=env, stdout=sys.stderr)
    return str(BUILD / "fabricpp_bench")


def run_one(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, result JSON, printed metrics)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", *extra]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] == workload:
            printed[fields[1]] = float(fields[2])
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result, printed


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def run_all(args, binary):
    spec, e2e = bounds()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    runs, traced, failed = [], {}, False
    for seed in range(args.seed, args.seed + args.repeat):
        for workload in WORKLOADS:
            code, result, printed = run_one(binary, workload, seed,
                                            args.seconds, False)
            ok = code == 0 and result is not None and result["correct"]
            failed |= not ok
            runs.append({"workload": workload, "seed": seed, "correct": ok,
                         "metrics": printed})
            print(f"{workload} seed {seed}: {'ok' if ok else 'FAILED'}",
                  file=sys.stderr)
    Path(args.out).write_text(json.dumps(
        {"seconds": args.seconds, "runs": runs}, indent=1) + "\n")
    if args.trace:
        stem = Path(args.trace).resolve().with_suffix("")
        for workload in WORKLOADS:
            spans = f"{stem}.{workload}.spans.json"
            code, result, printed = run_one(binary, workload, args.seed,
                                            args.seconds, True,
                                            ["--spans", spans])
            failed |= code != 0 or result is None or not result["correct"]
            base = next(r["metrics"] for r in runs
                        if r["workload"] == workload and r["seed"] == args.seed)
            overhead = {m: printed[m] - base[m] for m in e2e
                        if m in printed and m in base}
            for metric, delta in overhead.items():
                print(f"{workload} overhead.{metric} {delta:+.6g} "
                      f"{e2e[metric]['unit']}")
            traced[workload] = {"metrics": printed, "overhead": overhead,
                                "spans": Path(spans).name}
        Path(args.trace).write_text(json.dumps(traced, indent=1) + "\n")
    return 1 if failed else 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def fmt(q):
    return "/".join(f"{v:.4g}" for v in q)


def compare(base_path, new_path):
    _, e2e = bounds()

    def load(path):
        table = {}
        for run in json.loads(Path(path).read_text())["runs"]:
            for metric, value in run["metrics"].items():
                table.setdefault((metric, run["workload"]), []).append(value)
        return table

    def allowance(metric, median):
        """(sign of a gain, allowed change in the metric's unit), or None."""
        spec = e2e.get(metric) or ABSOLUTE.get(metric)
        if spec is None:
            return None
        share = e2e.get(metric, {}).get("bound", 0.0) * abs(median)
        amount = ABSOLUTE.get(metric, {}).get("amount", 0.0)
        return (1 if spec["better"] == "higher" else -1), max(share, amount)

    base, new = load(base_path), load(new_path)
    regressions = 0
    print(f"{'metric':34s} {'workload':18s} {'base q1/med/q3':>30s} "
          f"{'new q1/med/q3':>30s} {'delta':>8s}  verdict")
    for key in sorted(base.keys() & new.keys()):
        metric, workload = key
        bq, nq = quartiles(base[key]), quartiles(new[key])
        delta = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        verdict = "-"
        rule = allowance(metric, bq[1])
        if rule is not None:
            sign, allowed = rule
            gain = sign * (nq[1] - bq[1])
            if max(q[2] - q[0] for q in (bq, nq)) > allowed:
                new_all_better = all(sign * (n - b) > 0
                                     for n in new[key] for b in base[key])
                verdict = "better" if new_all_better else "unresolved"
            elif gain < -allowed:
                verdict = "worse"
                regressions += 1
            elif gain > allowed:
                verdict = "better"
            else:
                verdict = "same"
        print(f"{metric:34s} {workload:18s} {fmt(bq):>30s} {fmt(nq):>30s} "
              f"{delta * 100:+7.2f}%  {verdict}")
    return 1 if regressions else 0


def smoke(binary):
    spec, _ = bounds()
    failures = []
    for workload, trace in [(w, False) for w in WORKLOADS] + [
            (WORKLOADS[0], True)]:
        code, result, _ = run_one(binary, workload, 1, 2, trace)
        wanted = spec["per_layer" if trace else "end_to_end"]
        missing = [m["name"] for m in wanted
                   if result is None or m["name"] not in result["metrics"]]
        if code != 0 or result is None or not result["correct"] or missing:
            failures.append(f"{workload} trace={int(trace)}: exit {code}, "
                            f"missing {missing}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    parser.add_argument("--trace")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary")
    args, extra = parser.parse_known_args()

    if args.compare:
        return compare(*args.compare)
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    if args.workload == "all" and not args.out:
        parser.error("--workload all needs --out")
    try:
        binary = args.binary or build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(binary)
    if args.workload == "all":
        return run_all(args, binary)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.trace is not None:
        cmd += ["--trace", args.trace]
    sys.stdout.flush()
    os.execv(binary, cmd + extra)


if __name__ == "__main__":
    sys.exit(main())
