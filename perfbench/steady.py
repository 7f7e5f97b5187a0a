#!/usr/bin/env python3
"""Steadiness self-check for the benchmark.

Runs the command from BENCHMARK.json on every workload, once per seed,
in two (or more) sets separated by a pause, and reports per workload and
end-to-end metric:

  spread  the inter-quartile range of a set's values over their median
          (statistics.quantiles(values, n=4)), worst set shown;
  drift   how much worse the later set's median is than the first's,
          as a share of the first (negative means it got better).

Both are compared with the metric's bound in BENCHMARK.json. `setup_s`
spread is reported but not held to its bound (only its drift is).

Run from the repository root:

  python3 perfbench/steady.py                    # 2 sets x 10 seeds, all workloads
  python3 perfbench/steady.py --seeds 5 --sets 1 --workloads apd_openloop

Exit status is 1 when a spread or drift exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    """One benchmark run; returns the parsed result object."""
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def drift(first, later, better):
    """Share by which `later` is worse than `first`."""
    m1, m2 = statistics.median(first), statistics.median(later)
    change = (m2 - m1) / m1
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", default="", help="comma list (default: all)")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--gap", type=float, default=60.0, help="pause between sets, s")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    # values[set][workload][metric] -> list over seeds
    values = []
    failures = 0
    for s in range(args.sets):
        if s:
            print(f"# pausing {args.gap:.0f} s before set {s + 1}", flush=True)
            time.sleep(args.gap)
        per_set = {}
        for w in workloads:
            per_set[w] = {m["name"]: [] for m in metrics}
            for seed in seeds:
                result = run_once(command, w, seed, seconds)
                if not result["correct"] or result["failed"]:
                    failures += 1
                    print(f"# {w} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']}", flush=True)
                for m in metrics:
                    per_set[w][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"#   {w} seed {seed}: " + " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                    for m in metrics), flush=True)
            print(f"# set {s + 1} {w}: " + ", ".join(
                f"{m['name']}={statistics.median(per_set[w][m['name']]):.6g}"
                for m in metrics), flush=True)
        values.append(per_set)

    ok = failures == 0
    print(f"{'workload':<15} {'metric':<16} {'bound':>6} {'spread':>8} {'drift':>8}  verdict")
    report = []
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            spreads = [spread(v[w][name]) for v in values]
            worst_spread = max(spreads)
            drifts = [drift(values[0][w][name], v[w][name], m["better"]) for v in values[1:]]
            worst_drift = max(drifts) if drifts else 0.0
            spread_ok = name == "setup_s" or worst_spread <= bound
            fine = spread_ok and worst_drift <= bound
            ok = ok and fine
            verdict = "ok" if fine else "OVER BOUND"
            if fine and name != "setup_s" and worst_spread > bound / 3:
                verdict = "ok (spread above a third of the bound)"
            print(f"{w:<15} {name:<16} {bound:>6.3f} {worst_spread:>8.4f} "
                  f"{worst_drift:>+8.4f}  {verdict}")
            report.append({"workload": w, "metric": name, "bound": bound,
                           "spread": worst_spread, "drift": worst_drift})
    print(json.dumps({"schema": "perfbench-steady/1", "seeds": len(seeds),
                      "sets": args.sets, "seconds": seconds, "failures": failures,
                      "rows": report}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
