#!/usr/bin/env python3
"""Runs the benchmark repeatedly and judges its steadiness.

Run from the repository root:

  python3 perfbench/steadiness.py run --seeds 1-10 --out a.json [--workloads solve-hot,...]
  python3 perfbench/steadiness.py report a.json [b.json]

`run` makes one benchmark run per workload and seed (trace 0) and stores
every run's JSON result. `report` prints, per workload and end-to-end
metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json
and against a third of it; given a second set it also prints the gap
between the two sets' medians, signed so that positive means the second
set is worse. The spread of setup_s is printed but not judged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            seeds.extend(range(int(a), int(b) + 1))
        else:
            seeds.append(int(part))
    return seeds


def cmd_run(args):
    bench = load_benchmark()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    results = {"seconds": seconds, "runs": []}
    for name in names:
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            t = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - t
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.stderr.write(p.stdout[-3000:] + p.stderr[-3000:])
                sys.exit(f"run {name} seed {seed} failed with code {p.returncode}")
            res = json.loads(lines[-1])
            res.update(workload=name, seed=seed, wall_s=round(wall, 1))
            results["runs"].append(res)
            vals = " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items()))
            print(f"{name} seed={seed} wall={wall:.0f}s failed={res['failed']} {vals}", flush=True)
            with open(args.out, "w") as f:
                json.dump(results, f, indent=1)


def summarize(runs, workload, metric):
    vals = sorted(r["metrics"][metric]["value"] for r in runs
                  if r["workload"] == workload and metric in r["metrics"])
    if len(vals) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return {"n": len(vals), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def cmd_report(args):
    bench = load_benchmark()
    sets = []
    for path in args.sets:
        with open(path) as f:
            sets.append(json.load(f)["runs"])
    within_bound = within_third = True
    for w in [w["name"] for w in bench["workloads"]]:
        print(f"## {w}")
        print("| metric | bound | " + " | ".join(
            f"set {i + 1}: median [q1, q3] spread" for i in range(len(sets))) +
              (" | median gap |" if len(sets) == 2 else " |"))
        print("|---|---|" + "---|" * len(sets) + ("---|" if len(sets) == 2 else ""))
        for m in bench["end_to_end"]:
            cells = []
            stats = []
            for runs in sets:
                s = summarize(runs, w, m["name"])
                stats.append(s)
                if s is None:
                    cells.append("-")
                    continue
                flag = ""
                if m["name"] != "setup_s" and s["spread"] > m["bound"]:
                    flag = " **over bound**"
                    within_bound = within_third = False
                elif m["name"] != "setup_s" and s["spread"] >= m["bound"] / 3:
                    flag = " *over bound/3*"
                    within_third = False
                cells.append(f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] {100 * s['spread']:.1f}%{flag}"
                             + f" (n={s['n']})")
            row = f"| {m['name']} | {m['bound']} | " + " | ".join(cells)
            if len(sets) == 2 and all(stats):
                a, b = stats[0]["median"], stats[1]["median"]
                gap = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = " **over bound**" if gap > m["bound"] else ""
                if flag:
                    within_bound = within_third = False
                row += f" | {100 * gap:+.1f}%{flag}"
            print(row + " |")
        print()
    print("spreads and median gaps within the bounds:", "yes" if within_bound else "NO")
    print("spreads below a third of the bounds:", "yes" if within_third else "NO")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--workloads")
    r.add_argument("--seconds", type=int)
    r.set_defaults(fn=cmd_run)
    p = sub.add_parser("report")
    p.add_argument("sets", nargs="+")
    p.set_defaults(fn=cmd_report)
    args = ap.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
