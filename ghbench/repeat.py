"""Repeat the benchmark over seeds and summarise every metric.

Run from the repository root:

    python3 ghbench/repeat.py --seeds 0-9 --out ghbench/baseline.json

For each workload of BENCHMARK.json, runs ghbench/run.py once per seed,
one run at a time, for BENCHMARK.json's run_seconds, and reports per
metric the median over the runs and its spread: the distance between the
first and third quartiles (statistics.quantiles(values, n=4)) as a share
of the median.  Stops at the first run that fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("need at least two seeds")

    declared = bench["per_layer" if args.trace else "end_to_end"]
    report = {"machine": f"{platform.machine()}, {os.cpu_count()} CPUs,"
                         f" Python {platform.python_version()}",
              "run_seconds": bench["run_seconds"], "seeds": args.seeds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"error: {workload} seed {seed} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"# {workload} seed {seed} done", flush=True)
        rows = report["workloads"][workload] = {}
        for m in declared:
            rows[m["name"]] = {"unit": m["unit"], **summarise(values[m["name"]])}
            bound = m.get("bound")
            note = "" if bound is None else f"  bound {bound}  within a third: " \
                                            f"{rows[m['name']]['spread'] < bound / 3}"
            print(f"{workload:16s} {m['name']:40s} median {rows[m['name']]['median']:<12.6g}"
                  f" spread {rows[m['name']]['spread']:.4f}{note}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
