"""Repeat the benchmark over seeds, or pair it against another checkout.

Spread of one checkout (what the acceptance of the benchmark itself uses):

    python3 bench/repeat.py --workloads quad-cg,sweep-50 --seeds 1-10

prints, per workload and end-to-end metric, the median, the quartiles and
the spread (q3 - q1) / median next to a third of the metric's bound.

Parent against change (what a change that claims a gain cites):

    python3 bench/repeat.py --workloads quad-cg --seeds 1-10 --against ../parent

runs each seed on both checkouts, alternating which side runs first, and
prints each side's median and quartiles, the change's median relative to the
parent's, and how many pairs the change won.  Both sides run this
checkout's ``bench`` code against their own ``src``.  ``--out FILE`` writes
every run's result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(tok) for tok in text.split(",")]


def run(checkout, workload, seed, seconds, trace):
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    for line in lines:
        if line.startswith("environment: "):
            result["environment"] = json.loads(line.split(": ", 1)[1])
        elif line.startswith("trace sha256: "):
            result["trace_sha256"] = line.split(": ", 1)[1].split()
    return result


def with_bench(checkout, scratch):
    """A copy of ``checkout``'s ``src`` beside this checkout's ``bench``."""
    target = Path(scratch) / "parent"
    shutil.copytree(Path(checkout) / "src", target / "src")
    shutil.copytree(ROOT / "bench", target / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    return target


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run; default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--against", default=None, help="checkout of the parent commit")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = parse_seeds(args.seeds)
    records = []
    os.makedirs(ROOT / ".bench_out", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as scratch:
        parent = with_bench(args.against, scratch) if args.against else None
        for workload in args.workloads.split(","):
            sides = {"change": []} if parent is None else {"parent": [], "change": []}
            for index, seed in enumerate(seeds):
                order = list(sides)
                if parent is not None and index % 2:
                    order.reverse()
                for side in order:
                    checkout = parent if side == "parent" else ROOT
                    result = run(checkout, workload, seed, seconds, args.trace)
                    sides[side].append(result)
                    records.append(dict(result, workload=workload, seed=seed, side=side))
                    values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                                      if isinstance(v["value"], (int, float)))
                    print(f"{workload} seed {seed} {side}: correct={result['correct']} {values}",
                          flush=True)
            if len(seeds) > 1:
                report(workload, sides, metrics)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)


def report(workload, sides, metrics):
    names = list(sides["change"][0]["metrics"])
    print(f"\n{workload}")
    for name in names:
        series = {side: [r["metrics"][name]["value"] for r in results]
                  for side, results in sides.items()}
        bound = metrics[name].get("bound")
        cells = []
        for side, values in series.items():
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            cells.append(f"{side} median {q2:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
        line = f"  {name:44s} " + "; ".join(cells)
        if bound is not None and "parent" not in series:
            line += f"  (bound/3 {bound / 3:.3f})"
        if "parent" in series:
            lower = metrics[name]["better"] == "lower"
            pairs = list(zip(series["parent"], series["change"]))
            wins = sum((c < p) if lower else (c > p) for p, c in pairs)
            ratio = statistics.median(series["change"]) / statistics.median(series["parent"])
            line += f"; change/parent {ratio:.4f}; change won {wins}/{len(pairs)} pairs"
        print(line)


if __name__ == "__main__":
    main()
