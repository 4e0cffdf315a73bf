"""Run workloads over several seeds and write one point of the trajectory.

    python3 benchmark/trajectory.py --seeds 1-10 --out benchmark/results/NAME.json
        [--workloads rag_turns,ann_hnsw] [--seconds 10] [--traced-seed 1]

Runs run.py once per (seed, workload), one at a time, from the checkout
root. For each end-to-end metric the file keeps the median, the quartiles
(statistics.quantiles, n=4), the spread (interquartile range over median)
and every value; a traced run per workload adds the per-layer metrics. It
also records the environment and any run that was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}"
                           f"\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    record = next(json.loads(line)["record"] for line in lines
                  if line.startswith('{"record"'))
    return {"result": json.loads(lines[-1]), "record": record}


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--workloads", default="rag_turns,ann_hnsw,store_churn")
    p.add_argument("--seconds", type=int)
    p.add_argument("--traced-seed", type=int)
    args = p.parse_args(argv)
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or definition["run_seconds"]
    workloads = args.workloads.split(",")
    seeds = _seeds(args.seeds)

    runs: dict = {w: [] for w in workloads}
    for seed in seeds:  # seed-major, so that slow spells hit every workload
        for w in workloads:
            run = _run(w, seed, seconds, 0)
            runs[w].append(run)
            print(f"{w} seed {seed}: {run['record']['wall_s']:.1f} s",
                  file=sys.stderr)
    out = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in workloads:
        results = [r["result"] for r in runs[w]]
        names = results[0]["metrics"]
        entry = {
            "end_to_end": {n: dict(summary([r["metrics"][n]["value"]
                                            for r in results]),
                                   unit=names[n]["unit"]) for n in names},
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "not_correct": [s for s, r in zip(seeds, results)
                            if not r["correct"]],
            "wall_s": summary([r["record"]["wall_s"] for r in runs[w]]),
        }
        if args.traced_seed is not None:
            traced = _run(w, args.traced_seed, seconds, 1)
            entry["per_layer"] = {
                "seed": args.traced_seed,
                "metrics": {n: m["value"] for n, m in
                            traced["result"]["metrics"].items()},
                "not_measured": traced["record"]["not_measured"],
                "spans": traced["record"]["spans"]}
        out["workloads"][w] = entry
    first = runs[workloads[0]][0]["record"]
    out["environment"] = first["environment"]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
