"""Run one contextdb benchmark workload and print its metrics.

    python3 benchmark/run.py --workload rag_turns --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: it imports contextdb from
./src, reads the metric list from ./BENCHMARK.json and keeps its scratch
data under ./.bench_work (removed at exit, except traced spans). Inputs
come only from --seed; the op count is --seconds times the workload's
calibrated rate, so both sides of a comparison run the same inputs. Ops
that a cut run (see LOOP_DEADLINE_S) leaves unrun count as attempted and
failed, so the result line shows the cut.

Output: one line per metric ("name value unit"), one JSON line with the
full record (environment, sizes, checks, span analysis), and last a JSON
line {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones; a
per-layer metric a workload does not exercise reads 0 and is listed under
"not_measured" in the record. Exit code 2 means the program or the
benchmark definition could not be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

# One client thread per workload: keep numpy's BLAS to one thread too, so
# that a second BLAS thread spinning on the other vCPU does not tie the
# figures to whatever else the machine runs. Set before numpy is imported;
# the thread count in use is part of every result's record.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rag_turns", "ann_hnsw", "store_churn")
# The timed loop stops early past this point, and no further set-up or
# reopen sample starts, so that a much slower program still exits within
# 180 s. The ops left unrun count as attempted and failed.
LOOP_DEADLINE_S = 140.0


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        return _fail("--seconds must be >= 1")

    package = ROOT / "src" / "contextdb"
    if not (package / "__init__.py").is_file():
        return _fail(f"contextdb sources not found under {ROOT / 'src'}")
    definition = ROOT / "BENCHMARK.json"
    if not definition.is_file():
        return _fail(f"{definition} not found")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import contextdb
    if Path(contextdb.__file__).resolve().parent != package.resolve():
        return _fail(f"imported contextdb from {contextdb.__file__}, "
                     f"not from {package}")
    spec = json.loads(definition.read_text())

    import importlib

    import harness
    workload = importlib.import_module(args.workload)
    scratch = ROOT / ".bench_work"
    workdir = scratch / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    ctx = harness.RunContext(seed=args.seed, seconds=args.seconds,
                             workdir=workdir, trace=bool(args.trace),
                             deadline=START + LOOP_DEADLINE_S)
    try:
        result = workload.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = ctx.checks
    attempted = max(1, result["attempted"])
    metrics = result["metrics"]
    metrics["peak_rss_mb"] = harness.peak_rss_mb()
    metrics["error_rate"] = checks.failed_ops / attempted
    spans = metrics.pop("_spans", None)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    out, not_measured = {}, []
    for m in wanted:
        value = metrics.get(m["name"])
        if value is None:
            if not args.trace:
                raise KeyError(f"{args.workload} did not measure {m['name']}")
            not_measured.append(m["name"])
            value = 0.0
        out[m["name"]] = {"value": float(value), "unit": m["unit"]}

    if args.trace:
        dump = scratch / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        dump.parent.mkdir(parents=True, exist_ok=True)
        with open(dump, "w") as fh:
            for s in ctx.tracer.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "op", "name", "start", "end"), s))) + "\n")

    correct = not checks.unexpected
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "truncated": ctx.truncated,
        "definition": workload.SPEC,
        "environment": harness.environment(ROOT),
        "inputs": result["record"],
        "checks": {"failed_ops": checks.failed_ops,
                   "not_run": checks.not_run,
                   "known_defects": dict(checks.known),
                   "unexpected": checks.unexpected},
        "error_rate": metrics["error_rate"],
        "not_measured": not_measured,
        "spans": spans,
        "wall_s": time.perf_counter() - START,
    }
    for name, m in out.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:  # per-layer metrics that every run measures
        print(f"error_rate {metrics['error_rate']:.6g} fail/op")
        print(f"filtered_p50_ms {metrics['filtered_p50_ms']:.6g} ms")
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": checks.failed_ops, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
