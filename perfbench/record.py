"""Run the benchmark over several seeds and summarize, optionally as a
trajectory point.

    python3 perfbench/record.py --seeds 1-10 [--trace-seed 1]
        [--out perfbench/trajectory/NAME.json]

For every workload it runs ``run.py --trace 0`` once per seed for
BENCHMARK.json's ``run_seconds``, then (with ``--trace-seed``) one traced
run.  It prints, per end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
which is what the regression gate compares with each metric's bound.
``--out`` writes all of it, with the stamp of the first run, as one JSON
document.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace-seed", type=int, default=None, help="also make one traced run with this seed")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    doc = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in WORKLOADS:
        results = []
        for seed in args.seeds:
            result, report = run_once(workload, seed, seconds, 0)
            results.append((result, report))
            doc.setdefault("stamp", report["stamp"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                  + f" failed={result['failed']}/{result['attempted']} rounds={report['rounds']}", flush=True)
        entry = {
            "end_to_end": {name: summarize([r["metrics"][name]["value"] for r, _ in results]) for name in results[0][0]["metrics"]},
            "attempted": sum(r["attempted"] for r, _ in results),
            "failed": sum(r["failed"] for r, _ in results),
        }
        for extra in ("cells_per_s", "masses_per_s"):
            if extra in results[0][1]:
                entry[extra] = summarize([rep[extra] for _, rep in results])
        for name, s in entry["end_to_end"].items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {workload:<11} {name:<12} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
                  f"spread {s['spread']:.4f} (bound {bound}){flag}", flush=True)
        if args.trace_seed is not None:
            result, report = run_once(workload, args.trace_seed, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["per_layer_absent"] = report["absent"]
            print(f"  {workload} traced: overhead {entry['per_layer'].get('trace.overhead_ratio', float('nan')):.3f}, "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        doc["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
