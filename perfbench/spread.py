"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

    python3 perfbench/spread.py --workload derive-cold --seeds 1-10 [--seconds S]

Runs run.py once per seed (untraced), then prints, per metric, the
median of the runs and the quartile distance (statistics.quantiles,
n=4) as a share of that median, next to the metric's bound in
BENCHMARK.json.  The values of every run are written to
.bench_out/spread-<workload>.json.
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
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)

    summary = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                         "bound": metric["bound"], "unit": metric["unit"]}
        print(f"{name:14s} median {med:12.5f} {metric['unit']:4s} spread {(q3 - q1) / med:7.2%}"
              f"  bound {metric['bound']:.0%}")
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with open(ROOT / ".bench_out" / f"spread-{args.workload}.json", "w") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds, "runs": runs,
                   "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
