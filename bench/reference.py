"""Run the benchmark on several seeds per workload and summarise the spread.

    python3 bench/reference.py --out bench/BENCH_1.json

It runs every workload in BENCHMARK.json on seeds 1 to 10. For each workload
and end-to-end metric it reports the median of the runs,
the first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, next to the bound from BENCHMARK.json. The output file
keeps every run's result line and the machine record.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(1, 11))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    run_line = next((ln for ln in lines if ln.startswith("run: ")), "run: {}")
    return json.loads(lines[-1]), json.loads(run_line[len("run: "):])


def summarise(results, spec):
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {
            "unit": metric["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "bound": metric["bound"],
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="JSON file for the summary")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            start = time.perf_counter()
            result, run_info = run_once(workload, seed, spec["run_seconds"])
            report.setdefault("machine", run_info.get("machine"))
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s, "
                  f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
            results.append(result)
        summary = summarise(results, spec)
        report["workloads"][workload] = {
            "summary": summary,
            "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
            "all_correct": all(r["correct"] for r in results),
            "runs": results,
        }
        for name, s in summary.items():
            flag = "" if name == "setup_s" or s["spread"] < s["bound"] / 3 else "  <-- above bound/3"
            print(f"{workload:17s} {name:24s} median {s['median']:10.4f} {s['unit']:8s} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
