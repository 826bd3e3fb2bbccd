"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/spread.py --workloads hull-face-lattice,shell-session \
        --seeds 1-10 [--seconds S] [--trace 1] [--out FILE]

Runs are sequential, one process each.  For every metric it prints the
median, the quartiles of ``statistics.quantiles(values, n=4)`` and the
spread (q3 - q1) / median; for end-to-end metrics also the bound from
BENCHMARK.json.  ``--out`` writes every run's result as JSON.

With ``--trace 1`` it also runs the first seed twice and checks that the
count metrics of the two runs are identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}"
                         f"\n{done.stderr}")
    info = json.loads(lines[-2 - len(json.loads(lines[-1])["metrics"])])
    info["wall_s"] = round(time.monotonic() - start, 1)
    return info, json.loads(lines[-1])


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    report = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            info, result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "info": info, "result": result})
            ok &= result["correct"] and not result["failed"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"inputs={info['inputs_sha256']} wall={info['wall_s']}s",
                  flush=True)
        if args.trace:
            first = runs[0]["result"]["metrics"]
            _, again = run_once(workload, args.seeds[0], args.seconds, 1)
            differ = [n for n, u in units.items() if u in ("count", "bytes")
                      and again["metrics"][n] != first[n]]
            print(f"{workload}: repeated seed {args.seeds[0]} count metrics "
                  + ("identical" if not differ else f"DIFFER: {differ}"))
            ok &= not differ
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None}
            bound = bounds.get(name)
            line = (f"  {name:38s} median {med:12.6g}  q1 {q1:12.6g}  "
                    f"q3 {q3:12.6g}")
            if summary[name]["spread"] is not None:
                line += f"  spread {summary[name]['spread']:7.4f}"
            if bound is not None and not args.trace:
                line += f"  bound {bound}"
            print(line)
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
