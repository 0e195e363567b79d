"""Run every workload that ``BENCHMARK.json`` lists, on one or more seeds.

    python3 perfbench/run_all.py                      # seed 0, end-to-end metrics
    python3 perfbench/run_all.py --seeds 1-10         # ten seeds per workload
    python3 perfbench/run_all.py --trace 1 --out perfbench/results.json

Each run is one ``run.py`` process, measuring for ``run_seconds`` of
``BENCHMARK.json``.  Prints every metric by name with its
unit (per workload: median, quartiles, their distance as a share of the
median, n) and exits 1 if any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import tail  # noqa: E402


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    out = {"median": med, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}
    point = tail(values)
    if point:
        out["tail_pct"], out["tail"] = point
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0", help="e.g. 0 or 1-10 or 1,4,7")
    p.add_argument("--trace", default="0", choices=("0", "1"))
    p.add_argument("--out", default=None, help="write every run and the summary as JSON")
    args = p.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    runs, ok = [], True
    for name in (w["name"] for w in bench["workloads"]):
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--trace", args.trace],
                capture_output=True, text=True, cwd=HERE.parent)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
            good = proc.returncode == 0 and result is not None and result["correct"]
            ok = ok and good
            runs.append({"workload": name, "seed": seed, "returncode": proc.returncode,
                         "env": env, "result": result})
            status = "ok" if good else f"FAILED (exit {proc.returncode})"
            print(f"{name} seed {seed}: {status}", flush=True)
            if not good:
                print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)

    summary = {}
    for run in runs:
        if run["result"] is None:
            continue
        per = summary.setdefault(run["workload"], {})
        for metric, m in run["result"]["metrics"].items():
            per.setdefault(metric, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for name, per in summary.items():
        for metric, m in per.items():
            m.update(summarize(m.pop("values")))
            extra = f" p{m['tail_pct']:.0f}={m['tail']:.6g}" if "tail" in m else ""
            print(f"{name:<9} {metric:<30} {m['median']:.6g} {m['unit']}  "
                  f"q1={m['q1']:.6g} q3={m['q3']:.6g} spread={m['spread']:.3f}{extra} "
                  f"n={m['n']}")

    if args.out:
        Path(args.out).write_text(json.dumps({"trace": args.trace,
                                              "runs": runs, "summary": summary},
                                             indent=1, sort_keys=True) + "\n")
    print("all runs passed" if ok else "some runs FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
