"""Self-test of the benchmark's tracer on a tiny input.

    python3 perfbench/selftest.py

Runs a one-point family at grid 16 once untraced and twice traced, and
checks that every work counter repeats exactly between the traced runs,
that ``solves_per_point`` is 9 (the 3x3 base stencil), and that tracing
leaves the report bytes unchanged.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, import_cli, run_command
from spans import LAYER_METRICS, Recorder, Tracer
from workloads import DEFAULT_SEED, Workload, check_family, elliptic_config

COUNTERS = [name for name, unit in LAYER_METRICS if unit == "count"]


def tiny_config(seed: int) -> dict:
    config = elliptic_config(seed)
    config["family"]["base"] = {"samples": [[0.0, 1.0]]}
    config["solver"]["grid_n"] = 16
    return config


def main() -> int:
    cli = import_cli()
    workload = Workload(tiny_config, ["run-family"], check_family, points=1)
    config = tiny_config(DEFAULT_SEED)
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        plain = run_command(cli, workload, config, config_path, work / "plain")
        traced = []
        for i in range(2):
            rec = Recorder("selftest")
            tracer = Tracer(rec).install()
            try:
                op = run_command(cli, workload, config, config_path, work / f"traced{i}",
                                 recorder=rec)
            finally:
                tracer.uninstall()
            traced.append((op, rec.metrics(workload.points)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(plain["failures"])
    for op, _ in traced:
        problems += op["failures"]
        if op["digest"] != plain["digest"]:
            problems.append("traced reports differ from the untraced reports")
    first, second = (m for _, m in traced)
    for name in COUNTERS:
        print(f"{name:<28} {first[name]!r:>10} {second[name]!r:>10}")
        if first[name] != second[name]:
            problems.append(f"{name} differs between traced runs")
    if first["solves_per_point"] != 9:
        problems.append(f"solves_per_point is {first['solves_per_point']}, expected 9")
    for reason in problems:
        print(f"FAILED: {reason}")
    print("selftest " + ("passed" if not problems else "failed"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
