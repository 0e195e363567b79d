"""cyflab benchmark: one workload per process, driving the CLI in-process.

    python3 perfbench/run.py --workload family --seed 0 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

``--trace 0`` times the command (``cyflab.cli.main``) repeatedly until
``--seconds`` have passed (at least once) and reports the end-to-end
metrics: medians over the commands of the run, and ``setup_s`` as the
median of several fresh processes that import cyflab, load the config and
build the family.  No command runs before the timed ones, so the first
timed command carries the one-off costs (lazy imports, FFT plans).
``--trace 1`` runs the single-call microbenchmarks, then the command once
untraced and once with every layer's public functions wrapped (see
``spans.py``), and reports the per-layer metrics.

Every command's reports are checked at the tolerances the repository uses,
and all commands of one run must write byte-identical reports (for
``family`` this includes an untimed threads-2 command, run after the
measured ones so that it is not in their peak memory).  The last line
of standard output is the JSON result; the lines before it print every
metric by name with its unit, and the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYER_METRICS, Recorder, Tracer, tail  # noqa: E402
from micro import MICRO_METRICS, run_micro  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, elliptic_config, report_digest  # noqa: E402

SETUP_PROBES = 9
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("points_per_s", "1/s"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return args


def import_cli():
    """Import cyflab from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "cyflab" / "cli.py").is_file():
        raise ImportError(f"no cyflab sources under {src}")
    sys.path.insert(0, str(src))
    import cyflab.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"cyflab imported from {cli.__file__}, not {src}")
    return cli


def blas_threads() -> dict:
    """Thread count reported by every OpenBLAS the process has loaded."""
    found = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return found
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "blas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment(load_at_start) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "loadavg_at_start": load_at_start,
    }


def probe_setup(config_path: Path) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(ROOT),
                    str(config_path)], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def run_command(cli, workload, config, config_path, out: Path, threads=1,
                recorder=None) -> dict:
    """One CLI command: its wall and CPU time, exit code, check failures, digest."""
    argv = workload.command(config_path, out, threads)
    failures = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    root = recorder.open("main", "cli") if recorder else None
    try:
        rc = cli.main(argv)
    except Exception:        # any escape from main is a failed command, not a crash
        rc = None
        failures.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        traceback.print_exc()
    finally:
        if recorder:
            recorder.close(root)
    wall = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    if rc != 0:
        failures.append(f"exit code {rc}")
    else:
        try:
            failures += workload.check(out, config)
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"unreadable report: {exc!r}")
    digest = report_digest(out) if out.is_dir() else None
    shutil.rmtree(out, ignore_errors=True)
    return {"wall": wall, "cpu": cpu, "failures": failures, "digest": digest,
            "threads": threads}


def summary_line(name, unit, values) -> str:
    med = statistics.median(values)
    t = tail(values)
    spread = (f"p{t[0]:.0f}={t[1]:.6g}" if t else "tail n/a (needs n >= 11)")
    return f"{name:<14} {med:.6g} {unit}  median, {spread}, n={len(values)}"


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"perfbench: cannot import cyflab: {exc}", file=sys.stderr)
        return 2

    name, workload = args.workload, WORKLOADS[args.workload]
    config = workload.make_config(args.seed)
    env = environment(load_at_start)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    commands = []               # every command of the run, in order
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")

        def command(**kw):
            op = run_command(cli, workload, config, config_path,
                             work / f"cmd{len(commands)}", **kw)
            commands.append(op)
            return op

        if args.trace == 0:
            setup = [probe_setup(config_path) for _ in range(SETUP_PROBES)]
            timed = []
            start = time.perf_counter()
            while not timed or time.perf_counter() - start < args.seconds:
                timed.append(command())
            series = {
                "wall_s": [op["wall"] for op in timed],
                "cpu_s": [op["cpu"] for op in timed],
                "setup_s": setup,
                # read before the reference command below, which is not measured
                "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
                "points_per_s": [workload.points / op["wall"] for op in timed],
            }
            metrics = {}
            for metric, unit in END_TO_END:
                print(summary_line(metric, unit, series[metric]))
                metrics[metric] = {"value": statistics.median(series[metric]), "unit": unit}
        else:
            # the microbenchmarks go first: they also warm FFT plans and lazy
            # imports, which would otherwise be charged to the untraced command
            values = run_micro(elliptic_config(DEFAULT_SEED))
            untraced = command()
            rec = Recorder(name)
            tracer = Tracer(rec).install()
            try:
                traced = command(recorder=rec)
            finally:
                tracer.uninstall()
            values.update(rec.metrics(workload.points))
            latency = rec.durations("sample_report")
            point = tail(latency)
            which = f"p{point[0]:.0f}" if point else "the slowest point"
            print(f"sample_report latency: n={len(latency)}, tail_s is {which}")
            values["trace_overhead_s"] = traced["wall"] - untraced["wall"]
            units = dict(LAYER_METRICS)
            units["trace_overhead_s"] = "s"
            units.update({m: "s" for m in MICRO_METRICS})
            metrics = {metric: {"value": values[metric], "unit": unit}
                       for metric, unit in units.items()}
            for metric, m in metrics.items():
                print(f"{metric:<30} {m['value']:.6g} {m['unit']}")

        if workload.reference_threads:
            # reports must not depend on the thread count
            command(threads=workload.reference_threads)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = commands[0]["digest"]
    for op in commands:
        if op["digest"] != reference:
            op["failures"].append(f"reports at threads {op['threads']} differ from "
                                  "the run's first command")
    failed = sum(1 for op in commands if op["failures"])
    for i, op in enumerate(commands):
        for reason in op["failures"]:
            print(f"FAILED command {i}: {reason}")
    print(f"failed_frac    {failed}/{len(commands)} commands "
          f"({failed / len(commands):.3g})")
    result = {"correct": failed == 0, "attempted": len(commands), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
