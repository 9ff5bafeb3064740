"""Run one benchmark workload through ``basinlab.cli.main`` and print its metrics.

    python3 benchmarks/run.py --workload checkpoint-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
Set-up runs SETUP_REPEATS times; then a warm-up pass and timed passes of
the workload repeat until the next one would end after ``--seconds``.
Each reported time is a sum over CLI calls of each call's fastest time
across the timed passes; ``setup_s`` is the median set-up.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` mixes untraced
and traced passes and reports the per-layer metrics. Lines starting with
'#' are for people; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A run record (environment,
calibration, every pass, checks, CSV hashes) goes to ``.bench_out/`` and,
for traced runs, the spans too.
See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# One BLAS thread: the workloads multiply 16-wide matrices, where threads
# only add scheduling noise on a shared machine.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def calibrate(np) -> float:
    """Median ms of a fixed kernel shaped like one full-batch MLP layer.

    Timed before the run so that machine-speed drift shows next to each
    result. It is reported, never used to scale a metric.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1024, 16))
    w = rng.standard_normal((16, 16))
    times = []
    for _ in range(7):
        t0 = perf_counter()
        for _ in range(200):
            np.tanh(x @ w)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def import_probe() -> None:
    """Import the CLI in a fresh interpreter: the import cost a user pays."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-c", "import basinlab.cli"], cwd=ROOT, check=True,
                   env=dict(os.environ, PYTHONPATH=path), timeout=120)


def run_checks(workload, result, first) -> list[tuple[str, bool, str]]:
    try:
        checks = workload.checks()
        result.science = workload.science()
    except (OSError, ValueError, IndexError) as e:
        checks = [("outputs.readable", False, f"{type(e).__name__}: {e}")]
        result.science = {}
    if first is not None:
        same = result.hashes == first.hashes
        checks.append(("outputs.identical_to_pass_0", same, f"{len(result.hashes)} CSV files"))
    return checks


def measure(workload, seconds: float, tracer) -> list:
    """A warm-up pass, then timed passes, in run order, until the next would
    end after `seconds`. With a tracer, timed passes go untraced, traced,
    traced, untraced and repeat, so a drift in machine speed during the run
    does not favour either kind."""
    passes = []
    t0 = perf_counter()
    while True:
        i = len(passes)
        if tracer is not None and (i - 1) % 4 in (1, 2):
            with tracer.installed():
                result = workload.run_pass(tracer.span)
        else:
            result = workload.run_pass()
        result.checks = run_checks(workload, result, passes[0] if passes else None)
        passes.append(result)
        longest = max(r.seconds for r in passes)
        if perf_counter() - t0 + longest > seconds and i >= (1 if tracer is None else 2):
            return passes


def quiet_stage_times(workload, passes) -> dict[str, float]:
    """Each stage's time on a quiet machine: the sum over the stage's calls
    of each call's fastest time across passes (README.md, "Timing method")."""
    out: dict[str, float] = {}
    for j, call in enumerate(workload.pass_calls):
        out[call.stage] = out.get(call.stage, 0.0) + min(r.calls[j] for r in passes)
    return out


def report(lines, metrics, units):
    for line in lines:
        print(f"# {line}")
    for name, value in metrics.items():
        print(f"# {name:42s} {value:>14.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "basinlab" / "cli.py").is_file():
        print(f"error: no basinlab sources at {SRC / 'basinlab'}; run from a checkout root",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in reported}

    env = environment(np)
    calibration_ms = calibrate(np)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            import_probe()
            workload.setup()
            setups.append(perf_counter() - t0)
        tracer = Tracer() if args.trace else None
        passes = measure(workload, args.seconds, tracer)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print(f"error: {args.workload} failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in passes[1:] if not r.traced]
    traced = [r for r in passes[1:] if r.traced]
    attempted = sum(len(r.exit_codes) + len(r.checks) for r in passes)
    failed = sum(sum(code != 0 for _, code in r.exit_codes)
                 + sum(not ok for _, ok, _ in r.checks) for r in passes)
    stage_names = list(plain[0].stages)
    median = {s: statistics.median(r.stages[s] for r in plain) for s in stage_names}
    quiet = quiet_stage_times(workload, plain)
    lines = [f"env {json.dumps(env)}", f"calibration_ms {calibration_ms:.4f}",
             f"setup_s runs {[round(s, 4) for s in setups]}"]
    for i, r in enumerate(passes):
        stages = " ".join(f"{s}={v:.4f}" for s, v in r.stages.items())
        kind = " (warm-up)" if i == 0 else " traced" if r.traced else ""
        lines.append(f"pass {i}{kind} {r.seconds:.4f} s: {stages}")
        lines += [f"  check {name} {'ok' if ok else 'FAILED'}: {detail}"
                  for name, ok, detail in r.checks if i == 0 or not ok]
    lines.append(f"science {json.dumps(plain[-1].science)}")
    lines.append("median stage times: " + " ".join(f"{s}={v:.4f}" for s, v in median.items()))
    lines.append("fastest-call stage times: "
                 + " ".join(f"{s}={v:.4f}" for s, v in quiet.items()))
    lines.append(f"failed_frac {failed / attempted:.4g} ({failed} of {attempted} "
                 "subcommand calls and checks)")

    if args.trace:
        metrics = tracer.layer_metrics(len(traced))
        traced_s = sum(quiet_stage_times(workload, traced).values())
        metrics["trace.overhead_frac"] = traced_s / sum(quiet.values()) - 1.0
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": sum(quiet.values()),
            "stage1_s": quiet[workload.headline[0]],
            "stage2_s": quiet[workload.headline[1]],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    report(lines, metrics, units)

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "calibration_ms": calibration_ms,
        "setup_s": setups,
        "passes": [{"seconds": r.seconds, "stages": r.stages, "calls": r.calls,
                    "exit_codes": r.exit_codes,
                    "checks": r.checks, "traced": r.traced} for r in passes],
        "csv_sha256": plain[0].hashes, "science": plain[-1].science, "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        tracer.save(OUT / f"{tag}.spans.npz")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
