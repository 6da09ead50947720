"""hydrobench benchmark: seeded CLI workloads, end-to-end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload evolve_snapshots --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

``--trace 0`` reports the end-to-end metrics (call_s, setup_s, peak_rss_mb,
ref_digits; the report also prints the raw wall_s, ref_err and error_rate);
``--trace 1`` reports the per-layer metrics of a traced run plus
trace.overhead_s.  Each workload runs in a fresh interpreter (worker.py) that
imports hydrobench from this checkout's ``src`` with one BLAS/OpenMP thread;
setup_s is measured in separate fresh interpreters.  call_s is wall_s
rescaled to nominal machine speed by the kernel in calibration.py, timed
before and after every measured call.  A human-readable report
comes first; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  A full record of each run, including the
environment, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import METRICS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh interpreters timed for setup_s; the median absorbs a first, cold import.
SETUP_SAMPLES = 5
#: A run must end within this many seconds.
RUN_LIMIT_S = 170.0
#: Fresh interpreter until hydrobench.cli is imported; prints the system-wide clock.
PROBE = "import time, hydrobench.cli; print(time.monotonic())"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({name: "1" for name in THREAD_VARS})
    return env


def _machine() -> dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {name: "1" for name in THREAD_VARS},
    }


def _setup_seconds(env: dict[str, str], deadline: float) -> list[float]:
    """Start-to-import times of SETUP_SAMPLES fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - start),
        )
        if proc.returncode != 0:
            raise BenchError(f"cannot import hydrobench.cli from {SRC}:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the result line plus the report record."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if not (SRC / "hydrobench" / "cli.py").is_file():
        raise BenchError(f"no hydrobench sources under {SRC}")
    env = _env()
    setup = [] if trace else _setup_seconds(env, deadline)
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    scratch = OUT / f"{tag}-{os.getpid()}"
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={name}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={int(trace)}",
        f"--src={SRC}",
        f"--out-dir={scratch}",
    ]
    if trace:
        command.append(f"--spans={OUT / (tag + '-spans.json')}")
    try:
        proc = subprocess.run(
            command,
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process for {name} exited with {proc.returncode}")
    worker = json.loads(lines[-1])

    if trace:
        metrics = {
            metric: {"value": value, "unit": METRICS.get(metric, ("s",))[0]}
            for metric, value in worker["layers"].items()
        }
    else:
        ref_err = worker["ref_err"]
        metrics = {
            "call_s": {"value": statistics.median(worker["call_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
            "ref_digits": {"value": _digits(ref_err), "unit": "digits"},
        }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": {**_machine(), **worker["versions"]},
        "setup_samples": setup,
        "worker": worker,
        "metrics": metrics,
        "correct": worker["failed"] == 0 and worker["ref_ok"],
        "elapsed_s": time.monotonic() - started,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return record


def _digits(ref_err: float) -> float:
    """Correct decimal digits against the reference, capped at double precision."""
    if not math.isfinite(ref_err):
        return 0.0
    return -math.log10(max(ref_err, 2.0**-52))


def _report(record: dict) -> list[str]:
    worker, machine = record["worker"], record["machine"]
    threads = " ".join(f"{k}={v}" for k, v in machine["threads"].items())
    lines = [
        f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"{record['seconds']:g} s loop",
        f"   argv: {' '.join(worker['argv'])}",
        f"   env: python {machine['python']}, numpy {machine['numpy']}, scipy "
        f"{machine['scipy']}, nproc {machine['nproc']}, cpu {machine['cpu']}, {threads}",
    ]
    walls = worker["walls"]
    attempted, failed = worker["attempted"], worker["failed"]
    if record["trace"]:
        lines.append(f"   {len(worker['traced_walls'])} traced and {len(walls)} untraced calls")
        for metric, entry in record["metrics"].items():
            lines.append(f"   {metric:<32} {entry['value']:>14.6g} {entry['unit']}")
    else:
        setup = record["setup_samples"]
        m = record["metrics"]
        lines += [
            f"   wall_s       {statistics.median(walls):.4f} s   median of {len(walls)} calls "
            f"(min {min(walls):.4f}, max {max(walls):.4f}); calibration kernel median "
            f"{statistics.median(worker['kernel_s']) * 1e3:.2f} ms",
            f"   call_s       {m['call_s']['value']:.4f} s   median of {len(walls)} calls "
            "at nominal speed",
            f"   setup_s      {m['setup_s']['value']:.4f} s   median of {len(setup)} fresh "
            f"interpreters (min {min(setup):.4f}, max {max(setup):.4f})",
            f"   peak_rss_mb  {m['peak_rss_mb']['value']:.1f} MB   1 workload process",
            f"   ref_err      {worker['ref_err']:.3g} 1   {worker['ref_detail']}",
            f"   ref_digits   {m['ref_digits']['value']:.3f} digits",
        ]
    lines += [
        f"   error_rate   {failed / attempted:.3g} 1   {failed} failed of {attempted} calls, "
        f"{worker['distinct_outputs']} distinct output(s)",
        f"   {'PASS' if record['correct'] else 'FAIL'}",
    ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            print("\n".join(_report(records[-1])), flush=True)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{metric}": entry
            for r in records
            for metric, entry in r["metrics"].items()
        }
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["worker"]["attempted"] for r in records),
        "failed": sum(r["worker"]["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
