"""Workload process: one caller running one workload in a closed loop.

run.py starts this file as a fresh interpreter with the checkout's ``src``
first on PYTHONPATH and one BLAS/OpenMP thread.  It calls
``hydrobench.cli.main(argv)`` back to back until ``--seconds`` have passed,
hashes every invocation's CSV and SVG bytes, and checks the first successful
output against the independent reference once the loop is over.  With
``--trace 1`` every untraced call is followed by a traced one.  The last
stdout line is a JSON object with the raw samples.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibration
import reference
import workloads
from tracer import METRICS, Tracer

#: Every run makes at least this many untraced calls, however long they take.
MIN_CALLS = 3


def _digest(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", type=Path, required=True, help="directory holding hydrobench")
    parser.add_argument("--out-dir", type=Path, required=True, help="scratch for CSV/SVG output")
    parser.add_argument("--spans", type=Path, default=None, help="where to write traced spans")
    args = parser.parse_args(argv)

    import numpy
    import scipy

    import hydrobench
    import hydrobench.cli

    package = Path(hydrobench.__file__).resolve()
    if not package.is_relative_to(args.src.resolve()):
        print(f"hydrobench was imported from {package}, not from {args.src}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    inp = workloads.inputs(args.seed)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv = args.out_dir / "out.csv"
    outputs = [csv] if workload.command == "compare" else [csv, csv.with_suffix(".svg")]
    kept = args.out_dir / "checked.csv"
    cli_argv = workload.argv(inp, csv)

    codes: list[int] = []
    digests: list[str | None] = []

    def call() -> float:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = hydrobench.cli.main(cli_argv)
            wall = time.perf_counter() - start
        codes.append(code)
        digests.append(_digest(outputs) if code == 0 else None)
        if code == 0 and not kept.exists():
            shutil.copyfile(csv, kept)
        return wall

    tracer = Tracer() if args.trace else None
    walls: list[float] = []
    call_s: list[float] = []
    kernel_s: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []
    deadline = time.perf_counter() + args.seconds
    before = calibration.burst()
    while len(walls) < MIN_CALLS or time.perf_counter() < deadline:
        wall = call()
        after = calibration.burst()
        kernel = statistics.median(before + after)
        walls.append(wall)
        kernel_s.append(kernel)
        call_s.append(wall * calibration.NOMINAL_S / kernel)
        before = after
        if tracer is not None:
            tracer.install()
            try:
                traced_walls.append(call())
                layers.append(tracer.take())
            finally:
                tracer.uninstall()
            before = calibration.burst()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Correctness, outside the timed loop: reference gate and byte-identical repeats.
    expected = next((d for d in digests if d is not None), None)
    check = reference.check(workload, inp, kept) if expected else None
    failed = [
        code != 0 or digest != expected or not check.ok for code, digest in zip(codes, digests)
    ]
    counted = [
        {m: v for m, v in layer.items() if METRICS[m][0] != "s"} for layer in layers
    ]
    for index, counts in enumerate(counted):
        # Traced calls sit at odd positions; their counts must repeat exactly.
        failed[2 * index + 1] |= counts != counted[0]
    result = {
        "argv": cli_argv,
        "walls": walls,
        "call_s": call_s,
        "kernel_s": kernel_s,
        "attempted": len(codes),
        "failed": sum(failed),
        "distinct_outputs": len(set(d for d in digests if d is not None)),
        "ref_err": check.ref_err if check else float("inf"),
        "ref_ok": bool(check and check.ok),
        "ref_detail": check.detail if check else "no invocation succeeded",
        "peak_rss_mb": peak_rss_mb,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        result.update(_layer_summary(layers, walls, traced_walls))
        if args.spans is not None:
            args.spans.write_text(json.dumps(tracer.last_spans))
    print(json.dumps(result))
    return 0


def _layer_summary(layers, walls, traced_walls) -> dict:
    """Median per-layer times and the (repeating) counts of the traced calls."""
    summary = {
        metric: statistics.median(layer[metric] for layer in layers)
        if METRICS[metric][0] == "s"
        else layers[0][metric]
        for metric in layers[0]
    }
    summary["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return {"layers": summary, "traced_walls": traced_walls}


if __name__ == "__main__":
    sys.exit(main())
