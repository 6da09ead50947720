"""Wiring tests of the benchmark's tracer and reference gate, on every workload.

Run from the repository root (takes about half a minute):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hydrobench.cli  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import METRICS, Tracer, wrapped_name  # noqa: E402

OUT = HERE.parent / ".perfbench_out" / "test"

#: Functions imported by name into another module; patching only the defining
#: module would leave these call sites unrecorded.
BY_NAME_SITES = (
    ("hydrobench.dispersion", "transport_ns", "coefficients"),
    ("hydrobench.dispersion", "transport_burnett", "coefficients"),
    ("hydrobench.hydro_spectral", "symbol_matrix", "symbol"),
    ("hydrobench.secularity", "symbol_matrix", "symbol"),
    ("hydrobench.cli", "branches", "branches"),
    ("hydrobench.cli", "emit_outputs", "emit"),
    ("scipy.linalg", "expm", "expm"),
)


@pytest.fixture
def out_dir():
    path = OUT
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _call(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert hydrobench.cli.main(argv) == 0


def test_by_name_import_sites_are_wrapped_and_restored():
    tracer = Tracer()
    tracer.install()
    try:
        for module, attr, span in BY_NAME_SITES:
            assert wrapped_name(getattr(sys.modules[module], attr)) == span, (module, attr)
    finally:
        tracer.uninstall()
    for module, attr, _ in BY_NAME_SITES:
        assert wrapped_name(getattr(sys.modules[module], attr)) is None, (module, attr)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layer_counts_are_nonzero_where_expected_and_repeat(name, out_dir):
    workload = workloads.WORKLOADS[name]
    argv = workload.argv(workloads.inputs(workloads.DEFAULT_SEED), out_dir / "out.csv")
    tracer = Tracer()
    tracer.install()
    try:
        runs = []
        for _ in range(2):
            _call(argv)
            runs.append(tracer.take())
    finally:
        tracer.uninstall()

    first, second = runs
    assert set(first) == set(METRICS)
    counts = {metric: value for metric, value in first.items() if METRICS[metric][0] != "s"}
    assert counts == {metric: second[metric] for metric in counts}
    for metric in workload.large:
        assert first[metric] > 0, metric
    for metric in workload.idle:
        assert first[metric] == 0, metric
    assert first["modal.expm_fallbacks"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_accepts_output_and_rejects_a_perturbed_cell(name, out_dir):
    workload = workloads.WORKLOADS[name]
    inp = workloads.inputs(workloads.DEFAULT_SEED)
    csv = out_dir / "out.csv"
    _call(workload.argv(inp, csv))
    verdict = reference.check(workload, inp, csv)
    assert verdict.ok, verdict.detail

    lines = csv.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-6)
    lines[-1] = ",".join(cells)
    perturbed = out_dir / "perturbed.csv"
    perturbed.write_text("\n".join(lines) + "\n")
    verdict = reference.check(workload, inp, perturbed)
    assert not verdict.ok, verdict.detail
