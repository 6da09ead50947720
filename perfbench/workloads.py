"""The benchmark's workloads: each is one ``hydrobench.cli.main(argv)`` call.

The seed sets only the initial-condition amplitudes and phases and a small
offset of ``kmin`` for the dispersion sweep.  Grid sizes, modes, output times,
sample counts and ``kmax`` are fixed, so the work per call does not depend on
the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1

#: Initial-condition mode per field; each term is amplitude * sin(mode*x + phase).
IC_MODES = {"u": 1, "p": 3, "s": 2}


@dataclass(frozen=True)
class Inputs:
    """Seed-derived inputs: (amplitude, phase) per IC field and the sweep's kmin."""

    ic: dict[str, tuple[float, float]]
    kmin: float


def inputs(seed: int) -> Inputs:
    rng = random.Random(seed)

    def term(low: float, high: float) -> tuple[float, float]:
        return round(rng.uniform(low, high), 6), round(rng.uniform(0.0, 6.283185), 6)

    ic = {"u": term(0.5, 1.5), "p": term(0.2, 0.8), "s": term(0.2, 0.8)}
    return Inputs(ic=ic, kmin=round(0.1 + rng.uniform(-0.02, 0.02), 6))


def ic_text(inp: Inputs, fields=("u", "p", "s")) -> str:
    return ",".join(
        f"{field}:{IC_MODES[field]}:{inp.ic[field][0]!r}:{inp.ic[field][1]!r}" for field in fields
    )


@dataclass(frozen=True)
class Workload:
    """One CLI configuration, why it is here, and which layers it must reach.

    ``large`` names the per-layer counts that must be nonzero on this
    workload; ``idle`` names counts whose layer it never reaches, which must
    be exactly zero.
    """

    name: str
    why: str
    command: str
    eps: float
    large: tuple[str, ...]
    idle: tuple[str, ...]
    tmax: float = 0.0
    dt_out: float = 0.0
    grid_size: int = 0
    models: tuple[str, ...] = ()
    kmax: float = 0.0
    samples: int = 0

    def argv(self, inp: Inputs, out: Path) -> list[str]:
        argv = [self.command]
        if self.models:
            argv += ["--model", ",".join(self.models)]
        argv += ["--eps", repr(self.eps)]
        if self.command == "dispersion":
            argv += ["--kmin", repr(inp.kmin), "--kmax", repr(self.kmax)]
            argv += ["--samples", str(self.samples)]
        else:
            fields = ("u",) if self.command == "secular" else ("u", "p", "s")
            argv += ["--ic", ic_text(inp, fields), "--tmax", repr(self.tmax)]
            argv += ["--dt-out", repr(self.dt_out)]
            if self.grid_size:
                argv += ["--grid-size", str(self.grid_size)]
        if self.command != "compare":
            argv.append("--svg")
        return argv + ["--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="evolve_snapshots",
            why="the paper's field-evolution output: 100 propagator builds over 256 modes, "
            "101 FFT syntheses and 25,856 CSV rows plus SVG",
            command="evolve",
            models=("burnett",),
            eps=0.1,
            tmax=10.0,
            dt_out=0.1,
            grid_size=256,
            large=(
                "coefficients.calls",
                "dispersion.symbol_calls",
                "modal.propagator_builds",
                "modal.modes_propagated",
                "modal.synthesis_calls",
                "hydro_spectral.evolve_calls",
                "cli.rows_emitted",
                "cli.bytes_written",
            ),
            idle=("dispersion.k_points", "moment_reference.evolve_calls", "secularity.expm_calls"),
        ),
        Workload(
            name="reference_compare",
            why="the paper's cross-validation: four hydro models and the 5-field moment "
            "reference over 512 modes, 21 CSV rows, so it bypasses emission",
            command="compare",
            models=("euler", "navier_stokes", "burnett", "riemann"),
            eps=0.1,
            tmax=10.0,
            dt_out=0.5,
            grid_size=512,
            large=(
                "coefficients.calls",
                "dispersion.symbol_calls",
                "modal.propagator_builds",
                "modal.modes_propagated",
                "modal.synthesis_calls",
                "hydro_spectral.evolve_calls",
                "moment_reference.evolve_calls",
            ),
            idle=("dispersion.k_points", "secularity.expm_calls"),
        ),
        Workload(
            name="dispersion_sweep",
            why="per-k eigvals with branch continuation for five models at 2048 k samples, "
            "34,816 CSV rows plus SVG, and no propagators",
            command="dispersion",
            models=("euler", "ns", "burnett", "riemann", "moment"),
            eps=0.1,
            kmax=2.5,
            samples=2048,
            large=(
                "coefficients.calls",
                "dispersion.symbol_calls",
                "dispersion.k_points",
                "cli.rows_emitted",
                "cli.bytes_written",
            ),
            idle=(
                "modal.propagator_builds",
                "modal.synthesis_calls",
                "hydro_spectral.evolve_calls",
                "moment_reference.evolve_calls",
                "secularity.expm_calls",
            ),
        ),
        Workload(
            name="secular_horizon",
            why="the only workload reaching secularity: 20,000 4x4 expm steps to the full "
            "1/eps^2 horizon, 20,000 CSV rows plus SVG",
            command="secular",
            eps=0.01,
            tmax=10000.0,
            dt_out=0.5,
            large=("secularity.expm_calls", "cli.rows_emitted", "cli.bytes_written"),
            idle=(
                "dispersion.k_points",
                "modal.propagator_builds",
                "modal.synthesis_calls",
                "hydro_spectral.evolve_calls",
                "moment_reference.evolve_calls",
            ),
        ),
    )
}
