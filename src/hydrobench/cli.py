"""Command-line front end: experiment drivers with CSV and SVG emission.

Commands:

    dispersion   branch tables sigma(k) for one or more models
    evolve       time evolution of an initial condition under one model
    compare      L2 deviation of hydro models from the kinetic moment reference
    secular      naive versus multiscale correction-ratio series
    selftest     run the built-in invariant suite

Every command is deterministic: identical configuration produces
byte-identical CSV and SVG output.  Exit codes: 0 success, 1 usage error,
2 numerical or internal-consistency failure.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from . import hydro_spectral, moment_reference, secularity
from ._modal import MIN_GRID_SIZE
from .coefficients import EigenvalueSet, eigenvalue_set
from .dispersion import BranchCollisionError, ModelId, branches
from .hydro_spectral import HermitianSymmetryError, InternalConsistencyError
from .initial_conditions import ICParseError, ICSpec, ICTerm, parse_initial_condition, realize

__all__ = [
    "ICSpec",
    "ICTerm",
    "RunConfig",
    "UsageError",
    "emit_outputs",
    "main",
    "parse_initial_condition",
    "run",
]

_MODEL_ALIASES = {
    "euler": ModelId.EULER,
    "navier_stokes": ModelId.NAVIER_STOKES,
    "ns": ModelId.NAVIER_STOKES,
    "burnett": ModelId.BURNETT,
    "riemann_decoupled": ModelId.RIEMANN_DECOUPLED,
    "riemann": ModelId.RIEMANN_DECOUPLED,
    "moment_reference": ModelId.MOMENT_REFERENCE,
    "moment": ModelId.MOMENT_REFERENCE,
}


class UsageError(ValueError):
    """Configuration that cannot be run."""


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one CLI invocation."""

    command: str
    models: tuple[ModelId, ...] = ()
    eps: float = 0.1
    lambda02: float = -1.0
    grid_size: int = 256
    kmin: float = 0.1
    kmax: float = 4.0
    samples: int = 64
    tmax: float = 10.0
    dt_out: float = 1.0
    ic: ICSpec | None = None
    out_path: Path | None = None
    emit_svg: bool = False

    def __post_init__(self):
        for flag in ("eps", "lambda02", "kmin", "kmax", "tmax", "dt_out"):
            value = getattr(self, flag)
            if not np.isfinite(value):
                raise UsageError(f"--{flag.replace('_', '-')} must be finite, got {value}")
        if self.eps <= 0:
            raise UsageError(f"eps must be positive, got {self.eps}")
        if self.lambda02 >= 0:
            raise UsageError(f"lambda02 must be negative, got {self.lambda02}")
        if self.grid_size < MIN_GRID_SIZE:
            raise UsageError(f"grid size must be at least {MIN_GRID_SIZE}, got {self.grid_size}")
        if self.command in ("evolve", "compare", "secular"):
            if self.tmax <= 0:
                raise UsageError(f"tmax must be positive, got {self.tmax}")
            if self.dt_out <= 0 or self.dt_out > self.tmax:
                raise UsageError(f"dt-out must lie in (0, tmax], got {self.dt_out}")
            if self.ic is None:
                raise UsageError("an initial condition is required (--ic)")
        if self.command == "dispersion":
            if not (0 < self.kmin < self.kmax):
                raise UsageError(f"need 0 < kmin < kmax, got [{self.kmin}, {self.kmax}]")
            if self.samples < 2:
                raise UsageError(f"need at least two k samples, got {self.samples}")
        if self.command in ("dispersion", "evolve", "compare", "secular"):
            if not self.models and self.command in ("dispersion", "evolve", "compare"):
                raise UsageError("at least one --model is required")
            if self.out_path is None:
                raise UsageError("an output path is required (--out)")

    @property
    def eigenvalues(self) -> EigenvalueSet:
        return eigenvalue_set(self.lambda02)


#: RunConfig's numeric defaults, taken by an option that no flag or config key sets.
_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if type(f.default) in (int, float)}


def _parse_models(raw: Sequence[str]) -> tuple[ModelId, ...]:
    models = []
    for item in raw:
        for name in item.split(","):
            key = name.strip().lower()
            if not key:
                continue
            if key not in _MODEL_ALIASES:
                raise UsageError(
                    f"unknown model '{name}'; choose from "
                    f"{sorted(set(alias for alias in _MODEL_ALIASES))}"
                )
            models.append(_MODEL_ALIASES[key])
    return tuple(models)


def _load_config_file(path: Path) -> dict[str, object]:
    """Flat key=value file mirroring the flag names; '#' starts a comment.

    A key must name a flag of some data command, so a misspelt key is
    refused instead of silently leaving its default in place.  Each value is
    parsed as its flag's type here, so a bad one is refused naming the file,
    line and key.
    """
    known = sorted(_CONFIG_VALUES)
    values: dict[str, object] = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got '{raw.strip()}'")
        key, value = (part.strip() for part in line.split("=", 1))
        name = key.replace("-", "_")
        if name not in known:
            raise UsageError(f"{path}:{lineno}: unknown key '{key}'; known keys: {known}")
        parse, expected = _CONFIG_VALUES[name]
        try:
            values[name] = parse(value)
        except (KeyError, ValueError):
            raise UsageError(f"{path}:{lineno}: '{key}' expects {expected}, got '{value}'")
    return values


# CSV/SVG emission ----------------------------------------------------------


#: Rows formatted by one '%' operation.  Formatting the whole 34,816-row
#: dispersion sweep at once raised a call's peak memory from 46 to 55 MB
#: (Python 3.11, numpy 2.4, x86-64); blocks of 1024 rows saved nothing more.
WRITE_BLOCK = 4096

_SVG_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _table(columns: dict[str, np.ndarray]) -> np.ndarray:
    """Structured array with one record per row and one field per column."""
    arrays = [np.asarray(column) for column in columns.values()]
    rows = np.empty(len(arrays[0]), [(name, a.dtype) for name, a in zip(columns, arrays)])
    for name, array in zip(columns, arrays):
        rows[name] = array
    return rows


def _svg_chart(rows: np.ndarray, title: str) -> str:
    """Deterministic 800x600 polyline chart of a table's float fields.

    The str fields group the rows into separate series; the first float
    field is the x axis and every remaining float field yields one polyline
    per group, its points in ascending x.
    """
    width, height = 800, 600
    margin_left, margin_right, margin_top, margin_bottom = 70, 20, 40, 50
    labels = [name for name in rows.dtype.names if rows.dtype[name].kind == "U"]
    numeric = [name for name in rows.dtype.names if name not in labels]
    if len(numeric) < 2:
        raise ValueError("SVG chart needs an x column and at least one y column")
    x_name, y_names = numeric[0], numeric[1:]

    x_lo, x_hi = float(rows[x_name].min()), float(rows[x_name].max())
    y_lo = min(float(rows[name].min()) for name in y_names)
    y_hi = max(float(rows[name].max()) for name in y_names)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    series: list[tuple[str, np.ndarray, np.ndarray]] = []
    for key in np.unique(rows[labels]).tolist() if labels else [()]:
        mask = np.ones(len(rows), dtype=bool)
        for name, value in zip(labels, key):
            mask &= rows[name] == value
        group = rows[mask][np.argsort(rows[x_name][mask], kind="stable")]
        tag = "/".join(key)
        sx = margin_left + (group[x_name] - x_lo) / (x_hi - x_lo) * (
            width - margin_left - margin_right
        )
        for name in y_names:
            sy = height - margin_bottom - (group[name] - y_lo) / (y_hi - y_lo) * (
                height - margin_top - margin_bottom
            )
            series.append((f"{name}[{tag}]" if tag else name, sx, sy))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-family="monospace" '
        f'font-size="14">{title}</text>',
        f'<line x1="{margin_left}" y1="{height - margin_bottom}" x2="{width - margin_right}" '
        f'y2="{height - margin_bottom}" stroke="black"/>',
        f'<line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}" '
        f'y2="{height - margin_bottom}" stroke="black"/>',
        f'<text x="{(margin_left + width - margin_right) // 2}" y="{height - 12}" '
        f'text-anchor="middle" font-family="monospace" font-size="12">{x_name}</text>',
        f'<text x="{margin_left}" y="{height - margin_bottom + 16}" text-anchor="middle" '
        f'font-family="monospace" font-size="10">{format(x_lo, ".17g")[:10]}</text>',
        f'<text x="{width - margin_right}" y="{height - margin_bottom + 16}" '
        f'text-anchor="end" font-family="monospace" font-size="10">'
        f'{format(x_hi, ".17g")[:10]}</text>',
        f'<text x="{margin_left - 6}" y="{height - margin_bottom}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{format(y_lo, ".17g")[:10]}</text>',
        f'<text x="{margin_left - 6}" y="{margin_top + 10}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{format(y_hi, ".17g")[:10]}</text>',
    ]
    for index, (name, sx, sy) in enumerate(series):
        color = _SVG_PALETTE[index % len(_SVG_PALETTE)]
        points = np.column_stack((sx, sy)).ravel().tolist()
        path = " ".join(["%.3f,%.3f"] * len(sx)) % tuple(points)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{path}"/>'
        )
        parts.append(
            f'<text x="{width - margin_right - 4}" y="{margin_top + 14 * (index + 1)}" '
            f'text-anchor="end" font-family="monospace" font-size="10" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_outputs(
    rows: np.ndarray,
    out_path: Path,
    emit_svg: bool = False,
    title: str = "",
    chart: np.ndarray | None = None,
) -> list[Path]:
    """Write the CSV (and optional sibling SVG); returns the written paths.

    rows is a structured array: one record per CSV row, one field per
    column, float64 for reals and str for labels.  Reals are written with 17
    significant digits and '.' decimal separator, so they round-trip through
    the file exactly.  The SVG charts rows unless another table is passed in
    chart; field-snapshot tables use that to plot the final time block
    against x.
    """
    if len(rows) == 0:
        raise ValueError("refusing to write an empty table")
    out_path = Path(out_path)
    names = rows.dtype.names
    line = ",".join("%s" if rows.dtype[name].kind == "U" else "%.17g" for name in names) + "\n"
    with open(out_path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for lo in range(0, len(rows), WRITE_BLOCK):
            block = rows[lo : lo + WRITE_BLOCK].tolist()
            fh.write(line * len(block) % tuple(itertools.chain.from_iterable(block)))
    written = [out_path]
    if emit_svg:
        svg_path = out_path.with_suffix(".svg")
        svg_path.write_text(_svg_chart(rows if chart is None else chart, title or out_path.stem))
        written.append(svg_path)
    return written


# Command implementations ---------------------------------------------------


def _cmd_dispersion(config: RunConfig) -> np.ndarray:
    k_grid = np.linspace(config.kmin, config.kmax, config.samples)
    models = sorted(set(config.models), key=lambda m: m.value)
    tables = [branches(model, k_grid, config.eps, config.eigenvalues) for model in models]
    sigma = np.concatenate([table.sigma.ravel() for table in tables])
    rows = _table(
        {
            "model": np.concatenate([[t.model.value] * t.sigma.size for t in tables]),
            "k": np.concatenate([np.repeat(t.k_grid, len(t.labels)) for t in tables]),
            "branch": np.concatenate([[b.value for b in t.labels] * len(k_grid) for t in tables]),
            "re_sigma": sigma.real,
            "im_sigma": sigma.imag,
        }
    )
    return rows[np.lexsort((rows["branch"], rows["k"], rows["model"]))]


def _initial_state(config: RunConfig) -> hydro_spectral.HydroState:
    fields = realize(config.ic, config.grid_size)
    return hydro_spectral.HydroState(u=fields["u"], p=fields["p"], s=fields["s"])


def _output_times(config: RunConfig) -> np.ndarray:
    """i * dt_out for every integer i >= 0 with i * dt_out <= tmax.

    The count is decided exactly on the shortest decimal form of each value,
    so tmax 0.3 and dt-out 0.1 give three steps although the doubles divide
    to 2.9999999999999996.
    """
    count = Fraction(repr(float(config.tmax))) // Fraction(repr(float(config.dt_out)))
    return config.dt_out * np.arange(count + 1)


def _cmd_evolve(config: RunConfig) -> np.ndarray:
    if len(config.models) != 1:
        raise UsageError("evolve takes exactly one --model")
    state = _initial_state(config)
    times = _output_times(config)
    evolved = moment_reference.trajectory(
        state, config.models[0], config.eps, config.eigenvalues, times[1:]
    )
    n = config.grid_size
    rows = np.empty(times.size * n, [(name, float) for name in ("t", "x", "u", "p", "s")])
    for i, hydro in enumerate(itertools.chain([state], evolved)):
        block = rows[i * n : (i + 1) * n]
        block["t"], block["x"] = times[i], state.x
        block["u"], block["p"], block["s"] = hydro.u, hydro.p, hydro.s
    return rows


def _cmd_compare(config: RunConfig) -> np.ndarray:
    models = [m for m in dict.fromkeys(config.models) if m is not ModelId.MOMENT_REFERENCE]
    if not models:
        raise UsageError("compare needs at least one hydrodynamic model")
    times = _output_times(config)
    gaps = moment_reference.reference_gaps(
        _initial_state(config), models, config.eps, config.eigenvalues, times[1:]
    )
    columns = {f"l2_error_{m.value}": np.concatenate([[0.0], g]) for m, g in zip(models, gaps.T)}
    return _table({"t": times, **columns})


def _cmd_secular(config: RunConfig) -> np.ndarray:
    horizon = 1.0 / (config.eps * config.eps)
    if config.tmax > horizon * (1.0 + 1e-12):
        raise UsageError(
            f"tmax {config.tmax:g} exceeds the validity horizon 1/eps^2 = {horizon:g}"
        )
    times = _output_times(config)[1:]
    series = secularity.secular_ratio_series(
        config.ic, config.eps, config.eigenvalues, times
    )
    return _table(
        {
            "t": series.times,
            "naive_ratio": series.naive_ratio,
            "multiscale_ratio": series.multiscale_ratio,
        }
    )


def _selftest() -> int:
    """Print every registered check, value against bound; exit 2 if any fails."""
    from . import checks  # the data commands never need the registry's imports

    failed = 0
    for check in checks.REGISTRY:
        try:
            measurements = check.measure()
            passed = bool(measurements) and all(m.passed for m in measurements)
            detail = "; ".join(map(str, measurements))
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {exc!r}"
        failed += not passed
        print(f"{'ok  ' if passed else 'FAIL'} {check.number:2d} {check.description}: {detail}")
    print(f"{len(checks.REGISTRY) - failed}/{len(checks.REGISTRY)} checks passed")
    return 2 if failed else 0


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    try:
        if config.command == "selftest":
            return _selftest()
        builders = {
            "dispersion": _cmd_dispersion,
            "evolve": _cmd_evolve,
            "compare": _cmd_compare,
            "secular": _cmd_secular,
        }
        rows = builders[config.command](config)
        chart = None
        if config.command == "evolve":
            # Chart the final-time snapshot against x, not everything vs t.
            chart = rows[["x", "u", "p", "s"]][rows["t"] == rows["t"][-1]]
        written = emit_outputs(
            rows, config.out_path, config.emit_svg, title=config.command, chart=chart
        )
        for path in written:
            print(path)
        return 0
    except (UsageError, secularity.UnsupportedInitialCondition) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        BranchCollisionError,
        InternalConsistencyError,
        HermitianSymmetryError,
        FloatingPointError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # keep the single-line diagnostic contract
        print(f"internal failure: {exc!r}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydrobench",
        description="Workbench for the hydrodynamic model hierarchy of the "
        "linearized 1-D kinetic equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_models=True):
        p.add_argument("--config", type=Path, default=None, help="flat key=value config file")
        if with_models:
            p.add_argument(
                "--model",
                action="append",
                default=None,
                help="model name (repeatable or comma-separated): euler, navier_stokes, "
                "burnett, riemann_decoupled, moment_reference",
            )
        for flag, meaning in (("eps", "Knudsen number"), ("lambda02", "anchor eigenvalue")):
            default = f"(default {_DEFAULTS[flag]:g})"
            p.add_argument(f"--{flag}", type=float, default=None, help=f"{meaning} {default}")
        p.add_argument("--out", type=Path, default=None, help="output CSV path")
        p.add_argument("--svg", action="store_true", help="also write a sibling SVG chart")

    p_disp = sub.add_parser("dispersion", help="branch tables sigma(k)")
    add_common(p_disp)
    p_disp.add_argument("--kmin", type=float, default=None)
    p_disp.add_argument("--kmax", type=float, default=None)
    p_disp.add_argument("--samples", type=int, default=None)

    for name, needs_model in (("evolve", True), ("compare", True), ("secular", False)):
        p_cmd = sub.add_parser(name)
        add_common(p_cmd, with_models=needs_model)
        p_cmd.add_argument("--ic", type=str, default=None, help="e.g. u:1:1.0 or u:1:1,p:2:0.5")
        p_cmd.add_argument("--tmax", type=float, default=None)
        p_cmd.add_argument("--dt-out", type=float, default=None)
        p_cmd.add_argument("--grid-size", type=int, default=None)

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return parser


#: Spellings of the svg switch in a config file, matched in any case.
_SWITCH = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

#: Config-file keys: the parser of each value and what a refusal says it expects.
_CONFIG_VALUES = {
    **{name: (type(value), type(value).__name__) for name, value in _DEFAULTS.items()},
    "model": (lambda text: [text], "text"),  # read like one --model flag
    "ic": (str, "text"),
    "out": (Path, "path"),
    "svg": (lambda text: _SWITCH[text.lower()], "1/true/yes or 0/false/no"),
}


def _resolve(namespace: argparse.Namespace) -> RunConfig:
    config_values = (
        _load_config_file(namespace.config) if getattr(namespace, "config", None) else {}
    )

    def pick(key: str):
        flag = getattr(namespace, key, None)
        if flag is not None:
            return flag
        return config_values.get(key, _DEFAULTS.get(key))

    grid_size = pick("grid_size")
    ic_text = pick("ic")
    ic = parse_initial_condition(ic_text, grid_size) if ic_text else None

    return RunConfig(
        command=namespace.command,
        models=_parse_models(pick("model") or ()),
        eps=pick("eps"),
        lambda02=pick("lambda02"),
        grid_size=grid_size,
        kmin=pick("kmin"),
        kmax=pick("kmax"),
        samples=pick("samples"),
        tmax=pick("tmax"),
        dt_out=pick("dt_out"),
        ic=ic,
        out_path=pick("out"),
        emit_svg=bool(getattr(namespace, "svg", False)) or config_values.get("svg", False),
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags; remap to the documented usage code
        return 0 if exc.code in (0, None) else 1
    if namespace.command == "selftest":
        return run(RunConfig(command="selftest"))
    try:
        config = _resolve(namespace)
    except (UsageError, ICParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
