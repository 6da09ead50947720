"""Command-line front end: experiment drivers with CSV and SVG emission.

Commands:

    dispersion   branch tables sigma(k) for one or more models
    evolve       time evolution of an initial condition under one model
    compare      L2 deviation of hydro models from the kinetic moment reference
    secular      naive versus multiscale correction-ratio series
    selftest     run the built-in invariant suite

Every data command builds its result as one Table of names, columns and
values, float64 reals or int32 codes into label names or reals, which
emit_outputs writes.  Every command is deterministic: identical
configuration produces byte-identical CSV and SVG output.  A CSV real is
the text '%.17g' gives it, and an SVG point the text '%.3f' gives it, both
computed in numpy by the _text module, which cli hands the table and the
chart's points.  Exit codes: 0 success, 1 usage error, 2 numerical or
internal-consistency failure; a floating-point fault names its phase (run).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import moment_reference, secularity
from ._modal import check_grid_size
from ._text import csv_text, point_text
from .coefficients import EigenvalueSet, eigenvalue_set
from .dispersion import BranchCollisionError, ModelId, branches
from .hydro_spectral import HermitianSymmetryError, InternalConsistencyError
from .initial_conditions import (
    ICParseError,
    ICSpec,
    ICTerm,
    check_modes,
    parse_initial_condition,
    spectrum,
)

__all__ = [
    "ICSpec",
    "ICTerm",
    "RunConfig",
    "Table",
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


#: Most entries the flags may size an array to, checked before any exists:
#: dispersion samples, secular output times, and output times times grid size
#: for evolve and compare.  That evolve table would take 4 GB; an N = 65,536
#: evolve with 101 output times sizes 6.6 million.
MAX_ARRAY_ENTRIES = 10**8

#: Smallest |lambda02| accepted, the collision rate being negative: below it
#: the largest transport coefficient, beta_p = (19/72)/lambda02^2, exceeds
#: every double and cannot become a float.  Rounded as computed here, it lies
#: one ulp above the last |lambda02| whose beta_p is finite.
LAMBDA02_FLOOR = math.sqrt(19 / 72) / math.sqrt(sys.float_info.max)


class UsageError(ValueError):
    """Configuration that cannot be run."""


def _usage(check, *args) -> None:
    """Run a rule that the module owning it states, check(*args), and raise
    its ValueError again as a UsageError of the same message."""
    try:
        check(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


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
        for flag, default in _DEFAULTS.items():
            value = getattr(self, flag)
            if type(default) is float and not np.isfinite(value):
                raise UsageError(f"--{flag.replace('_', '-')} must be finite, got {value}")
        if self.eps <= 0:
            raise UsageError(f"eps must be positive, got {self.eps}")
        if self.lambda02 > -LAMBDA02_FLOOR:
            bound = f"negative, at most -{LAMBDA02_FLOOR:.3g} for finite transport coefficients"
            raise UsageError(f"lambda02 must be {bound}, got {self.lambda02}")
        # Only evolve and compare take the IC's spectrum on a grid; secular needs none.
        on_grid = self.command in ("evolve", "compare")
        if on_grid:
            _usage(check_grid_size, self.grid_size)
        if self.command in ("evolve", "compare", "secular"):
            if self.tmax <= 0:
                raise UsageError(f"tmax must be positive, got {self.tmax}")
            if self.dt_out <= 0 or self.dt_out > self.tmax:
                raise UsageError(f"dt-out must lie in (0, tmax], got {self.dt_out}")
            if self.ic is None:
                raise UsageError("an initial condition is required (--ic)")
            sizes, entries = "--tmax and --dt-out", self.output_steps + 1
            if on_grid:
                sizes, entries = "--tmax, --dt-out and --grid-size", entries * self.grid_size
            if entries > MAX_ARRAY_ENTRIES:
                raise UsageError(f"{sizes} size more than {MAX_ARRAY_ENTRIES:,} array entries")
        if self.command == "dispersion":
            if not (0 < self.kmin < self.kmax):
                raise UsageError(f"need 0 < kmin < kmax, got [{self.kmin}, {self.kmax}]")
            if not (2 <= self.samples <= MAX_ARRAY_ENTRIES):
                raise UsageError(f"need 2 to {MAX_ARRAY_ENTRIES:,} k samples, got {self.samples}")
        if on_grid:
            _usage(check_modes, self.ic, self.grid_size)
        if self.command in ("dispersion", "evolve", "compare", "secular"):
            if not self.models and self.command in ("dispersion", "evolve", "compare"):
                raise UsageError("at least one --model is required")
            if self.out_path is None:
                raise UsageError("an output path is required (--out)")
            if self.emit_svg and self.out_path.suffix == ".svg":
                raise UsageError(f"--svg would write its chart over the CSV at {self.out_path}")

    @property
    def eigenvalues(self) -> EigenvalueSet:
        return eigenvalue_set(self.lambda02)

    @cached_property
    def output_steps(self) -> int:
        """The largest integer i with i * dt_out <= tmax.

        The count is decided exactly on the shortest decimal form of each
        value, so tmax 0.3 and dt-out 0.1 give three steps although the
        doubles divide to 2.9999999999999996.
        """
        return int(Fraction(repr(float(self.tmax))) // Fraction(repr(float(self.dt_out))))


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
    return tuple(dict.fromkeys(models))  # each model once, in first-seen order


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


@dataclass(frozen=True)
class Table:
    """A table as its column names, columns and each column's values; its
    len() is its row count, the length of its first column.

    A column whose value is None holds float64 reals.  Any other column is
    coded: int32 codes, each an index into its value, the str names of a
    label column as a tuple, or the reals of a column that repeats few of
    them, such as a grid, as a float64 array.
    """

    names: tuple[str, ...]
    columns: tuple[np.ndarray, ...]
    values: tuple[tuple[str, ...] | np.ndarray | None, ...]

    def __len__(self) -> int:
        return len(self.columns[0])


def _table(columns: dict[str, object]) -> Table:
    """The Table of the named columns, each kept in its dtype with the value
    None, as a real column."""
    arrays = tuple(np.asarray(column) for column in columns.values())
    return Table(tuple(columns), arrays, (None,) * len(arrays))


def _axis_label(value: float) -> str:
    """value to 17 significant digits, cut to 10 characters.

    An exponent is kept whole and only the mantissa before it is cut, so
    1.2407178e-05 reads 1.2407e-05; text without one is cut as it stands.
    """
    mantissa, e, exponent = format(value, ".17g").partition("e")
    return mantissa[: 10 - len(e + exponent)] + e + exponent


def _span(columns: list[np.ndarray]) -> tuple[float, float]:
    """Smallest and largest value over the columns, -0.0 ordered below 0.0.

    numpy's min and max return either zero of a column that holds both, by
    the loop that its stride and length select, so a zero extreme is decided
    by a second pass: -0.0 is the minimum if any -0.0 is present, and 0.0
    the maximum if any 0.0 is.
    """
    lo = min(float(column.min()) for column in columns)
    hi = max(float(column.max()) for column in columns)
    if lo == 0.0:
        lo = -0.0 if any(np.signbit(c[c == 0.0]).any() for c in columns) else 0.0
    if hi == 0.0:
        hi = 0.0 if any((~np.signbit(c[c == 0.0])).any() for c in columns) else -0.0
    return lo, hi


def _xml_text(text: str) -> str:
    """text as XML character data: '&', '<' and '>' escaped, as
    xml.sax.saxutils.escape escapes them.  That module imports
    urllib.request, which cost each process that drew a chart 25 ms and
    1.1-1.7 MB of peak RSS on the benchmark's chart workloads."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_chart(rows: Table, title: str) -> list[bytes]:
    """Deterministic 800x600 polyline chart of a table's real columns, as
    the list of UTF-8 byte parts that make up its text, never joined.

    The label columns, coded by str names, group the rows into separate
    series; the other columns are reals, plotted through their values when
    coded.  The first real column is the x axis and every remaining one
    yields one polyline per group.  Series come in sorted label-tuple order
    (first label column first), each code ranked by its name among the
    column's sorted names, and each series' points in stable ascending x:
    rows with equal x keep their table order.  A series is tagged with its
    names.  Axis labels come from _axis_label; the title, the x name and
    the tags are escaped as XML text.

    Point coordinates are written byte for byte as '%.3f' writes them, by
    _text.point_text, from each group's slice of one sort order: a group's x
    coordinates are computed once and shared by its series.  That needs
    every coordinate in [0, 1000), which the 800x600 geometry gives for
    finite data; a non-finite or out-of-box one raises ValueError.
    """
    width, height = 800, 600
    margin_left, margin_right, margin_top, margin_bottom = 70, 20, 40, 50
    labels, reals = [], {}
    for name, column, values in zip(rows.names, rows.columns, rows.values):
        if isinstance(values, tuple):
            labels.append((column, values))
        else:
            reals[name] = column if values is None else values.take(column)
    if len(reals) < 2:
        raise ValueError("SVG chart needs an x column and at least one y column")
    x_name, *y_names = reals

    x_lo, x_hi = _span([reals[x_name]])
    y_lo, y_hi = _span([reals[name] for name in y_names])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    # Each row's series as one integer: in each label column the rank of its
    # code's name among the column's sorted names, so codes of equal names
    # share a rank, and the ranks in mixed radix, first label column most
    # significant.  One stable lexsort by series, then x, puts every series
    # in one contiguous run.
    sizes = [len(set(names)) for _, names in labels]
    if math.prod(sizes) > np.iinfo(np.intp).max:
        raise ValueError("SVG chart has too many label combinations to number")
    series = np.zeros(len(rows), dtype=np.intp)
    for size, (codes, names) in zip(sizes, labels):
        rank = {n: i for i, n in enumerate(sorted(set(names)))}
        series *= size
        series += np.take([rank[n] for n in names], codes)
    order = np.lexsort((reals[x_name], series))
    series = series[order]
    starts = np.flatnonzero(np.r_[True, series[1:] != series[:-1]])
    firsts = order[starts]
    keys = zip(*([names[c] for c in codes[firsts].tolist()] for codes, names in labels))
    keys = keys if labels else [()]

    header = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-family="monospace" '
        f'font-size="14">{_xml_text(title)}</text>',
        f'<line x1="{margin_left}" y1="{height - margin_bottom}" x2="{width - margin_right}" '
        f'y2="{height - margin_bottom}" stroke="black"/>',
        f'<line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}" '
        f'y2="{height - margin_bottom}" stroke="black"/>',
        f'<text x="{(margin_left + width - margin_right) // 2}" y="{height - 12}" '
        f'text-anchor="middle" font-family="monospace" font-size="12">{_xml_text(x_name)}</text>',
        f'<text x="{margin_left}" y="{height - margin_bottom + 16}" text-anchor="middle" '
        f'font-family="monospace" font-size="10">{_axis_label(x_lo)}</text>',
        f'<text x="{width - margin_right}" y="{height - margin_bottom + 16}" '
        f'text-anchor="end" font-family="monospace" font-size="10">'
        f'{_axis_label(x_hi)}</text>',
        f'<text x="{margin_left - 6}" y="{height - margin_bottom}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{_axis_label(y_lo)}</text>',
        f'<text x="{margin_left - 6}" y="{margin_top + 10}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{_axis_label(y_hi)}</text>',
        "",
    ]
    parts = ["\n".join(header).encode()]
    index = 0
    for lo, hi, key in zip(starts, [*starts[1:], len(rows)], keys):
        tag = "/".join(key)
        group = order[lo:hi]
        points = np.empty((hi - lo, 2))
        points[:, 0] = margin_left + (reals[x_name][group] - x_lo) / (x_hi - x_lo) * (
            width - margin_left - margin_right
        )
        for name in y_names:
            points[:, 1] = (
                height
                - margin_bottom
                - (reals[name][group] - y_lo)
                / (y_hi - y_lo)
                * (height - margin_top - margin_bottom)
            )
            color = _SVG_PALETTE[index % len(_SVG_PALETTE)]
            index += 1
            parts += [
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="'.encode(),
                *point_text(points),
                f'"/>\n<text x="{width - margin_right - 4}" y="{margin_top + 14 * index}" '
                f'text-anchor="end" font-family="monospace" font-size="10" '
                f'fill="{color}">{_xml_text(f"{name}[{tag}]" if tag else name)}</text>\n'.encode(),
            ]
    parts.append(b"</svg>\n")
    return parts


def emit_outputs(
    rows: Table,
    out_path: Path,
    emit_svg: bool = False,
    title: str = "",
    chart: Table | None = None,
) -> list[Path]:
    """Write the CSV (and optional sibling SVG); returns the written paths,
    the CSV's first.

    rows is a Table: its names are the CSV's header and its columns the CSV
    columns, float64 reals or int32 codes into label names or reals.  These
    raise ValueError before anything is drawn or written: no columns, or
    unequal counts of names, columns and values; a column of unequal
    length; a real column of any other dtype, since '%.17g' would round an
    int64 above 2**53; a coded one with a code outside its values; a column
    or label name that holds a comma, a double quote, CR or LF, which the
    CSV would split or run on, or a NUL, which its text would lose; and an
    out_path whose SVG sibling would be itself.  The CSV's bytes are
    _text.csv_text's, made a block of rows at a time from the names,
    columns and values: reals as '%.17g' writes them, so they round-trip
    through the file exactly, and labels as the UTF-8 of their names.

    The SVG charts rows unless another table is passed in chart;
    field-snapshot tables use that to plot the final time block against x.
    It is drawn before any file is opened, written before the CSV as the
    byte parts _svg_chart returns, never joined, and dropped before the
    CSV's first block is made.  The chart and the CSV each run under the
    data commands' floating-point rule (_phase), so a fault in either raises
    _PhaseFault naming it.  Any exception part way through the SVG, an
    OSError among them, removes it and writes no CSV, and one part way
    through the CSV removes the CSV and the SVG.
    """
    counts = len(rows.names), len(rows.columns), len(rows.values)
    if len(set(counts)) != 1 or counts[0] == 0:
        raise ValueError("a table's names, columns and values number %d, %d and %d" % counts)
    if len(rows) == 0:
        raise ValueError("refusing to write an empty table")
    for name, column, coded in zip(rows.names, rows.columns, rows.values):
        dtype = np.dtype(np.float64 if coded is None else np.int32)
        if len(column) != len(rows):
            raise ValueError(f"column {name!r} has {len(column)} rows, not {len(rows)}")
        if column.dtype != dtype:
            raise ValueError(f"column {name!r} has dtype {column.dtype}, not {dtype}")
        if coded is not None and not 0 <= column.min() <= column.max() < len(coded):
            raise ValueError(f"column {name!r} has codes outside its {len(coded)} values")
    labels = [label for coded in rows.values if isinstance(coded, tuple) for label in coded]
    for name in (*rows.names, *labels):
        if any(c in name for c in ',"\r\n\0'):
            raise ValueError(f"name {name!r} holds a comma, a quote, a line break or a NUL")
    out_path = Path(out_path)
    if emit_svg and out_path.suffix == ".svg":
        raise ValueError(f"the SVG would be written over the CSV at {out_path}")
    written = [out_path]
    if emit_svg:
        # Drawn before any file is opened, so a fault in its arithmetic
        # leaves no file behind.
        with _phase("chart"):
            svg = _svg_chart(rows if chart is None else chart, title or out_path.stem)
        written.append(out_path.with_suffix(".svg"))
        _write_parts(written[1], svg)
        del svg  # its parts are freed before the CSV's first block is made
    try:
        with _phase("CSV"):
            _write_parts(out_path, csv_text(rows.names, rows.columns, rows.values))
    except BaseException:  # nor an SVG without its CSV
        for path in written[1:]:
            path.unlink()
        raise
    return written


def _write_parts(path: Path, parts) -> None:
    """Write the byte parts to path in turn; any exception part way, from the
    file or from a part, removes the file before it is raised again."""
    fh = open(path, "wb")
    try:
        with fh:
            fh.writelines(parts)
    except BaseException:
        path.unlink()
        raise


# Command implementations ---------------------------------------------------


def _cmd_dispersion(config: RunConfig) -> Table:
    k_grid = np.linspace(config.kmin, config.kmax, config.samples)
    if np.any(np.diff(k_grid) <= 0):
        raise UsageError(
            f"[{config.kmin}, {config.kmax}] holds fewer than {config.samples} distinct k samples"
        )
    models = sorted(config.models, key=lambda m: m.value)
    tables = [branches(model, k_grid, config.eps, config.eigenvalues) for model in models]
    # Rows in (model, k, branch) order: models come sorted, k ascends, and
    # each model's (k, branch) block has its branches in name order.  Labels
    # and k travel as int32 codes to the written bytes.
    branch_names = sorted({label.value for t in tables for label in t.labels})
    k, branch, sigma = [], [], []
    for table in tables:
        names = [label.value for label in table.labels]
        codes = np.searchsorted(branch_names, sorted(names)).astype(np.int32)
        k.append(np.repeat(np.arange(len(k_grid), dtype=np.int32), len(names)))
        branch.append(np.tile(codes, len(k_grid)))
        sigma.append(table.sigma[:, np.argsort(names)].ravel())
    model = np.arange(len(models), dtype=np.int32).repeat([t.sigma.size for t in tables])
    sigma = np.concatenate(sigma)
    return Table(
        ("model", "k", "branch", "re_sigma", "im_sigma"),
        (model, np.concatenate(k), np.concatenate(branch), sigma.real, sigma.imag),
        (tuple(m.value for m in models), k_grid, tuple(branch_names), None, None),
    )


def _output_times(config: RunConfig) -> np.ndarray:
    """i * dt_out for i = 0, 1, ..., config.output_steps."""
    return config.dt_out * np.arange(config.output_steps + 1)


def _cmd_evolve(config: RunConfig) -> Table:
    if len(config.models) != 1:
        raise UsageError("evolve takes exactly one --model")
    n = config.grid_size
    times = _output_times(config)
    evolved = moment_reference.trajectory(
        spectrum(config.ic, n), config.models[0], config.eps, config.eigenvalues, times
    )
    # One row per (time, x), t and x as int32 codes into the times and the grid.
    t = np.repeat(np.arange(times.size, dtype=np.int32), n)
    x = np.tile(np.arange(n, dtype=np.int32), times.size)
    return Table(
        ("t", "x", "u", "p", "s"),
        (t, x, *(evolved[:, i].ravel() for i in range(3))),
        (times, 2.0 * np.pi * np.arange(n) / n, None, None, None),
    )


def _cmd_compare(config: RunConfig) -> Table:
    models = [m for m in config.models if m is not ModelId.MOMENT_REFERENCE]
    if not models:
        raise UsageError("compare needs at least one hydrodynamic model")
    times = _output_times(config)
    gaps = moment_reference.reference_gaps(
        spectrum(config.ic, config.grid_size), models, config.eps, config.eigenvalues, times
    )
    return _table({"t": times, **{f"l2_error_{m.value}": g for m, g in zip(models, gaps.T)}})


def _cmd_secular(config: RunConfig) -> Table:
    if secularity.beyond_horizon(config.tmax, config.eps):
        raise UsageError(
            f"tmax {config.tmax:g} exceeds the validity horizon "
            f"1/eps^2 = {1.0 / (config.eps * config.eps):g}"
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


class _PhaseFault(FloatingPointError):
    """A floating-point fault, or a float too large for a double, in a named
    phase of a run: 'command', 'chart' or 'CSV'."""

    def __init__(self, phase: str, fault: ArithmeticError):
        super().__init__(f"{phase}: non-finite value ({fault})")


@contextlib.contextmanager
def _phase(name: str):
    """Run a block under the data commands' floating-point rule and name it
    in any fault: overflow, invalid and divide-by-zero raise (damped modes
    legitimately decay to subnormals, so underflow does not), and numpy's
    FloatingPointError or a Fraction's OverflowError on its way to a float
    is raised again as a _PhaseFault of this phase."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            yield
    except (FloatingPointError, OverflowError) as exc:
        raise _PhaseFault(name, exc) from exc


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code.

    The command, the chart and the CSV each run in their own _phase, so a
    floating-point fault prints 'numerical failure in <phase>: ...'.
    """
    try:
        if config.command == "selftest":
            return _selftest()
        builders = {
            "dispersion": _cmd_dispersion,
            "evolve": _cmd_evolve,
            "compare": _cmd_compare,
            "secular": _cmd_secular,
        }
        with _phase("command"):
            rows = builders[config.command](config)
        chart = None
        if config.command == "evolve":
            # Chart the final-time snapshot against x, not everything vs t.
            last = [column[-config.grid_size :] for column in rows.columns[1:]]
            chart = Table(rows.names[1:], tuple(last), rows.values[1:])
        written = emit_outputs(
            rows, config.out_path, config.emit_svg, title=config.command, chart=chart
        )
        for path in written:
            print(path)
        return 0
    except (UsageError, secularity.UnsupportedInitialCondition) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _PhaseFault as exc:
        print(f"numerical failure in {exc}", file=sys.stderr)
        return 2
    except (
        BranchCollisionError,
        InternalConsistencyError,
        HermitianSymmetryError,
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


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError, so it costs one stderr line."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.

    Each add_argument checks its help formatting, which costs more than a
    parse; parse_args keeps no state between calls, and help text is
    formatted when it is printed.
    """
    parser = _Parser(
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
        p.add_argument(
            "--svg", action="store_true", default=None, help="also write a sibling SVG chart"
        )

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
        if name != "secular":  # the secular series needs no grid
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


#: Flags and config keys whose RunConfig field has another name.
_FIELD_NAMES = {"model": "models", "out": "out_path", "svg": "emit_svg"}


def _resolve(namespace: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then every flag given; the last layer to set a key wins."""
    flags = {key: value for key, value in vars(namespace).items() if value is not None}
    config_path = flags.pop("config", None)
    file_values = _load_config_file(config_path) if config_path else {}
    values = {
        _FIELD_NAMES.get(key, key): value
        for key, value in {**_DEFAULTS, **file_values, **flags}.items()
    }
    values["models"] = _parse_models(values.get("models", ()))
    ic = values.get("ic")
    values["ic"] = parse_initial_condition(ic) if ic else None
    return RunConfig(**values)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        config = _resolve(_build_parser().parse_args(argv))
    except SystemExit:  # --help printed its text
        return 0
    except (UsageError, ICParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
