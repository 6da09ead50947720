"""Command-line front end: experiment drivers with CSV and SVG emission.

Commands:

    dispersion   branch tables sigma(k) for one or more models
    evolve       time evolution of an initial condition under one model
    compare      L2 deviation of hydro models from the kinetic moment reference
    secular      naive versus multiscale correction-ratio series
    selftest     run the built-in invariant suite

Every command is deterministic: identical configuration produces
byte-identical CSV and SVG output.  A CSV real is the text '%.17g' gives
it, computed in numpy (see emit_outputs and the _text module).  Exit codes: 0 success, 1 usage
error, 2 numerical or internal-consistency failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import hydro_spectral, moment_reference, secularity
from ._modal import MIN_GRID_SIZE
from ._text import REAL_WIDTH, label_records, real_records, tables, two_product
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


#: Most entries the flags may size an array to, checked before any exists:
#: dispersion samples, secular output times, and output times times grid size
#: for evolve and compare.  That evolve table would take 4 GB; an N = 65,536
#: evolve with 101 output times sizes 6.6 million.
MAX_ARRAY_ENTRIES = 10**8


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
        for flag, default in _DEFAULTS.items():
            value = getattr(self, flag)
            if type(default) is float and not np.isfinite(value):
                raise UsageError(f"--{flag.replace('_', '-')} must be finite, got {value}")
        if self.eps <= 0:
            raise UsageError(f"eps must be positive, got {self.eps}")
        if self.lambda02 >= 0:
            raise UsageError(f"lambda02 must be negative, got {self.lambda02}")
        # Only evolve and compare realize the IC on a grid; secular needs none.
        on_grid = self.command in ("evolve", "compare")
        if on_grid and self.grid_size < MIN_GRID_SIZE:
            raise UsageError(f"grid size must be at least {MIN_GRID_SIZE}, got {self.grid_size}")
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
        for term in self.ic.terms if on_grid else ():
            if term.mode >= self.grid_size // 2:
                raise UsageError(
                    f"mode {term.mode} is not resolvable on a grid of size {self.grid_size}"
                )
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


#: Values turned into text at a time: the CSV writer takes WRITE_BLOCK //
#: (number of columns) rows, the SVG's point text WRITE_BLOCK points.  A CSV
#: block's numpy temporaries come to about 230 bytes per value.  On the
#: evolve, dispersion and secular benchmark tables, blocks of 2048, 8192 and
#: 16384 values took 1.10-1.17, 0.93-0.98 and 0.90-0.97 times as long as
#: 4096, while the writer's peak allocation grows with the block: 0.95, 0.89
#: and 0.71 MB on those tables at 4096, and 1.84, 1.56 and 1.42 MB at 8192
#: (Python 3.11, numpy 2.4, x86-64).
WRITE_BLOCK = 4096

#: A real column is levelled, each distinct value formatted once, when it
#: holds at most this many distinct values per row.  On a 34,816-row column,
#: levelling took 0.73, 0.75 and 0.96 times as long as formatting every row
#: at 0.02, 0.1 and 0.5 distinct values per row when equal values sit in
#: runs, but 0.99, 1.30 and 1.69 times when they sit at random rows (Python
#: 3.11, numpy 2.4, x86-64).  Evolve's t and x and dispersion's k (0.06)
#: repeat in runs and are levelled; dispersion's re_sigma and im_sigma (0.35
#: and 0.41) and secular's all-distinct columns are not.
LEVEL_FRACTION = 0.1

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


def _label_dtype(names: Sequence[str]) -> np.dtype:
    """The dtype of a labelled column: int32 codes, each an index into names,
    which the dtype carries as its metadata (h5py's enum idiom).  Field
    access, multi-field selection, slicing, take and concatenation of
    structured arrays keep it."""
    return np.dtype(np.int32, metadata={"labels": tuple(names)})


def _label_names(dtype: np.dtype) -> tuple[str, ...] | None:
    """The names a labelled column's dtype carries, or None for any other dtype."""
    names = (dtype.metadata or {}).get("labels")
    return names if names is not None and dtype == np.int32 else None


def _table(columns: dict[str, object]) -> np.ndarray:
    """Structured array with one record per row and one field per column.

    A column of str becomes a labelled one, coded once into its sorted
    distinct names (_label_dtype); every other column, a labelled one
    included, keeps its dtype.
    """
    arrays = []
    for column in columns.values():
        array = np.asarray(column)
        if array.dtype.kind == "U":
            names, codes = np.unique(array, return_inverse=True)
            array = codes.astype(_label_dtype(names.tolist()))
        arrays.append(array)
    rows = np.empty(len(arrays[0]), [(name, a.dtype) for name, a in zip(columns, arrays)])
    for name, array in zip(columns, arrays):
        rows[name] = array
    return rows


def _levels(column: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]] | None:
    """The distinct bit patterns of a float64 column, sorted, and their
    real_records, or None if it has more than LEVEL_FRACTION distinct
    values per row.

    Values are told apart by bit pattern, so -0.0 and 0.0 ('-0' and '0')
    stay apart and no two NaNs merge.  A column that is not levelled costs
    one sort; the writer finds each block's rows among the levels itself,
    so no full-length index is kept.
    """
    keys = np.sort(column.view(np.uint64))
    first = np.r_[True, keys[1:] != keys[:-1]]
    if np.count_nonzero(first) > LEVEL_FRACTION * len(keys):
        return None
    keys = keys[first]
    return keys, real_records(keys.view(np.float64))


def _point_text(points: np.ndarray) -> str:
    """The bytes of '%.3f,%.3f' for each (x, y) row of points, joined by spaces.

    Every coordinate must lie in [0, 1000), as the chart's do; a non-finite
    or out-of-box one raises ValueError.  '%.3f' of v is the round-half-even
    of the exact product v*1000, which two_product gives as p + e with p =
    fl(v*1000).  With d = p - floor(p) (also exact), the product rounds
    up when d > 0.5, or d == 0.5 and e > 0, or d == 0.5, e == 0 and floor(p)
    is odd; |e| is at most half an ulp of p, so it decides only the ties.
    The integer thousandths become text through the digits table, WRITE_BLOCK
    points at a time.
    """
    chunks = []
    for lo in range(0, len(points), WRITE_BLOCK):
        v = points[lo : lo + WRITE_BLOCK].ravel()
        if np.any(np.signbit(v) | ~(v < 1000.0)):
            raise ValueError("SVG coordinates must be finite and lie in [0, 1000)")
        p, e = two_product(v, 1000.0)
        floor = np.floor(p)
        d = p - floor
        n = floor.astype(np.int64)
        n += (d > 0.5) | ((d == 0.5) & ((e > 0) | ((e == 0) & ((n & 1) == 1))))
        whole, frac = np.divmod(n, 1000)
        # One 9-byte field per value: four integer digits, '.', three
        # decimals and the separator; leading zeros of the integer go.
        text = np.empty((len(v), 9), dtype=np.uint8)
        text[:, 0] = ord("1")  # whole is at most 1000
        text[:, 1:4] = tables().digits.take(whole % 1000, axis=0)[:, 1:]
        text[:, 4] = ord(".")
        text[:, 5:8] = tables().digits.take(frac, axis=0)[:, 1:]
        text[0::2, 8] = ord(",")
        text[1::2, 8] = ord(" ")
        keep = np.ones(text.shape, dtype=bool)
        keep[:, 0] = whole >= 1000
        keep[:, 1] = whole >= 100
        keep[:, 2] = whole >= 10
        chunks.append(text[keep].tobytes())
    return b"".join(chunks)[:-1].decode("ascii")


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


def _svg_chart(rows: np.ndarray, title: str) -> str:
    """Deterministic 800x600 polyline chart of a table's float fields.

    The labelled fields group the rows into separate series; the first float
    field is the x axis and every remaining float field yields one polyline
    per group.  Series come in sorted label-tuple order (first labelled
    field first), each code ranked by its name among the column's sorted
    names, and each series' points in stable ascending x: rows with equal x
    keep their table order.  A series is tagged with its names.  Axis labels
    come from _axis_label.

    Point coordinates are written in exact integer thousandths, byte for
    byte as '%.3f' writes them: each is the round-half-even of the exact
    product v*1000, which _point_text forms with Dekker's error-free product
    and turns into digits by table lookup.  That needs every coordinate in
    [0, 1000), which the 800x600 geometry gives for finite data; a
    non-finite or out-of-box one raises ValueError.
    """
    width, height = 800, 600
    margin_left, margin_right, margin_top, margin_bottom = 70, 20, 40, 50
    fields = {name: _label_names(rows.dtype[name]) for name in rows.dtype.names}
    labels = {name: names for name, names in fields.items() if names is not None}
    numeric = [name for name in rows.dtype.names if name not in labels]
    if len(numeric) < 2:
        raise ValueError("SVG chart needs an x column and at least one y column")
    x_name, y_names = numeric[0], numeric[1:]

    x_lo, x_hi = _span([rows[x_name]])
    y_lo, y_hi = _span([rows[name] for name in y_names])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    # Each label column as the rank of its code's name among the column's
    # sorted names, so codes of equal names share a rank; one stable lexsort
    # (first label column most significant, x last) then puts every series
    # in one contiguous run.
    ranks = np.empty((len(labels), len(rows)), dtype=np.intp)
    for rank, (name, names) in zip(ranks, labels.items()):
        sorted_names = sorted(set(names))
        rank[:] = np.take([sorted_names.index(n) for n in names], rows[name])
    order = np.lexsort((rows[x_name], *ranks[::-1]))
    starts = np.flatnonzero(np.r_[True, np.diff(ranks[:, order]).any(axis=0)])
    firsts = order[starts]
    keys = zip(*([names[c] for c in rows[name][firsts].tolist()] for name, names in labels.items()))
    keys = keys if labels else [()]
    sx = margin_left + (rows[x_name][order] - x_lo) / (x_hi - x_lo) * (
        width - margin_left - margin_right
    )
    sy = [
        height
        - margin_bottom
        - (rows[name][order] - y_lo) / (y_hi - y_lo) * (height - margin_top - margin_bottom)
        for name in y_names
    ]
    series: list[tuple[str, np.ndarray, np.ndarray]] = []
    for lo, hi, key in zip(starts, [*starts[1:], len(rows)], keys):
        tag = "/".join(key)
        for name, y in zip(y_names, sy):
            series.append((f"{name}[{tag}]" if tag else name, sx[lo:hi], y[lo:hi]))

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
        f'font-family="monospace" font-size="10">{_axis_label(x_lo)}</text>',
        f'<text x="{width - margin_right}" y="{height - margin_bottom + 16}" '
        f'text-anchor="end" font-family="monospace" font-size="10">'
        f'{_axis_label(x_hi)}</text>',
        f'<text x="{margin_left - 6}" y="{height - margin_bottom}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{_axis_label(y_lo)}</text>',
        f'<text x="{margin_left - 6}" y="{margin_top + 10}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{_axis_label(y_hi)}</text>',
    ]
    for index, (name, sx, sy) in enumerate(series):
        color = _SVG_PALETTE[index % len(_SVG_PALETTE)]
        path = _point_text(np.column_stack((sx, sy)))
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


def _block_text(columns: list[np.ndarray], levels: list) -> np.ndarray:
    """The CSV bytes of one block of rows, from its slice of each column and
    each column's records by level: (keys, records) for a levelled real
    column (_levels), (None, records) for a labelled one, whose codes index
    its records, and None for an unlevelled real column.

    The unlevelled reals are formatted together, in row order, so when they
    are the whole table their records already are the rows; otherwise each
    column's records are joined along the row.
    """
    plain = [c for c, level in zip(columns, levels) if level is None]
    values = np.empty((len(columns[0]), len(plain)))
    for j, column in enumerate(plain):
        values[:, j] = column
    text, keep = (
        part.reshape(len(values), len(plain), REAL_WIDTH) for part in real_records(values.ravel())
    )
    formatted = zip(text.transpose(1, 0, 2), keep.transpose(1, 0, 2))
    parts = []
    for column, level in zip(columns, levels):
        if level is None:
            parts.append(next(formatted))
        else:
            keys, records = level
            index = column if keys is None else np.searchsorted(keys, column.view(np.uint64))
            parts.append(tuple(part.take(index, axis=0) for part in records))
        parts[-1][0][:, -1] = ord(",")
    parts[-1][0][:, -1] = ord("\n")
    if len(plain) == len(columns):
        return text.reshape(len(values), -1)[keep.reshape(len(values), -1)]
    text, keep = (np.concatenate(part, axis=1) for part in zip(*parts))
    return text[keep]


def emit_outputs(
    rows: np.ndarray,
    out_path: Path,
    emit_svg: bool = False,
    title: str = "",
    chart: np.ndarray | None = None,
) -> list[Path]:
    """Write the CSV (and optional sibling SVG); returns the written paths.

    rows is a structured array: one record per CSV row, one field per
    column, float64 for reals and labelled int32 codes (_label_dtype) for
    labels.  A column of any other dtype, or a labelled one with a code
    outside its names, raises ValueError before anything is drawn or
    written, since '%.17g' would round an int64 above 2**53, and so does an
    out_path whose SVG sibling would be itself.  Reals are written as
    '%.17g' writes them, 17 significant digits with '.' as decimal
    separator, so they round-trip through the file exactly, and labels as
    the UTF-8 of their names.  The text is made in numpy, about WRITE_BLOCK
    values at a time (_block_text): each value becomes a fixed-width record
    of bytes and a mask of the bytes it keeps (_text.real_records), a column
    with few distinct values (see _levels) takes its records from its
    levels, a labelled column takes them by code from its names' records
    (_text.label_records, made once per name), and one boolean compress of
    the block's records is its text.  The SVG charts rows unless another
    table is passed in chart; field-snapshot tables use that to plot the
    final time block against x.
    """
    if len(rows) == 0:
        raise ValueError("refusing to write an empty table")
    for name in rows.dtype.names:
        dtype, labels = rows.dtype[name], _label_names(rows.dtype[name])
        if labels is None and dtype != np.float64:
            raise ValueError(f"column {name!r} has dtype {dtype}, not float64 or labelled")
        codes = rows[name]
        if labels is not None and not 0 <= codes.min() <= codes.max() < len(labels):
            raise ValueError(f"column {name!r} has codes outside its {len(labels)} labels")
    out_path = Path(out_path)
    if emit_svg and out_path.suffix == ".svg":
        raise ValueError(f"the SVG would be written over the CSV at {out_path}")
    # The chart is drawn before any file is opened, so a fault in its
    # arithmetic leaves no CSV behind.
    svg = _svg_chart(rows if chart is None else chart, title or out_path.stem) if emit_svg else None
    names = rows.dtype.names
    columns = [rows[name] for name in names]
    levels = []
    for column in columns:
        labels = _label_names(column.dtype)
        levels.append(_levels(column) if labels is None else (None, label_records(labels)))
    step = max(1, WRITE_BLOCK // len(columns))
    with open(out_path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for lo in range(0, len(rows), step):
            fh.write(_block_text([column[lo : lo + step] for column in columns], levels))
    if svg is None:
        return [out_path]
    svg_path = out_path.with_suffix(".svg")
    svg_path.write_text(svg)
    return [out_path, svg_path]


# Command implementations ---------------------------------------------------


def _cmd_dispersion(config: RunConfig) -> np.ndarray:
    k_grid = np.linspace(config.kmin, config.kmax, config.samples)
    if np.any(np.diff(k_grid) <= 0):
        raise UsageError(
            f"[{config.kmin}, {config.kmax}] holds fewer than {config.samples} distinct k samples"
        )
    models = sorted(set(config.models), key=lambda m: m.value)
    tables = [branches(model, k_grid, config.eps, config.eigenvalues) for model in models]
    # Labels travel as int32 codes into their sorted names, from this
    # integer lexsort of the (model, k, branch) order to the written bytes.
    branch_names = sorted({label.value for t in tables for label in t.labels})
    model_code = np.repeat(np.arange(len(tables)), [t.sigma.size for t in tables])
    branch_code = np.concatenate(
        [np.tile([branch_names.index(b.value) for b in t.labels], len(k_grid)) for t in tables]
    )
    k = np.concatenate([np.repeat(t.k_grid, len(t.labels)) for t in tables])
    sigma = np.concatenate([table.sigma.ravel() for table in tables])
    order = np.lexsort((branch_code, k, model_code))
    return _table(
        {
            "model": model_code[order].astype(_label_dtype([model.value for model in models])),
            "k": k[order],
            "branch": branch_code[order].astype(_label_dtype(branch_names)),
            "re_sigma": sigma.real[order],
            "im_sigma": sigma.imag[order],
        }
    )


def _initial_state(config: RunConfig) -> hydro_spectral.HydroState:
    return hydro_spectral.HydroState(**realize(config.ic, config.grid_size))


def _output_times(config: RunConfig) -> np.ndarray:
    """i * dt_out for i = 0, 1, ..., config.output_steps."""
    return config.dt_out * np.arange(config.output_steps + 1)


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
    table = rows.reshape(times.size, n)  # a view: one row per time, one column per x
    table["t"], table["x"] = times[:, None], state.x
    for i, name in enumerate("ups"):
        table[name][0], table[name][1:] = getattr(state, name), evolved[:, i]
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
        # Overflow, invalid and divide-by-zero stop a data command; damped
        # modes legitimately decay to subnormals, so underflow does not.
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            rows = builders[config.command](config)
            chart = None
            if config.command == "evolve":
                # Chart the final-time snapshot against x, not everything vs t.
                chart = rows[["x", "u", "p", "s"]][-config.grid_size :]
            written = emit_outputs(
                rows, config.out_path, config.emit_svg, title=config.command, chart=chart
            )
        for path in written:
            print(path)
        return 0
    except (UsageError, secularity.UnsupportedInitialCondition) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, OverflowError) as exc:  # numpy's, or a Fraction's to float
        print(f"numerical failure: non-finite value ({exc})", file=sys.stderr)
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


def _build_parser() -> argparse.ArgumentParser:
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
