"""The CSV and SVG text of hydrobench's tables, computed in numpy.

csv_text gives a table's CSV bytes, each float64 as '%.17g' writes it and
each label as the UTF-8 of its name, and point_text an SVG polyline's
'%.3f,%.3f' point text; they are the format's only entry points.  Both
are made as fixed-width records of bytes that hold NUL wherever they keep
nothing, so the text is the records' bytes with the NULs deleted; no kept
byte is NUL, and emit_outputs refuses a NUL in a name.  real_records gives
the record of each float64 and _packed the records of a coded column's
texts, made once from its values (_coded_records), each ending in ','.
two_product and the point word tables serve the point text.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["csv_text", "point_text"]


#: Reals turned into text at a time: csv_text takes WRITE_BLOCK // (number
#: of float64 columns) rows, WRITE_BLOCK for a table of coded columns alone,
#: since a coded column takes its records by code and formats no real;
#: point_text makes WRITE_BLOCK points at a time.  A CSV block's numpy
#: temporaries come to 170-180 bytes per real, most of them while
#: real_records runs; a point-text block's to about 40 bytes per coordinate.
#: On the evolve, dispersion and secular benchmark tables, blocks of 2048
#: took 1.14, 0.98 and 1.41 times as long as 4096 and blocks of 8192 0.96,
#: 1.01 and 1.08 times (medians of 10 alternating pairs), while the
#: writer's peak allocation grows with the block: 0.35, 0.47 and 0.34 MiB
#: on those tables at 2048, 0.67, 0.71 and 0.67 MiB at 4096 and 1.33, 1.36
#: and 1.32 MiB at 8192 (Python 3.11, numpy 2.4, x86-64).
WRITE_BLOCK = 4096


#: frexp writes a finite nonzero double as f * 2**q with f in [0.5, 1) and q
#: from -1073 to 1024.  Row q + 1073 of these tables is filled on the first
#: call that meets q, and then holds exact constants, so the rows a call
#: fills never change what another call writes.  With e = floor(log10(2**(q -
#: 1))), the decimal exponent of the binade's least value:
#: - _DECADE holds e;
#: - _UP_FROM holds the least double f0 with f0 * 2**q >= 10**(e + 1), so a
#:   value's decimal exponent is e + (f >= f0);
#: - _SCALE rows 2 * (q + 1073) + up hold 2**q * 10**(16 - e - up), the
#:   factor that takes f to a 17-digit integer, as a double-double (hi, lo):
#:   hi correctly rounded and lo the correctly rounded remainder.
_Q_MIN, _Q_COUNT = -1073, 2098
_DECADE = np.zeros(_Q_COUNT, np.int64)
_UP_FROM = np.zeros(_Q_COUNT)
_SCALE = np.zeros((2 * _Q_COUNT, 2))
_FILLED = np.zeros(_Q_COUNT, bool)


def _ratio(two: int, ten: int) -> tuple[int, int]:
    """2**two * 10**ten as an integer numerator and denominator."""
    num, den = 1, 1
    num, den = (num << two, den) if two >= 0 else (num, den << -two)
    return (num * 10**ten, den) if ten >= 0 else (num, den * 10**-ten)


def _fill_scales(rows: np.ndarray) -> None:
    """Fill the given rows, q + 1073, of the exponent tables.

    Python's int true division is correctly rounded, so num / den is the
    double nearest the exact ratio, and the remainder num/den - hi is exact
    over the common denominator before its own rounding.
    """
    for row in rows.tolist():
        q = row + _Q_MIN
        # Exact: for 0 < |q - 1| < 2100, (q - 1) * log10(2) is 4e-4 or more from an integer.
        e = math.floor((q - 1) * math.log10(2))
        num, den = _ratio(-q, e + 1)  # 10**(e + 1) / 2**q
        up_from = num / den
        hi_num, hi_den = up_from.as_integer_ratio()
        if hi_num * den < num * hi_den:
            up_from = math.nextafter(up_from, math.inf)
        _DECADE[row], _UP_FROM[row] = e, up_from
        for up in (0, 1):
            num, den = _ratio(q, 16 - e - up)
            hi = num / den
            hi_num, hi_den = hi.as_integer_ratio()
            _SCALE[2 * row + up] = hi, (num * hi_den - hi_num * den) / (den * hi_den)
    _FILLED[rows] = True


def two_product(a: np.ndarray, b: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's error-free product: p = fl(a*b) and err with p + err = a*b
    exactly, for |a*b| far from overflow and underflow.

    Veltkamp's splitter writes a and b as hi + lo with halves of at most 26
    bits, so every partial product in err is exact.
    """
    p = a * b
    c = a * 134217729.0  # 2**27 + 1
    a_hi = c - (c - a)
    c = b * 134217729.0
    b_hi = c - (c - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def decimal17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each finite a >= 0 as N * 10**(X - 16), N the 17-digit round-half-even
    of a / 10**(X - 16); returns N, X and where that rounding is unsure.

    With a = f * 2**q (np.frexp) and the row's double-double scale t = hi +
    lo, N is the rounding of y = f * t.  two_product gives f * hi exactly
    as p + err, and p is an integer, since y >= 1e16 > 2**53.  So y = p + r +
    delta with r = fl(err + fl(f * lo)).  As t < 2**58, |lo| <= 16 and
    |err| <= 8, so |delta| <= 2**-48: 2**-50 from the table's own rounding,
    2**-50 from f * lo and 2**-49 from the sum.  With d = r - floor(r),
    exact, the rounding is N = p + floor(r) + (d > 0.5) unless |d - 0.5| <=
    2**-44, sixteen times that bound: there, which includes every exact tie
    such as 1 + 2**-17, N is reported unsure.  A carry to 10**17 becomes
    10**16 at X + 1, and zero gives N = 0 at X = 0.  No operation
    overflows, underflows or is invalid.
    """
    f, q = np.frexp(a)
    row = q + np.int32(-_Q_MIN)
    if not _FILLED[row].all():
        met = np.zeros(_Q_COUNT, bool)
        met[row] = True
        _fill_scales(np.flatnonzero(met & ~_FILLED))
    up = f >= _UP_FROM[row]
    hi, lo = np.take(_SCALE, np.int32(2) * row + up, axis=0).T
    p, err = two_product(f, hi)
    r = err + f * lo
    floor = np.floor(r)
    d = r - floor
    n = p.astype(np.int64) + floor.astype(np.int64) + (d > 0.5)
    x = _DECADE[row] + up
    carry = n == np.int64(10**17)
    n[carry] = np.int64(10**16)
    x += carry
    zero = a == 0
    n[zero], x[zero] = 0, 0
    return n, x, np.abs(d - 0.5) <= 2.0**-44


#: The bytes of a real's record: "000" and the 17 digits, "0.", "000" and the
#: 17 digits again, and "e", the exponent's sign and three digits, before a
#: separator.  Byte 2 becomes '-'.  A record keeps the sign, the integer
#: digits from the first copy, "0." and the leading zeros of a value below
#: 0.1, '.' and the fraction digits from the second copy, and the exponent.
REAL_WIDTH = 48


class Tables(NamedTuple):
    """The lookup tables of the text, built on first use."""

    #: Row n holds the four ASCII digits of n, for n = 0 to 9999.
    digits: np.ndarray
    #: Which bytes of a real's record '%.17g' keeps, one row per layout key
    #: (layout * 18 + significant digits) * 2 + sign.  Layouts 0 to 20 are
    #: fixed-point with exponent X = layout - 4; 21 and 22 are e-notation
    #: with two and three exponent digits.
    keep: np.ndarray
    #: Row X + 324 holds "e", the sign and the three digits of exponent X.
    exponent: np.ndarray
    #: Place (1 to 4) of the last nonzero digit of each four-digit group, 0 for 0.
    last_nonzero: np.ndarray
    #: Row 1000 * s + n, for n = 0 to 999, holds the four bytes of separator
    #: s (0 for ' ', 1 for ',') and n's three digits, as a uint32 word whose
    #: leading zero digits, all but the units, are NUL bytes: ",\0\05" for
    #: s = 1 and n = 5.
    point_whole: np.ndarray
    #: Row n, for n = 0 to 999, holds ".ddd", n's three digits after a '.',
    #: as a uint32 word.
    point_fraction: np.ndarray


@functools.cache
def tables() -> Tables:
    """The Tables, built once per process on the first call, not at import:
    importing the CLI does no table work, and a process that writes no text
    never builds them."""
    digits = np.empty((10000, 4), np.uint8)
    for place in range(4):  # each digit cycles through '0'-'9', each held 10**(3 - place) rows
        cycle = np.repeat(np.arange(ord("0"), ord("9") + 1, dtype=np.uint8), 10 ** (3 - place))
        digits[:, place] = np.tile(cycle, 10**place)
    last_nonzero = np.zeros(10000, np.int8)
    for place in range(4):
        last_nonzero[digits[:, place] != ord("0")] = place + 1
    layout, sig, neg = np.ix_(np.arange(23), np.arange(18), np.arange(2))
    x = layout - 4
    fixed, small = layout <= 20, (layout <= 20) & (x < 0)
    whole = np.where(fixed, np.maximum(x + 1, 0), 1)  # digits before the '.'
    j = np.arange(17)
    keep = np.zeros((23, 18, 2, REAL_WIDTH), bool)
    keep[..., 2] = neg == 1
    keep[..., 3:20] = j < whole[..., None]
    keep[..., 20] = small
    keep[..., 21] = small | (sig > whole)
    keep[..., 22:25] = small[..., None] & (np.arange(3) >= 4 + x[..., None])
    keep[..., 25:42] = (j >= whole[..., None]) & (j < sig[..., None])
    keep[..., 42:44] = ~fixed[..., None]
    keep[..., 44] = layout == 22
    keep[..., 45:47] = ~fixed[..., None]
    keep[..., 47] = True
    exponents = np.arange(-324, 325)
    exponent = np.column_stack(
        (
            np.full(len(exponents), ord("e"), np.uint8),
            np.where(exponents < 0, ord("-"), ord("+")).astype(np.uint8),
            digits[np.abs(exponents), 1:],
        )
    )
    point_whole = np.tile(digits[:1000], (2, 1))
    point_whole[:, 0] = np.repeat(np.frombuffer(b" ,", np.uint8), 1000)
    n = np.tile(np.arange(1000), 2)
    point_whole[n < 100, 1] = 0
    point_whole[n < 10, 2] = 0
    point_fraction = digits[:1000].copy()
    point_fraction[:, 0] = ord(".")
    return Tables(
        digits,
        keep.reshape(-1, REAL_WIDTH),
        exponent,
        last_nonzero,
        point_whole.view(np.uint32).ravel(),
        point_fraction.view(np.uint32).ravel(),
    )


def _spelled(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ASCII of each integer n below 10**17 as 20 bytes, "000" and its
    17 digits, and how many of those digits remain without trailing zeros.

    n is split into a leading digit and four groups of four digits, each
    spelled by its row of the digits table.
    """
    hi, lo = np.divmod(n, np.int64(10**8))
    groups = np.empty((5, len(n)), np.int64)
    groups[0], hi = np.divmod(hi, np.int64(10**8))
    groups[1], groups[2] = np.divmod(hi, np.int64(10**4))
    groups[3], groups[4] = np.divmod(lo, np.int64(10**4))
    places = np.array([[-3], [1], [5], [9], [13]], np.int8)  # each group's place among the 17
    sig = np.where(groups > 0, tables().last_nonzero[groups] + places, np.int8(0)).max(axis=0)
    return np.take(tables().digits.view(np.uint32), groups.T).view(np.uint8), sig


def real_records(values: np.ndarray) -> np.ndarray:
    """The '%.17g' text of each float64 as a record of REAL_WIDTH bytes,
    NUL wherever it keeps nothing and ',' in its last byte.

    decimal17 gives the 17 digits and the exponent X, and _spelled their
    ASCII.  '%g' writes fixed-point for -4 <= X < 17 and e-notation
    otherwise, without trailing zeros or a bare '.', so what a record keeps
    depends only on that layout, on the count of significant digits and on
    the sign: one row of the keep table zeroes the rest.  nan, inf and
    every value decimal17 is unsure of are written by '%.17g' itself, at the
    start of a zeroed record.
    """
    special = ~np.isfinite(values)
    a = np.abs(values)
    a[special] = 1.0
    n, x, unsure = decimal17(a)
    digits, sig = _spelled(n)
    layout = np.where((x >= -4) & (x < 17), x + np.int64(4), np.int64(21) + (np.abs(x) >= 100))
    key = (layout * np.int64(18) + sig) * np.int64(2) + np.signbit(values)
    text = np.empty((len(values), REAL_WIDTH), np.uint8)
    text[:, :20] = digits
    text[:, 2] = ord("-")
    text[:, 20:22] = np.frombuffer(b"0.", np.uint8)
    text[:, 22:42] = digits
    e_rows = np.flatnonzero(layout >= 21)
    text[e_rows, 42:47] = np.take(tables().exponent, x[e_rows] + np.int64(324), axis=0)
    np.multiply(text, np.take(tables().keep, key, axis=0), out=text)
    text[:, -1] = ord(",")
    for i in np.flatnonzero(special | unsure).tolist():
        exact = b"%.17g" % values[i]
        text[i, :-1] = 0
        text[i, : len(exact)] = np.frombuffer(exact, np.uint8)
    return text


def _packed(texts: list[bytes]) -> np.ndarray:
    """Each text in a record one byte wider than the longest, NUL after it
    and ',' in its last byte.  A text must hold no NUL or ','."""
    width = max(map(len, texts), default=0) + 1
    records = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)
    records[:, -1] = ord(",")
    return records


def _block_text(columns: list[np.ndarray], coded: list) -> bytes:
    """The CSV bytes of one block of rows, from its slice of each column and,
    for a coded column, the records of its values (_coded_records), which
    its codes index; None marks a real column.

    The real columns are formatted together, in row order, so when they are
    the whole table their records already are the rows; otherwise each
    column's records are joined along the row.  The last ',' of a row
    becomes its line break, and the rows' bytes with their NULs deleted are
    the text.
    """
    plain = [c for c, records in zip(columns, coded) if records is None]
    values = np.empty((len(columns[0]), len(plain)))
    for j, column in enumerate(plain):
        values[:, j] = column
    text = real_records(values.ravel())
    if len(plain) < len(columns):
        reals = list(text.reshape(len(values), len(plain), REAL_WIDTH).transpose(1, 0, 2))
        parts = [reals.pop(0) if r is None else r.take(c, axis=0) for c, r in zip(columns, coded)]
        text = np.concatenate(parts, axis=1)
        del parts  # its views of the real records
    text = text.reshape(len(values), -1)
    text[:, -1] = ord("\n")
    text = text.tobytes()  # the records are freed before the NULs are deleted
    return text.translate(None, b"\0")


def _coded_records(values: tuple[str, ...] | np.ndarray) -> np.ndarray:
    """The records a coded column's codes index, packed (_packed) from the
    UTF-8 of a label column's names or the text of a coded real column's
    values, which never holds ','."""
    if isinstance(values, tuple):
        return _packed([name.encode() for name in values])
    return _packed(real_records(values).tobytes().translate(None, b"\0").split(b",")[:-1])


def csv_text(names: Sequence[str], columns: Sequence[np.ndarray], values: Sequence):
    """Yield the CSV text of a table: its header line of names, then the
    bytes of each block of rows.

    columns[j] is column j, float64 reals where values[j] is None and
    otherwise int32 codes into values[j], the str names of a label column
    as a tuple or the reals of a coded one as a float64 array.  Reals are
    written as '%.17g' writes them and names as their UTF-8, which must hold
    no NUL: every record holds NUL wherever it keeps nothing, and a block's
    text is its records' bytes with the NULs deleted (_block_text).  A coded
    column's records are made once from its values (_coded_records), and
    its codes take them.  A block holds WRITE_BLOCK reals, WRITE_BLOCK //
    (float64 columns) rows, or WRITE_BLOCK rows of coded columns alone: a
    coded column formats no real, and a real_records call costs about 77 us
    before its first value, so the coded columns do not shrink the block.
    """
    yield (",".join(names) + "\n").encode()
    coded = [None if v is None else _coded_records(v) for v in values]
    step = max(1, WRITE_BLOCK // max(1, sum(v is None for v in values)))
    for lo in range(0, len(columns[0]), step):
        yield _block_text([column[lo : lo + step] for column in columns], coded)


#: The bits of 999.9995, the least double that '%.3f' writes as 1000.000,
#: since it lies above the decimal 999.9995: read as uint64, a double's
#: text lies in [0.000, 999.999] exactly when its bits are below these, since
#: a set sign bit or a NaN reads higher.
_BOX_BITS = np.float64(999.9995).view(np.uint64)


def point_text(points: np.ndarray) -> list[bytes]:
    """The bytes of '%.3f,%.3f' for each (x, y) row of points, joined by
    spaces, as the list of chunks of WRITE_BLOCK points it is made in.

    Every coordinate's text must lie in [0, 1000), as the chart's do; a
    non-finite coordinate, a negative one, -0.0 included, or one that rounds
    to 1000.000 raises ValueError.  '%.3f' of v is the round-half-even of
    the exact product v*1000.  rint of p = fl(v*1000) gives it unless p is a
    half-integer: every half-integer below 2**52 is a double, so v*1000 and p
    lie on the same side of any other.  At a half-integer p the sign of
    Dekker's error term e = v*1000 - p (two_product) decides, and e == 0 is
    a true tie, which rint already broke to even.

    Each coordinate becomes two uint32 words from the point tables: the
    separator before it (',' before y, ' ' before x) with its integer digits,
    whose leading zeros are NUL bytes, and then ".ddd".  The first chunk's
    first separator is made a NUL too, so deleting the NULs leaves each
    chunk's text, and the chunks are never joined.
    """
    chunks = []
    for lo in range(0, len(points), WRITE_BLOCK):
        v = points[lo : lo + WRITE_BLOCK].ravel()
        if not np.all(v.view(np.uint64) < _BOX_BITS):
            raise ValueError("SVG coordinates must be finite and round into [0, 1000)")
        p = v * 1000.0
        n = np.rint(p)
        ties = np.flatnonzero(np.abs(p - n) == 0.5)
        if ties.size:
            err = two_product(v[ties], 1000.0)[1]
            n[ties] = np.rint(p[ties] + 0.5 * np.sign(err))
        whole = np.floor(n * 0.001)  # exact: 0.001 rounds up, and n < 2**53
        frac = n - 1000.0 * whole
        whole[1::2] += 1000.0  # y follows ','
        words = np.empty((len(v), 2), np.uint32)
        words[:, 0] = tables().point_whole[whole.astype(np.intp)]
        words[:, 1] = tables().point_fraction[frac.astype(np.intp)]
        if lo == 0:
            words.view(np.uint8)[0, 0] = 0
        # A chart's NULs are sparse, a few percent of a chunk's bytes: replace
        # jumps from one to the next, where translate walks every byte.
        chunks.append(words.tobytes().replace(b"\0", b""))
    return chunks
