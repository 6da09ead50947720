"""Check the text of every CSV and SVG under a directory, recursively.

No CSV or SVG may hold a NUL byte: the writer deletes the NULs of its
records, so one left behind would mean a record kept a byte it never
wrote.  Every CSV row must have as many cells as its header, and every real
in a CSV, each cell of a column other than the label columns model and
branch, must be its own '%.17g' text.  Every SVG must parse as XML, and
every polyline coordinate must be its own '%.3f' text, so no separator is
lost or doubled where the point text's chunks meet.  Only the standard
library is used.

Usage: python .github/check-text.py DIR
"""

import csv
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

LABELS = ("model", "branch")
POLYLINE = "{http://www.w3.org/2000/svg}polyline"


def check(root: Path) -> int:
    """Assert the text of every file under root; returns how many were checked."""
    count = 0
    for path in sorted(root.rglob("*.csv")):
        assert b"\0" not in path.read_bytes(), f"{path} holds a NUL byte"
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows)
            for number, row in enumerate(rows, start=2):
                cells = f"{path}: row {number} has {len(row)} cells, its header {len(header)}"
                assert len(row) == len(header), cells
                for name, cell in zip(header, row):
                    if name not in LABELS:
                        assert format(float(cell), ".17g") == cell, (path, name, cell)
        count += 1
    for path in sorted(root.rglob("*.svg")):
        assert b"\0" not in path.read_bytes(), f"{path} holds a NUL byte"
        for line in ET.parse(path).getroot().iter(POLYLINE):
            for point in line.get("points").split(" "):
                x, y = point.split(",")
                for c in (x, y):
                    assert format(float(c), ".3f") == c, (path, point)
        count += 1
    return count


if __name__ == "__main__":
    print(f"{check(Path(sys.argv[1]))} files checked")
