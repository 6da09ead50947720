#!/usr/bin/env bash
# On an odd FFT length the Parseval gaps pass the final-time synthesis check,
# and they are compare_large's, since the gaps do not depend on N: compare at
# N = 65,537 must agree with DIR/a/compare_large.csv (N = 65,536, written by
# repeat-examples.sh) within 1e-14 of each column's maximum.
# Usage: compare-large-odd.sh DIR
set -euo pipefail
work="$1"
hydrobench compare --model euler,ns,burnett,riemann --ic u:1:1,p:3:0.5:0.2,s:2:0.3 \
  --eps 0.1 --tmax 10 --dt-out 0.5 --grid-size 65537 --out "$work/compare_large_odd.csv"
python -c '
import sys
import numpy as np
even, odd = (np.genfromtxt(path, delimiter=",", names=True) for path in sys.argv[1:])
assert even.dtype.names == odd.dtype.names and np.array_equal(even["t"], odd["t"])
for name in even.dtype.names[1:]:
    bound = 1e-14 * np.abs(even[name]).max()
    assert np.all(np.abs(odd[name] - even[name]) <= bound), name
' "$work/a/compare_large.csv" "$work/compare_large_odd.csv"
