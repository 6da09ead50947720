#!/usr/bin/env bash
# Checks of the CLI's files and exit codes beyond the README examples: a
# reordered sweep, a config file, zero-amplitude terms, the gap columns of
# compare, the shared t = 0 rows, amplitude-free secular ratios, and the
# usage and numerical errors, each with one stderr line and no file.  DIR/a
# must hold the README example files (repeat-examples.sh writes them); the
# files these checks write go into DIR.  Usage: cli-checks.sh DIR
set -euo pipefail
work="$1"
here="$(cd "$(dirname "$0")" && pwd)"
# A config file writes what the same flags write.
cmp "$work/a/compare_odd.csv" "$work/a/compare_odd_config.csv"
# A zero-amplitude term occupies no column, so it moves no byte.
hydrobench compare --model burnett,navier_stokes --ic u:1:1,p:3:0.5:0.2,s:7:0 \
  --eps 0.1 --tmax 20 --dt-out 0.5 --grid-size 63 --out "$work/compare_odd_zero.csv"
cmp "$work/a/compare_odd.csv" "$work/compare_odd_zero.csv"
# A model's gap column does not depend on the other models compared,
# and the t = 0 row is exact zeros.
compare_flags="--ic u:1:1,p:3:0.5:0.2,s:2:0.3 --eps 0.1 --tmax 10 --dt-out 0.5 --grid-size 64"
hydrobench compare --model burnett $compare_flags --out "$work/compare_burnett.csv"
hydrobench compare --model burnett,euler $compare_flags --out "$work/compare_pair.csv"
cut -d, -f1,2 "$work/compare_burnett.csv" > "$work/compare_burnett.cut"
cut -d, -f1,2 "$work/compare_pair.csv" > "$work/compare_pair.cut"
cmp "$work/compare_burnett.cut" "$work/compare_pair.cut"
test "$(sed -n 2p "$work/compare_pair.csv")" = "0,0,0"
bash "$here/compare-large-odd.sh" "$work"
hydrobench evolve --model navier_stokes --ic u:1:1,p:3:0.5:0.2,s:7:0 --eps 0.1 \
  --tmax 100 --dt-out 5 --grid-size 63 --out "$work/ns_long_zero.csv"
cmp "$work/a/ns_long.csv" "$work/ns_long_zero.csv"
# Every model's t = 0 rows are the same synthesized spectrum: the header
# and the first N rows match byte for byte, the moment system's included.
n=63
for model in euler navier_stokes burnett riemann moment; do
  hydrobench evolve --model "$model" --ic u:1:1,p:3:0.5:0.2,s:3:0.3:1.1 --eps 0.1 \
    --tmax 1 --dt-out 1 --grid-size "$n" --out "$work/start_$model.csv"
  head -n $((n + 1)) "$work/start_$model.csv" > "$work/start_$model.head"
  cmp "$work/start_euler.head" "$work/start_$model.head"
done
# The order and repeats of --model move no byte: labels are coded by sorted name.
hydrobench dispersion --model moment,riemann,navier_stokes,burnett,euler,euler --eps 0.1 \
  --kmin 0.1 --kmax 2.5 --samples 2048 --out "$work/sweep_reordered.csv" --svg
cmp "$work/a/sweep.csv" "$work/sweep_reordered.csv"
cmp "$work/a/sweep.svg" "$work/sweep_reordered.svg"
# The secular ratios do not depend on the amplitude, however large.
secular_flags="--eps 0.05 --tmax 400 --dt-out 0.5"
hydrobench secular --ic u:1:1e308 $secular_flags --out "$work/secular_huge.csv"
hydrobench secular --ic u:1:1 $secular_flags --out "$work/secular_unit.csv"
cmp "$work/secular_huge.csv" "$work/secular_unit.csv"
# A fast-decaying wave keeps finite ratios up to 1/eps^2, and secular takes any mode.
# Its chart's 20,000-point polylines span several chunks of point text.
hydrobench secular --ic u:3:1 --eps 0.01 --tmax 10000 --dt-out 0.5 \
  --out "$work/secular_mode3.csv" --svg
hydrobench secular --ic u:128:1 --tmax 1 --out "$work/secular_mode128.csv"
# secular has no grid, so --grid-size is a usage error with one stderr line and no file.
status=0
hydrobench secular --ic u:1:1 --grid-size 16 --out "$work/grid.csv" \
  2> "$work/grid.err" || status=$?
cat "$work/grid.err"
test "$status" -eq 1
test "$(wc -l < "$work/grid.err")" -eq 1
test ! -e "$work/grid.csv"
# An overflowing initial condition exits 2 with one stderr line and no file.
status=0
hydrobench evolve --model burnett --ic u:1:1e308,u:1:1e308 --out "$work/overflow.csv" \
  2> "$work/overflow.err" || status=$?
cat "$work/overflow.err"
test "$status" -eq 2
test "$(wc -l < "$work/overflow.err")" -eq 1
test ! -e "$work/overflow.csv"
# A dispersion grid whose first point is past the moment system's branch merge
# exits 2 with one stderr line and no file.
status=0
hydrobench dispersion --model moment --eps 0.1 --kmin 5 --kmax 6 --samples 4 \
  --out "$work/merged.csv" 2> "$work/merged.err" || status=$?
cat "$work/merged.err"
test "$status" -eq 2
test "$(wc -l < "$work/merged.err")" -eq 1
test ! -e "$work/merged.csv"
# A secular phase that expm cannot hold fails the route check: exit 2 with
# one stderr line and no file.
for lambda02 in -1e-12 -1e-11; do
  status=0
  hydrobench secular --eps 0.05 --ic u:1:1 --lambda02="$lambda02" --tmax 400 \
    --dt-out 0.5 --out "$work/phase.csv" 2> "$work/phase.err" || status=$?
  cat "$work/phase.err"
  test "$status" -eq 2
  test "$(wc -l < "$work/phase.err")" -eq 1
  test ! -e "$work/phase.csv"
done
# Flags that size an array beyond the limit are a usage error before any allocation.
status=0
hydrobench evolve --model euler --ic u:1:1 --tmax 1 --dt-out 1e-300 \
  --out "$work/huge.csv" 2> "$work/huge.err" || status=$?
cat "$work/huge.err"
test "$status" -eq 1
test "$(wc -l < "$work/huge.err")" -eq 1
test ! -e "$work/huge.csv"
# A lambda02 whose transport coefficients are no finite floats is a usage
# error with one stderr line and no file, even for a model that needs none.
status=0
hydrobench dispersion --model euler --lambda02=-1e-320 --out "$work/tiny.csv" \
  2> "$work/tiny.err" || status=$?
cat "$work/tiny.err"
test "$status" -eq 1
test "$(wc -l < "$work/tiny.err")" -eq 1
test ! -e "$work/tiny.csv"
