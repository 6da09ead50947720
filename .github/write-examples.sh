#!/usr/bin/env bash
# Writes the README example files into the current directory.  CI runs it
# twice per job to check that repeats are byte-identical, and compares the
# files of two numpy builds in the cross-version job.
set -euo pipefail
hydrobench dispersion --model burnett --eps 0.1 --kmin 0.1 --kmax 4 --samples 64 \
  --out dispersion.csv --svg
hydrobench evolve --model euler --ic u:1:1 --tmax 4.8669344111683355 \
  --dt-out 4.8669344111683355 --grid-size 64 --out evolve.csv
hydrobench compare --model burnett --model navier_stokes --ic u:1:1 --eps 0.1 \
  --tmax 20 --dt-out 0.5 --grid-size 64 --out compare.csv
hydrobench secular --ic u:1:1 --eps 0.05 --tmax 400 --dt-out 0.5 --out secular.csv --svg
hydrobench dispersion --model euler,ns,burnett,riemann,moment --eps 0.1 --kmin 0.1 \
  --kmax 2.5 --samples 2048 --out sweep.csv --svg
hydrobench dispersion --model euler,ns,burnett,riemann --eps 0.1 --kmin 0.1 \
  --kmax 2.5 --samples 2048 --out sweep_closed_form.csv --svg
hydrobench evolve --model moment_reference --ic u:1:1,p:2:0.3 --eps 0.1 --tmax 5 \
  --dt-out 0.5 --grid-size 64 --out moment.csv --svg
hydrobench evolve --model moment_reference --ic u:1:1,p:2:0.3,s:3:0.2 --eps 0.1 \
  --tmax 5 --dt-out 0.5 --grid-size 63 --out moment_odd.csv --svg
hydrobench evolve --model burnett --eps 0.1 --ic u:1:1.1:0.3,p:3:0.5:1.2,s:2:0.4:2.0 \
  --tmax 10 --dt-out 0.1 --grid-size 256 --out snapshots.csv --svg
hydrobench compare --model burnett,navier_stokes --ic u:1:1,p:3:0.5:0.2 --eps 0.1 \
  --tmax 20 --dt-out 0.5 --grid-size 63 --out compare_odd.csv
hydrobench evolve --model navier_stokes --ic u:1:1,p:3:0.5:0.2 --eps 0.1 --tmax 100 \
  --dt-out 5 --grid-size 63 --out ns_long.csv
printf '%s\n' model=burnett,navier_stokes ic=u:1:1,p:3:0.5:0.2 eps=0.1 tmax=20 \
  dt-out=0.5 grid-size=63 out=compare_odd_config.csv > compare_odd.cfg
hydrobench compare --config compare_odd.cfg
