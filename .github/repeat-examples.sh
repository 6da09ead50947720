#!/usr/bin/env bash
# Writes the README example files twice, into DIR/a and DIR/b, and cmps every
# file of one run with the other's: identical configurations must write
# byte-identical files.  Usage: repeat-examples.sh DIR
set -euo pipefail
work="$1"
here="$(cd "$(dirname "$0")" && pwd)"
for run in a b; do
  mkdir -p "$work/$run"
  (cd "$work/$run" && bash "$here/write-examples.sh")
done
test "$(ls "$work/a")" = "$(ls "$work/b")"
for file in "$work"/a/*; do
  cmp "$file" "$work/b/${file##*/}"
done
