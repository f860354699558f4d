#!/usr/bin/env bash
# Non-test lines of each crate's `src` and of all of them together, blank
# lines and comments included, test modules cut by the rule of
# scripts/nontest.sh. Run from anywhere: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/nontest.sh

total=0
for src in crates/*/src; do
  crate=${src#crates/}
  crate=${crate%/src}
  n=$(nontest $(find "$src" -name '*.rs' | sort) | wc -l)
  printf '%-12s %7d\n' "$crate" "$n"
  total=$((total + n))
done
printf '%-12s %7d\n' total "$total"
