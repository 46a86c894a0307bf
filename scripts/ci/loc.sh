#!/usr/bin/env bash
# Prints the non-test lines of each crate under crates/ and their total:
# every .rs file under crates/*/src counts up to its first `#[cfg(test)]`
# line, where its unit tests start. It only prints; nothing is gated on
# the numbers.
set -euo pipefail
cd "$(dirname "$0")/../.."
total=0
for src in crates/*/src; do
  crate=${src#crates/}
  crate=${crate%/src}
  n=$(find "$src" -name '*.rs' -exec awk '
        FNR == 1 { tests = 0 }
        /^#\[cfg\(test\)\]/ { tests = 1 }
        !tests { n++ }
        END { print n + 0 }' {} +)
  printf '%-10s %6d\n' "$crate" "$n"
  total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
