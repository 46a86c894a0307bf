#!/usr/bin/env bash
# Runs every (package, target) pair of ci/must-run.txt once and fails
# unless every test listed for it ran and passed and the run ignored and
# filtered out nothing. A test that is renamed, moved or gated away fails
# here, not silently.
set -euo pipefail
cd "$(dirname "$0")/../.."
list=ci/must-run.txt
logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT
rows() { grep -vE '^[[:space:]]*(#|$)' "$list"; }
fail=0
while read -r pkg target; do
  case $target in
    lib) flags=(--lib) ;;
    doc) flags=(--doc) ;;
    test:*) flags=(--test "${target#test:}") ;;
    *) echo "must-run: $list names an unknown target '$target'" >&2; exit 2 ;;
  esac
  log="$logs/$pkg.${target#test:}.log"
  echo "== cargo test -p $pkg ${flags[*]}"
  cargo test -p "$pkg" "${flags[@]}" < /dev/null 2>&1 | tee "$log"
  if grep -E "test result:.* [1-9][0-9]* (ignored|filtered out)" "$log"; then
    echo "must-run: $pkg $target left tests unrun" >&2
    fail=1
  fi
  while read -r _ _ pattern; do
    if ! grep -E -- "$pattern" "$log" | grep -q '\.\.\. ok$'; then
      echo "must-run: $pkg $target: no passing test matches '$pattern'" >&2
      fail=1
    fi
  done < <(rows | awk -v p="$pkg" -v t="$target" '$1 == p && $2 == t')
done < <(rows | awk '!seen[$1 FS $2]++ { print $1, $2 }')
exit $fail
