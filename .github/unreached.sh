#!/usr/bin/env bash
# Prints the functions of every package of the module (the test helper
# internal/protocols/ptest excluded) that no small CI run reaches, one
# "file function" per line, sorted. The runs are .github/runs.txt
# (ci.yml's smaller cmd/bench lines, the paper tools and the examples),
# each binary built with -cover from cmd/<name> or examples/<name>. CI
# diffs the output against .github/unreached.txt, which may only shrink;
# after reaching or deleting a listed function, refresh it with
#
#	.github/unreached.sh > .github/unreached.txt
set -euo pipefail
runs=$(cd "$(dirname "$0")" && pwd)/runs.txt
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/bin" "$work/cov"
for c in $(awk '!/^#/ && NF { print $1 == "!" ? $2 : $1 }' "$runs" | sort -u); do
  pkg=./cmd/$c
  [ -d "$pkg" ] || pkg=./examples/$c
  go build -cover -o "$work/bin/$c" "$pkg"
done
export GOCOVERDIR="$work/cov"
cd "$work/bin"
while read -r -a run; do
  case ${run[0]:-#} in
  '#'*) ;;
  '!') "./${run[1]}" "${run[@]:2}" > /dev/null 2>&1 < /dev/null || true ;;
  *) "./${run[0]}" "${run[@]:1}" > /dev/null < /dev/null ;;
  esac
done < "$runs"
go tool covdata func -i "$GOCOVERDIR" |
  awk '$NF == "0.0%" { split($1, f, ":"); print f[1], $2 }' |
  sed 's|^repro/||' |
  grep -v '^internal/protocols/ptest/' |
  sort
