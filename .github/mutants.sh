#!/usr/bin/env bash
# Checks the mutant table .github/mutants.txt at <rev> (default HEAD):
# for each row it extracts <rev> with `git archive` into a temp dir,
# applies .github/mutants/<name>.patch, requires the package's tests to
# compile, and requires the named test to fail. Prints one line per row,
# "killed" or "SURVIVED" (or "STALE" when the patch no longer applies
# or the mutant does not compile), and exits 1 unless every row is
# killed:
#
#	.github/mutants.sh
set -euo pipefail
rev=${1:-HEAD}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bad=0
n=0
while read -r name pkg test; do
  case ${name:-#} in '#'*) continue ;; esac
  n=$((n + 1))
  rm -rf "$work/tree"
  mkdir "$work/tree"
  git -C "$root" archive "$rev" | tar -x -C "$work/tree"
  if ! (cd "$work/tree" && git apply "$root/.github/mutants/$name.patch" &&
    go test -count=1 -run '^$' "$pkg") > "$work/log" 2>&1; then
    echo "STALE     $name"
    cat "$work/log"
    bad=$((bad + 1))
  elif (cd "$work/tree" && go test -count=1 -run "$test" "$pkg") > "$work/log" 2>&1; then
    echo "SURVIVED  $name ($pkg $test)"
    bad=$((bad + 1))
  else
    echo "killed    $name ($pkg $test)"
  fi
done < "$root/.github/mutants.txt"
echo "$bad of $n mutants not killed at $rev"
[ $bad -eq 0 ]
