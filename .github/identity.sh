#!/usr/bin/env bash
# Runs .github/runs.txt (the runs .github/unreached.sh covers) at <rev>
# and at the working tree and compares each run's output, stderr and
# exit status included, with the wall-clock lines (`_wall_ms"`) filtered
# out. Each binary is built in both trees from cmd/<name> or
# examples/<name>, whichever exists. Prints one line per run, "same" or
# "DIFF", and exits 1 on any difference. <rev> is extracted with `git
# archive` into a temp dir, removed on exit:
#
#	.github/identity.sh HEAD~1
set -euo pipefail
rev=${1:?usage: .github/identity.sh <rev>}
root=$(git rev-parse --show-toplevel)
runs=$root/.github/runs.txt
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$root" archive "$rev" | tar -x -C "$work/base"
for tree in base head; do
  src=$work/base
  [ $tree = head ] && src=$root
  mkdir "$work/$tree-bin" "$work/$tree-out"
  for c in $(awk '!/^#/ && NF { print $1 == "!" ? $2 : $1 }' "$runs" | sort -u); do
    pkg=./cmd/$c
    [ -d "$src/$pkg" ] || pkg=./examples/$c
    (cd "$src" && go build -o "$work/$tree-bin/$c" "$pkg")
  done
done
diffs=0
i=0
while read -r -a run; do
  case ${run[0]:-#} in '#'*) continue ;; esac
  i=$((i + 1))
  cmd=("${run[@]}")
  [ "${cmd[0]}" = '!' ] && cmd=("${cmd[@]:1}")
  for tree in base head; do
    status=0
    (cd "$work/$tree-bin" && "./${cmd[0]}" "${cmd[@]:1}") > "$work/raw" 2>&1 < /dev/null || status=$?
    { grep -v '_wall_ms"' "$work/raw" || true; echo "exit $status"; } > "$work/$tree-out/$i"
  done
  if cmp -s "$work/base-out/$i" "$work/head-out/$i"; then
    echo "same  ${run[*]}"
  else
    echo "DIFF  ${run[*]}"
    diffs=$((diffs + 1))
  fi
done < "$runs"
echo "$diffs of $i runs differ from $rev"
[ $diffs -eq 0 ]
