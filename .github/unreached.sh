#!/usr/bin/env bash
# Prints the functions of internal/protocol, internal/protocols (ptest
# excluded) and internal/sim that no small CI run reaches, one
# "file function" per line, sorted. The runs are ci.yml's smaller
# cmd/bench lines and the paper tools, built with -cover. CI diffs the
# output against .github/unreached.txt, which may only shrink; after
# reaching or deleting a listed function, refresh it with
#
#	.github/unreached.sh > .github/unreached.txt
set -euo pipefail
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/bin" "$work/cov"
for c in bench table1 impossibility constructions audit latency; do
  go build -cover -o "$work/bin/$c" ./cmd/$c
done
go build -cover -o "$work/bin/quickstart" ./examples/quickstart
export GOCOVERDIR="$work/cov"
cd "$work/bin"
bench() { ./bench "$@" > /dev/null; }
bench -curve -protocols all -servers 2 -fractions 0.1 -txns 120
bench -curve -topology 2site -protocols cops -servers 4 -curveclients 8 -txns 400 -fractions 0.5,1.1 -workers 4
bench -curve -arrivals uniform -protocols cops -servers 2 -fractions 0.5 -txns 120
for bad in "-curve -stale" "-refineknee" "-servers 2 -replication 3" "-rebalance" "-barrier" "-workers 0" "-topology nosuch"; do
  ./bench $bad > /dev/null 2>&1 || true
done
bench -protocols cops,cure,spanner -mixes balanced -objects 64 -servers 8 -clients 64 -txns 4000 -workers 4
bench -certify -protocols cops,cure -servers 2,4,8 -clients 16 -txns 2000
bench -certify -protocols cops,cure -servers 16 -clients 16 -txns 2000
bench -certify -topology 2site -protocols cops,cure -servers 4 -clients 16 -txns 400
bench -certify -protocols cops,spanner -mixes balanced -servers 2 -objects 1 -clients 2 -txns 6000
bench -certify -protocols all -mixes readheavy,balanced -servers 2,4,8 -replication 1,2 -clients 8 -txns 600 -seed 1
bench -protocols cops,cure -topology 2site -clients 16 -txns 400 -servers 4 -workers 4
bench -protocols all -mixes readheavy,balanced -servers 2,4 -clients 8 -txns 300 -seed 3 -workers 4
bench -certify -protocols cops,spanner,naivefast -servers 2,4 -clients 8 -txns 400 -workers 4
bench -stale -replication 2 -mixes balanced -protocols cops,cure -servers 2 -clients 8 -txns 300 -seed 1
bench -stale -nemesis crash+partition -mixes balanced -protocols cops,spanner -clients 8 -txns 400 -servers 4 -pipeline 4
for nem in crash crash-lose partition replace restore; do
  bench -nemesis $nem -certify -protocols cops,spanner -clients 8 -txns 400 -servers 4
done
bench -nemesis replace-lose -replication 2 -protocols cops,fatcops,ramp -servers 4 -clients 8 -txns 600
./table1 > /dev/null
./impossibility > /dev/null
./constructions > /dev/null
./constructions -fig 2 > /dev/null
./constructions -fig 3 > /dev/null
./audit > /dev/null
./latency -txns 20 > /dev/null
./quickstart > /dev/null
go tool covdata func -i "$GOCOVERDIR" |
  awk '$NF == "0.0%" { split($1, f, ":"); print f[1], $2 }' |
  sed 's|^repro/||' |
  grep -E '^internal/(protocol|protocols/[a-z]+|sim)/' |
  grep -v '^internal/protocols/ptest/' |
  sort
