#!/bin/sh
# Alternated A/B pairs of one benchmark metric: `make abpairs`.
#
# Builds cmd/bench once at BASE (checked out in a scratch git worktree that
# is removed on exit, a failed run included) and once in this tree, then runs
# PAIRS pairs of `bench -trace 0 -workload WORKLOAD` in ABBA order (base
# first in even pairs, head first in odd ones), so a drift in the machine's
# speed weighs on both sides alike. Each binary runs from its own checkout,
# since cmd/bench builds giraffed from the module it runs in. Prints each
# pair's base and head values, both medians, and in how many pairs the
# change came out lower. Every run's JSON stays in abpairs-run/. Each run
# lasts as long as cmd/bench's own default. Not part of `make ci`:
# a timing verdict needs a quiet machine.
#
#   BASE=HEAD^ WORKLOAD=batch_kernels METRIC=setup_s PAIRS=10 sh scripts/abpairs.sh
set -eu
BASE=${BASE:-HEAD^}
WORKLOAD=${WORKLOAD:-batch_kernels}
METRIC=${METRIC:-setup_s}
PAIRS=${PAIRS:-10}
GO=${GO:-go}

rev=$(git rev-parse --verify "$BASE^{commit}")
root=$(git rev-parse --show-toplevel)
cd "$root"
rm -rf abpairs-run
mkdir abpairs-run
out=$root/abpairs-run
wt="$out/base"
cleanup() {
	git -C "$root" worktree remove --force "$wt" 2>/dev/null || true
	git -C "$root" worktree prune
}
trap cleanup EXIT
trap 'exit 1' INT TERM

# A run killed outright leaves its worktree registered; forget it first.
git worktree prune
git worktree add --quiet --detach "$wt" "$rev"
(cd "$wt" && $GO build -o "$out/bench-base" ./cmd/bench)
$GO build -o "$out/bench-head" ./cmd/bench

# value FILE: the metric's value in a bench document (the first "value"
# after the metric's key; -trace 0 runs one tier of one workload).
value() {
	awk -v key="\"$METRIC\": {" '
		index($0, key) { found = 1; next }
		found && /"value":/ { v = $2; sub(/,$/, "", v); print v; exit }
	' "$1"
}

# run SIDE PAIR: one bench run of SIDE from its own checkout.
run() {
	dir=$root
	if [ "$1" = base ]; then dir=$wt; fi
	(cd "$dir" && "$out/bench-$1" -trace 0 -workload "$WORKLOAD" \
		-workdir "$out/work-$1" >"$out/$1-$2.json" 2>"$out/$1-$2.err") ||
		{ echo "abpairs: $1 run $2 failed; see $out/$1-$2.err" >&2; exit 1; }
	v=$(value "$out/$1-$2.json")
	if [ -z "$v" ]; then echo "abpairs: no $METRIC in $out/$1-$2.json" >&2; exit 1; fi
	echo "$v"
}

echo "abpairs: $WORKLOAD $METRIC, base $(git rev-parse --short "$rev") vs this tree, $PAIRS pairs"
: >"$out/pairs.tsv"
i=0
while [ "$i" -lt "$PAIRS" ]; do
	if [ $((i % 2)) -eq 0 ]; then
		b=$(run base "$i")
		h=$(run head "$i")
	else
		h=$(run head "$i")
		b=$(run base "$i")
	fi
	printf '%s\t%s\n' "$b" "$h" >>"$out/pairs.tsv"
	printf 'pair %2d  base %-12s head %s\n' "$i" "$b" "$h"
	i=$((i + 1))
done

sort -g -k1,1 "$out/pairs.tsv" | awk '{ v[NR] = $1 } END { m = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2; printf "median base %g\n", m }'
sort -g -k2,2 "$out/pairs.tsv" | awk '{ v[NR] = $2 } END { m = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2; printf "median head %g\n", m }'
awk '$2 < $1 { k++ } END { printf "change lower in %d of %d\n", k, NR }' "$out/pairs.tsv"
