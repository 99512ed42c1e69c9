#!/bin/sh
# cli_smoke.sh — the paper's deliverable binaries at their own boundaries,
# run by `make cli-smoke` locally and by the bench-smoke CI job. The Go
# harness proves the five-leg CSV identity in-process; this proves it once
# across the mains nothing else executes:
#
#   1. validate: proxy == parent, batch and streamed-from-FASTQ legs, exit 0.
#   2. three capture routes (genworkload's, extractseeds', giraffe -capture's)
#      mapped by `minigiraffe -seeds`, plus `minigiraffe -fastq`: the four
#      CSVs must share one SHA-256.
#   3. a checked-in capture whose one seed names node 2^30 (outside any
#      generated graph; internal/seeds/gen_corpus.go writes it) must end
#      minigiraffe, batch and -stream, with an error naming the record and
#      the seed — not a goroutine dump.
#   4. coverage ledger: validate, genworkload, extractseeds, giraffe and
#      minigiraffe are built with -cover (scripts/cover_build.sh, the build
#      scripts/work_profile.sh shares), and every function of the map-path
#      packages (internal/{snarl,cluster,extend,align,gbwt}) these runs reach
#      or miss is listed as "covered" or "zero" in coverage.txt, which must
#      equal the committed results/coverage_baseline.txt.
set -eu

GO="${GO:-go}"
SMOKE_DIR="${SMOKE_DIR:-cli-smoke}"
CORRUPT=internal/seeds/testdata/node-outside-graph.bin
BASELINE=results/coverage_baseline.txt
d="$SMOKE_DIR"

mkdir -p "$d"
echo "== building binaries"
GO="$GO" sh scripts/cover_build.sh "$d" validate genworkload extractseeds giraffe minigiraffe
rm -rf "$d/covdata"
mkdir -p "$d/covdata"
GOCOVERDIR="$d/covdata"
export GOCOVERDIR

echo "== generating workload"
"$d/genworkload" -input A-human -scale 2 -outdir "$d"
gbz="$d/A-human.gbz"
fq="$d/A-human.fq"

echo "== validate (expect exit 0, both legs at 100%)"
"$d/validate" -gbz "$gbz" -reads "$fq" -threads 2 >"$d/validate.log" || {
    cat "$d/validate.log"
    echo "FAIL: validate exited non-zero"
    exit 1
}
cat "$d/validate.log"
if [ "$(grep -c 'PASS (100% match)' "$d/validate.log")" -ne 2 ]; then
    echo "FAIL: validate did not report both legs at 100%"
    exit 1
fi

echo "== three capture routes + -fastq (expect one CSV SHA-256)"
"$d/extractseeds" -gbz "$gbz" -reads "$fq" -out "$d/extractseeds.bin"
"$d/giraffe" -gbz "$gbz" -reads "$fq" -threads 2 -capture "$d/giraffe.bin" -out /dev/null
for leg in A-human-seeds extractseeds giraffe; do
    "$d/minigiraffe" -gbz "$gbz" -seeds "$d/$leg.bin" -threads 2 -manifest off -out "$d/$leg.csv"
done
"$d/minigiraffe" -gbz "$gbz" -fastq "$fq" -threads 2 -manifest off -out "$d/fastq.csv"
sha256sum "$d/A-human-seeds.csv" "$d/extractseeds.csv" "$d/giraffe.csv" "$d/fastq.csv" | tee "$d/csv.sha256"
if [ "$(cut -d' ' -f1 "$d/csv.sha256" | sort -u | wc -l)" -ne 1 ]; then
    echo "FAIL: the four routes into the kernels wrote different CSVs"
    exit 1
fi

echo "== capture naming a node the graph lacks (expect an error, not a panic)"
for mode in "" -stream; do
    rc=0
    "$d/minigiraffe" -gbz "$gbz" -seeds "$CORRUPT" $mode -manifest off -out /dev/null 2>"$d/corrupt.err" || rc=$?
    cat "$d/corrupt.err"
    if [ "$rc" -eq 0 ] || grep -q 'goroutine ' "$d/corrupt.err" ||
        ! grep -q 'record 0: .*"w" seed 0' "$d/corrupt.err"; then
        echo "FAIL: minigiraffe $mode exited $rc on $CORRUPT; want non-zero, the record and seed named, no goroutine dump"
        exit 1
    fi
done
echo "== coverage ledger (expect $BASELINE)"
pkgs=""
for p in snarl cluster extend align gbwt; do
    pkgs="$pkgs${pkgs:+,}repro/internal/$p"
done
"$GO" tool covdata func -i="$d/covdata" -pkg="$pkgs" |
    awk '$1 != "total" { f = $1; sub(/:[0-9]+:$/, "", f)
        print ($NF == "0.0%" ? "zero   " : "covered"), f, $2 }' |
    sort >"$d/coverage.txt"
if ! diff -u "$BASELINE" "$d/coverage.txt"; then
    echo "FAIL: the map-path coverage ledger changed; if that is intended, refresh it:"
    echo "    cp $d/coverage.txt $BASELINE"
    exit 1
fi
echo "cli-smoke OK: artifacts in $d/"
