#!/bin/sh
# work_profile.sh — counted work per read, `make workprofile`.
#
# Three routes into the kernels run on one thread, each over two read counts
# of the same input set: proxy (`minigiraffe -seeds`, the capture loaded
# with seeds.ReadFile), parent (`giraffe`, FASTQ → TSV) and stream
# (`minigiraffe -fastq`, seeds extracted in the pipeline). `genworkload
# -scale 2` and `-scale 4` write the same GBZ, so everything a route does
# once cancels between the two runs and what is left is the work the extra
# reads cost. The binaries are scripts/cover_build.sh's, the build
# scripts/cli_smoke.sh uses: Go's atomic coverage counters count every
# statement executed, with no hook in the code.
#
# For every function of internal/... the profile gives the statements the
# extra reads executed (an exact integer) and that total per read, then each
# package's and each route's sum. It must equal the committed
# results/work_profile.txt; UPDATE=1 rewrites that file instead. Two runs
# write the same bytes.
set -eu

GO="${GO:-go}"
d="${WORK_DIR:-work-profile}"
PROFILE=results/work_profile.txt
module=$("$GO" list -m)

GO="$GO" sh scripts/cover_build.sh "$d" genworkload giraffe minigiraffe
rm -rf "$d/cov"
mkdir -p "$d/cov/gen"
for s in 2 4; do
    GOCOVERDIR="$d/cov/gen" "$d/genworkload" -input A-human -scale "$s" -outdir "$d/s$s" >/dev/null
done
if ! cmp -s "$d/s2/A-human.gbz" "$d/s4/A-human.gbz"; then
    echo "FAIL: -scale 2 and -scale 4 wrote different graphs; set-up would not cancel"
    exit 1
fi
reads=$(( ($(wc -l <"$d/s4/A-human.fq") - $(wc -l <"$d/s2/A-human.fq")) / 4 ))
gbz="$d/s2/A-human.gbz"

# run ROUTE SCALE: one run of ROUTE over the reads of SCALE, its counters in
# $d/ROUTE-SCALE.txt. It runs on one P with the collector off (a run peaks
# near 40 MB): sync.Pool keeps a cache per P and a collection empties them
# all, so with either the scratch a worker grows again would follow the
# scheduler's or the collector's timing.
run() {
    cov="$d/cov/$1-$2"
    mkdir -p "$cov"
    export GOGC=off GOMAXPROCS=1
    case $1 in
    proxy) GOCOVERDIR="$cov" "$d/minigiraffe" -gbz "$gbz" -seeds "$d/s$2/A-human-seeds.bin" \
        -threads 1 -manifest off -out /dev/null ;;
    parent) GOCOVERDIR="$cov" "$d/giraffe" -gbz "$gbz" -reads "$d/s$2/A-human.fq" \
        -threads 1 -out /dev/null ;;
    stream) GOCOVERDIR="$cov" "$d/minigiraffe" -gbz "$gbz" -fastq "$d/s$2/A-human.fq" \
        -threads 1 -manifest off -out /dev/null ;;
    esac 2>"$d/$1-$2.err"
    "$GO" tool covdata textfmt -i="$cov" -o "$d/$1-$2.txt"
}

for route in proxy parent stream; do
    run "$route" 2
    run "$route" 4
done

{
    echo "# Statements of $module/internal/... executed per $reads reads: genworkload A-human"
    echo "# -scale 4 minus -scale 2 over one GBZ, each route on one thread."
    echo "# Rows: route, package, function (\"-\": the package's sum; package"
    echo "# \"TOTAL\": the route's), statements, statements per read."
    echo "# Left out, as they follow the clock or the scheduler: package stats and"
    echo "# pipeline (*claimQueue).pop. Written by scripts/work_profile.sh;"
    echo "# refresh with UPDATE=1 make workprofile."
    for route in proxy parent stream; do
        # Each block line: FILE:L0.C0,L1.C1 STATEMENTS COUNT. A block belongs
        # to the function whose gofmt'd declaration encloses its first line:
        # from "func" at the start of a line to the next "}" there, closures
        # included; package-level blocks (a var's func literal) to "init".
        awk -v module="$module" -v route="$route" -v reads="$reads" '
        function load(path,    line, n, fn, start, r, name, k) {
            loaded[path] = 1
            fn = ""
            n = 0
            while ((getline line < path) > 0) {
                n++
                if (line ~ /^func /) {
                    name = substr(line, 6)
                    r = ""
                    if (name ~ /^\(/) {
                        r = substr(name, 2, index(name, ")") - 2)
                        name = substr(name, index(name, ")") + 2)
                        k = split(r, parts, " ")
                        r = parts[k]
                        sub(/\[.*/, "", r)
                        r = (r ~ /^\*/) ? "(" r ")." : r "."
                    }
                    sub(/[(\[].*/, "", name)
                    fn = r name
                    start = n
                    if (line ~ /}$/) {
                        nf[path]++
                        lo[path, nf[path]] = n; hi[path, nf[path]] = n; fname[path, nf[path]] = fn
                        fn = ""
                    }
                } else if (line ~ /^}/ && fn != "") {
                    nf[path]++
                    lo[path, nf[path]] = start; hi[path, nf[path]] = n; fname[path, nf[path]] = fn
                    fn = ""
                }
            }
            close(path)
        }
        $1 == "mode:" { next }
        {
            split($1, loc, ":")
            if (index(loc[1], module "/internal/") != 1) next
            path = substr(loc[1], length(module) + 2)
            if (!(path in loaded)) load(path)
            line = int(loc[2])
            fn = "init"
            for (i = 1; i <= nf[path]; i++)
                if (lo[path, i] <= line && line <= hi[path, i]) { fn = fname[path, i]; break }
            pkg = path
            sub(/\/[^\/]*$/, "", pkg)
            sub(/^internal\//, "", pkg)
            # Left out: how often a latency summary in stats meets a new
            # minimum or maximum follows the clock, and how often a pipeline
            # worker wakes in claimQueue.pop to find nothing follows the
            # scheduler. Neither is work the reads cost.
            if (pkg == "stats" || pkg " " fn == "pipeline (*claimQueue).pop") next
            work[pkg " " fn] += sign * $2 * $3
        }
        END {
            for (key in work) {
                if (work[key] == 0) continue
                split(key, kf, " ")
                pkgsum[kf[1]] += work[key]
                total += work[key]
                printf "%s %s %s %.0f %.1f\n", route, kf[1], kf[2], work[key], work[key] / reads
            }
            for (p in pkgsum)
                printf "%s %s - %.0f %.1f\n", route, p, pkgsum[p], pkgsum[p] / reads
            printf "%s TOTAL - %.0f %.1f\n", route, total, total / reads
        }' sign=-1 "$d/$route-2.txt" sign=1 "$d/$route-4.txt" | LC_ALL=C sort -k2,2 -k3,3
    done
} >"$d/work_profile.txt"

if [ "${UPDATE:-}" = 1 ]; then
    cp "$d/work_profile.txt" "$PROFILE"
    echo "workprofile: wrote $PROFILE"
    exit 0
fi
if ! diff -u "$PROFILE" "$d/work_profile.txt"; then
    echo "FAIL: the counted work per read changed; if that is intended, refresh it:"
    echo "    UPDATE=1 make workprofile"
    exit 1
fi
echo "workprofile OK: $PROFILE; artifacts in $d/"
