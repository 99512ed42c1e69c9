#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the serving stack, run by
# `make serve-smoke` locally and by the serve-smoke CI job.
#
# Three loadgen phases against one giraffed process, each provoking a
# different admission outcome, then a graceful-drain check:
#
#   1. steady:   small batches at constant RPS inside capacity — asserts
#                2xx responses and a sane p99 service latency. The client
#                archives its own series next to the server's.
#   2. overload: 512-read requests split into 8 sub-batches against a
#                4-deep mapping queue — all-or-nothing admission can never
#                seat them, so every request 429s. Asserts >= 1 rejection.
#   3. deadline: 1 ms deadlines on 256-read requests — the deadline fires
#                during extraction/mapping and cancels in-flight work.
#                Asserts >= 1 expiry (504 or client-side timeout).
#
# Every request carries a loadgen-generated traceparent; after the deadline
# phase the tail sampler must be holding at least one 504 trace with a
# cancellation marker (fetched from /traces), and the drained server must
# have written its Perfetto request-track dump.
#
# Finally SIGTERM: the server must drain, write its run manifest, and exit
# 0; then the two archived series are checked: each carries its own run's
# metrics, and the loadgen manifest names the client's series, not the
# server's lying next to it. All artifacts (loadgen reports + series,
# giraffed manifest + series + traces) land in $SMOKE_DIR for CI upload.
set -eu

GO="${GO:-go}"
SMOKE_DIR="${SMOKE_DIR:-serve-smoke}"
ADDR="${ADDR:-localhost:8766}"
P99_BOUND="${P99_BOUND:-5s}"
QUEUE_P99_BOUND="${QUEUE_P99_BOUND:-5s}"

mkdir -p "$SMOKE_DIR"
echo "== building binaries"
"$GO" build -o "$SMOKE_DIR/giraffed" ./cmd/giraffed
"$GO" build -o "$SMOKE_DIR/loadgen" ./cmd/loadgen

echo "== generating workload"
"$GO" run ./cmd/genworkload -input A-human -outdir "$SMOKE_DIR"

echo "== booting giraffed on $ADDR (batch 64, queue depth 4)"
"$SMOKE_DIR/giraffed" -gbz "$SMOKE_DIR/A-human.gbz" -addr "$ADDR" \
    -threads 2 -batch 64 -depth 4 -per-client 64 \
    -manifest "$SMOKE_DIR/giraffed-manifest.json" \
    -series "$SMOKE_DIR/giraffed.series" -series-interval 500ms \
    -slow 8 -trace-k 16 -req-traces "$SMOKE_DIR/giraffed-reqtrace.json" \
    >"$SMOKE_DIR/giraffed.log" 2>&1 &
SRV_PID=$!
trap 'kill "$SRV_PID" 2>/dev/null || true' EXIT

echo "== phase 1: steady traffic (expect 2xx, bounded p99)"
"$SMOKE_DIR/loadgen" -url "http://$ADDR" -fastq "$SMOKE_DIR/A-human.fq" \
    -wait-ready 30s -shape const -rps 6 -duration 8s -batch 8 \
    -clients 4 -deadline 10s \
    -report "$SMOKE_DIR/loadgen-steady.json" \
    -manifest "$SMOKE_DIR/loadgen-steady-manifest.json" \
    -series "$SMOKE_DIR/loadgen-steady.series" \
    -assert-min-2xx 1 -assert-max-p99 "$P99_BOUND" \
    -assert-max-queue-p99 "$QUEUE_P99_BOUND"

echo "== phase 2: oversized bursts (expect 429 queue rejections)"
# 512 reads / 64-read sub-batches = 8 queue slots per request, but the
# shared queue holds 4: all-or-nothing admission rejects every one.
"$SMOKE_DIR/loadgen" -url "http://$ADDR" -fastq "$SMOKE_DIR/A-human.fq" \
    -shape burst -rps 8 -duration 4s -batch 512 -clients 2 \
    -deadline 10s -report "$SMOKE_DIR/loadgen-burst.json" \
    -assert-min-429 1

echo "== phase 3: 1ms deadlines (expect deadline expiries)"
"$SMOKE_DIR/loadgen" -url "http://$ADDR" -fastq "$SMOKE_DIR/A-human.fq" \
    -shape const -rps 6 -duration 4s -batch 256 -clients 2 \
    -deadline 1ms -report "$SMOKE_DIR/loadgen-deadline.json" \
    -assert-min-timeout 1

echo "== tail-sampled traces (expect >= 1 retained 504 with cancellation)"
curl -s "http://$ADDR/traces" > "$SMOKE_DIR/traces.json"
if ! grep -q '"status":504' "$SMOKE_DIR/traces.json"; then
    echo "FAIL: no 504 trace retained after the deadline phase (tail sampler must keep every non-2xx)"
    exit 1
fi
# A deadline either stops a kernel mid-sub-batch (canceled map span) or
# skips queued sub-batches outright (cancel span) — either marker will do.
if ! grep -q '"canceled":true' "$SMOKE_DIR/traces.json" \
   && ! grep -q '"name":"cancel"' "$SMOKE_DIR/traces.json"; then
    echo "FAIL: sampled 504 traces show no cancellation marker"
    exit 1
fi

echo "== graceful drain (SIGTERM, expect exit 0 + manifest)"
kill -TERM "$SRV_PID"
rc=0
wait "$SRV_PID" || rc=$?
trap - EXIT
if [ "$rc" -ne 0 ]; then
    echo "FAIL: giraffed exited $rc after SIGTERM"
    cat "$SMOKE_DIR/giraffed.log"
    exit 1
fi
if [ ! -s "$SMOKE_DIR/giraffed-manifest.json" ]; then
    echo "FAIL: giraffed did not write its run manifest on drain"
    cat "$SMOKE_DIR/giraffed.log"
    exit 1
fi
if [ ! -s "$SMOKE_DIR/giraffed-reqtrace.json" ]; then
    echo "FAIL: giraffed did not write its Perfetto request-trace dump on drain"
    cat "$SMOKE_DIR/giraffed.log"
    exit 1
fi
if ! grep -q ' 504"' "$SMOKE_DIR/giraffed-reqtrace.json"; then
    echo "FAIL: Perfetto dump has no 504 request track"
    exit 1
fi

echo "== archived series (each run's own metrics, in its own file)"
for metric in pipeline_reads_total runtime_goroutines; do
    if ! grep -q "\"$metric\"" "$SMOKE_DIR/giraffed.series"; then
        echo "FAIL: giraffed.series carries no $metric"
        exit 1
    fi
done
if ! grep -q '"loadgen_' "$SMOKE_DIR/loadgen-steady.series"; then
    echo "FAIL: loadgen-steady.series carries no loadgen_ metric"
    exit 1
fi
# pipeline_reads_total is a server-only counter: in the client's archive it
# means the two runs' series were mixed up.
if grep -q '"pipeline_reads_total"' "$SMOKE_DIR/loadgen-steady.series"; then
    echo "FAIL: loadgen-steady.series carries the server's pipeline_reads_total"
    exit 1
fi
if ! grep -q '"series": "loadgen-steady.series"' "$SMOKE_DIR/loadgen-steady-manifest.json"; then
    echo "FAIL: the loadgen manifest's series note does not name its own archive"
    exit 1
fi

echo "== server log tail"
tail -n 5 "$SMOKE_DIR/giraffed.log"
echo "serve-smoke OK: artifacts in $SMOKE_DIR/"
