#!/bin/sh
# cover_build.sh DIR BIN... — builds each ./cmd/BIN into DIR/BIN with
# coverage counters (-covermode=atomic) over its main package and
# ./internal/...: the build scripts/cli_smoke.sh and scripts/work_profile.sh
# share. The main package must be in -coverpkg: without it the binary writes
# no counters at all. Atomic counters count every execution, so the same
# binaries serve cli-smoke's covered/zero ledger and the work profile's
# counts.
set -eu
GO="${GO:-go}"
d="$1"
shift
mkdir -p "$d"
for b in "$@"; do
    "$GO" build -cover -covermode=atomic -coverpkg="./cmd/$b,./internal/..." -o "$d/$b" "./cmd/$b"
done
