#!/bin/sh
# Code weight per tree (ROADMAP snapshot row): lines of non-test,
# non-testdata .go files. Run from the repo root; `make codeweight`.
set -eu
count() { # label dir...
	label=$1; shift
	n=$(find "$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l)
	printf '%-24s %6d\n' "$label" "$n"
}
count "map path" internal/core internal/cluster internal/extend internal/gbwt \
	internal/pipeline internal/sched internal/serve
count "obs + trace" internal/obs internal/trace
count "analysis + vetgiraffe" internal/analysis cmd/vetgiraffe
count "cmd/bench" cmd/bench
count "other mains" $(ls -d cmd/*/ | grep -v -e '^cmd/bench/$' -e '^cmd/vetgiraffe/$')
count "all non-test Go" .
