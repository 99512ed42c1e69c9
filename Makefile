# Single entry point shared by CI (.github/workflows/ci.yml) and local runs,
# so "works on my machine" and "works in CI" are the same command.
GO ?= go

# Pinned third-party checker versions (the CI lint job installs exactly
# these; locally, staticcheck/govulncheck are skipped when not installed).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build vet fmt-check test verify race bench-smoke bench-quick fuzz-smoke serve-smoke cli-smoke workprofile lint codeweight staticcheck govulncheck perfdiff abpairs pgo-capture pgo-verify ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# verify is the repo's tier-1 gate (see ROADMAP.md).
verify: build test

# The heavily concurrent packages run under the race detector. The giraffe
# emulator and trace recorder ride along in -short mode (their slowest
# single-threaded tests are skipped; the multi-threaded ones still run) —
# that includes the streaming extraction path (ExtractSource and its
# differential harness), the concurrent index build (TestBuildIndexes) and
# the fastq/seeds readers feeding them. The obs
# registry is scraped concurrently with recording, so it runs here too, and
# so does the serving stack (pipeline.Session lives in internal/pipeline;
# internal/serve layers concurrent HTTP admission/deadline/drain on top).
# internal/gbwt joins for the epoch-published shared cache (lock-free
# snapshot readers racing the builder's republish); internal/workload rides
# along for the zipf sampler feeding those stress tests. internal/extend and
# internal/cluster join because their working memory is now pooled per call
# by core.Mapper: internal/core's four-goroutine test shares one Mapper, and
# the kernels' own scratch-reuse tests run instrumented too.
race:
	$(GO) test -race ./internal/sched/... ./internal/pipeline/... ./internal/core/... ./internal/trace/... ./internal/fastq/... ./internal/seeds/... ./internal/obs/... ./internal/serve/... ./internal/gbwt/... ./internal/workload/... ./internal/extend/... ./internal/cluster/...
	$(GO) test -race -short ./internal/giraffe/...

# Compile-and-run every benchmark once so kernel benchmarks can't rot.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The repo's benchmark driver (cmd/bench, BENCHMARK.json) end to end in smoke
# mode: every workload, both tiers, real child processes and a built giraffed,
# inputs a tenth the size and one timed second per run (~40 s). It checks
# every output against the reference pass, so it fails on a wrong answer or a
# broken driver — not on speed. The table goes to stderr; the JSON is dropped.
bench-quick:
	$(GO) run ./cmd/bench -quick >/dev/null

# Short native-fuzz runs over the untrusted input surfaces (the capture
# binary format, FASTQ, the GBWT record body every GBZ load decodes, the GBZ
# container around it, and the two things giraffed parses off the network on
# every request: the /map body and the traceparent header), plus the GBWT
# and minimizer-index builders held to their references on graphs and paths
# decoded from the fuzz bytes. The
# checked-in corpora under testdata/fuzz seed the mutation; 10 seconds each
# is a smoke test, not a campaign.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadSeeds -fuzztime=10s ./internal/seeds
	$(GO) test -run='^$$' -fuzz=FuzzFASTQ -fuzztime=10s ./internal/fastq
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/gbwt
	$(GO) test -run='^$$' -fuzz=FuzzBuildGBWT -fuzztime=10s ./internal/gbwt
	$(GO) test -run='^$$' -fuzz=FuzzBuild -fuzztime=10s ./internal/minimizer
	$(GO) test -run='^$$' -fuzz=FuzzReadGBZ -fuzztime=10s ./internal/gbz
	$(GO) test -run='^$$' -fuzz=FuzzDecodeMapRequest -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzParseTraceparent -fuzztime=10s ./internal/trace

# serve-smoke boots cmd/giraffed against a generated workload and drives it
# with cmd/loadgen through three phases (steady 2xx, queue-full 429s,
# deadline 504s), then asserts a graceful SIGTERM drain. Artifacts land in
# SMOKE_DIR (default serve-smoke/) for CI upload.
serve-smoke:
	sh scripts/serve_smoke.sh

# cli-smoke drives the deliverable binaries no other job executes (validate,
# extractseeds, giraffe -capture, minigiraffe) over one generated input:
# validate at 100 %, one CSV SHA-256 from every route into the kernels, and
# an error — not a panic — on a capture naming a node the graph lacks.
# Artifacts land in SMOKE_DIR (default cli-smoke/).
cli-smoke:
	sh scripts/cli_smoke.sh

# workprofile counts the work each read costs, with no clock: the proxy,
# parent and stream routes run on one thread at genworkload -scale 2 and 4
# over one GBZ, built with atomic coverage counters (cli-smoke's build), and
# the difference in statements executed per function, package and route
# must equal the committed results/work_profile.txt. UPDATE=1 rewrites it.
# Artifacts land in WORK_DIR (default work-profile/).
workprofile:
	sh scripts/work_profile.sh

# lint runs the two project-specific analyzers (hotpath, metricname) over
# the whole tree, one package after another. Zero findings required.
# LINT_REPORT_DIR archives vetgiraffe.txt for CI artifact upload.
LINT_REPORT_DIR ?= lint-report
lint:
	$(GO) run ./cmd/vetgiraffe -reportdir $(LINT_REPORT_DIR) ./...

# codeweight prints non-test, non-testdata Go lines per tree (map path,
# obs+trace, analysis+vetgiraffe, cmd/bench, the other mains): the numbers
# behind ROADMAP's code-weight row. The CI lint job prints it.
codeweight:
	@sh scripts/codeweight.sh

# staticcheck/govulncheck run when the pinned binaries are on PATH (the CI
# lint job installs them); locally they skip with a hint rather than fail,
# so `make ci` works offline.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# perfdiff is the perf gate, locally and in CI: the repo's benchmark
# (cmd/bench, end-to-end tier only) runs at the merge base of BASE and HEAD,
# checked out in a scratch worktree, and then in this tree — both on this
# machine, back to back — and `cmd/bench -compare` judges the pair against the
# bounds BENCHMARK.json fixes per end-to-end metric. It exits non-zero exactly
# when a verdict is "worse"; both documents stay in perfdiff-run/ for
# inspection. BASE defaults to the parent commit, as CI's push path passes;
# a base that predates cmd/bench stops the target with one line. A failed
# base run removes its worktree before the target exits non-zero.
BASE ?= HEAD^
perfdiff:
	rm -rf perfdiff-run
	git worktree prune
	git worktree add --detach perfdiff-run/base $$(git merge-base $(BASE) HEAD)
	@if [ ! -d perfdiff-run/base/cmd/bench ]; then \
		git worktree remove --force perfdiff-run/base; \
		echo "perfdiff: base $(BASE) has no cmd/bench; pass a newer BASE=<rev>"; exit 1; fi
	(cd perfdiff-run/base && $(GO) run ./cmd/bench -trace 0 > ../base.json) || \
		{ git worktree remove --force perfdiff-run/base; exit 1; }
	git worktree remove --force perfdiff-run/base
	$(GO) run ./cmd/bench -trace 0 > perfdiff-run/head.json
	$(GO) run ./cmd/bench -compare perfdiff-run/base.json perfdiff-run/head.json

# abpairs resolves one metric of one workload between BASE and this tree:
# cmd/bench is built once for each side (BASE in a scratch git worktree that
# is removed on exit, failed runs included) and run -trace 0 in PAIRS
# alternated pairs, ABBA order. It prints each pair, both medians and "change
# lower in k of N"; the runs' JSON stays in abpairs-run/. A timing verdict
# needs a quiet machine, so it is not part of `make ci`.
WORKLOAD ?= batch_kernels
METRIC ?= setup_s
PAIRS ?= 10
abpairs:
	BASE='$(BASE)' WORKLOAD='$(WORKLOAD)' METRIC='$(METRIC)' PAIRS='$(PAIRS)' GO='$(GO)' sh scripts/abpairs.sh

# pgo-capture distills a representative capture into the committed
# default.pgo: a full-scale streamed run with the continuous profiler on, then
# `go tool pprof -proto` sums the rotated CPU segments into one profile the
# compiler reads with `go build -pgo=default.pgo`. Commit the refreshed
# default.pgo after deliberate hot-path changes; pgo-verify proves the
# committed profile still drives a clean build.
PGO_DIR ?= pgo-run
pgo-capture:
	mkdir -p $(PGO_DIR)
	$(GO) run ./cmd/genworkload -input A-human -scale 20 -outdir $(PGO_DIR)
	$(GO) run ./cmd/minigiraffe -gbz $(PGO_DIR)/A-human.gbz \
		-seeds $(PGO_DIR)/A-human-seeds.bin -threads 4 -stream \
		-obs -out $(PGO_DIR)/out.csv \
		-profile $(PGO_DIR)/profiles \
		-manifest $(PGO_DIR)/run-manifest.json
	$(GO) tool pprof -proto -output=default.pgo $(PGO_DIR)/profiles/cpu-*.pb.gz
	$(MAKE) pgo-verify

pgo-verify:
	$(GO) build -pgo=default.pgo ./...
	@echo "pgo: default.pgo drives a clean build"

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

ci: verify vet fmt-check lint staticcheck govulncheck race bench-smoke bench-quick cli-smoke workprofile fuzz-smoke serve-smoke
