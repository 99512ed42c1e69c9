# Single entry point shared by CI (.github/workflows/ci.yml) and local runs,
# so "works on my machine" and "works in CI" are the same command.
GO ?= go

# Pinned third-party checker versions (the CI lint job installs exactly
# these; locally, staticcheck/govulncheck are skipped when not installed).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build vet fmt-check test verify race bench-smoke bench-quick fuzz-smoke serve-smoke lint escapecheck staticcheck govulncheck perfdiff pgo-capture pgo-verify ci

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
# that includes the streaming extraction path (ExtractSource prefetcher and
# its differential harness) plus the fastq/seeds readers feeding it. The obs
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
# binary format, FASTQ, and the GBWT record body every GBZ load decodes). The
# checked-in corpora under testdata/fuzz seed the mutation; 10 seconds each
# is a smoke test, not a campaign.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadSeeds -fuzztime=10s ./internal/seeds
	$(GO) test -run='^$$' -fuzz=FuzzFASTQ -fuzztime=10s ./internal/fastq
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/gbwt

# serve-smoke boots cmd/giraffed against a generated workload and drives it
# with cmd/loadgen through three phases (steady 2xx, queue-full 429s,
# deadline 504s), then asserts a graceful SIGTERM drain. Artifacts land in
# SMOKE_DIR (default serve-smoke/) for CI upload.
serve-smoke:
	sh scripts/serve_smoke.sh

# lint runs the project-specific analyzers (atomicmix, cachepow2, ctxflow,
# escapebudget, hotalloc, hotpath, metricname, nakedgoroutine, probeexclusive,
# tracepair) over the whole tree. Zero findings required. LINT_REPORT_DIR
# archives vetgiraffe.txt and escapes_diff.txt for CI artifact upload.
LINT_REPORT_DIR ?= lint-report
lint:
	$(GO) run ./cmd/vetgiraffe -reportdir $(LINT_REPORT_DIR) ./...

# escapecheck runs only the compiler escape/inline budget gate. UPDATE=1
# rewrites results/escapes_baseline.txt from the current compiler verdicts
# instead of diffing against it — run after deliberate hot-path changes and
# commit the refreshed baseline with them.
escapecheck:
ifeq ($(UPDATE),1)
	$(GO) run ./cmd/vetgiraffe -update-escapes ./...
else
	$(GO) run ./cmd/vetgiraffe -only escapebudget ./...
endif

# staticcheck/govulncheck run when the pinned binaries are on PATH (the CI
# lint job installs them); locally they skip with a hint rather than fail,
# so `make ci` works offline.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# perfdiff replays the bench-smoke workload locally (flight recorder and
# continuous profiler on), then diffs the fresh run against the checked-in
# baseline under results/baseline twice: cmd/obsdiff compares the metric
# series (did the run get slower?), cmd/profdiff aligns the CPU profiles by
# symbol (which function is to blame?). Either exits non-zero when its gate
# trips. Override OBSDIFF_FLAGS / PROFDIFF_FLAGS to tune thresholds (e.g.
# OBSDIFF_FLAGS='-p99-threshold 0.5') and PERFDIFF_DIR to keep runs. The
# profdiff gate defaults to the same loose ±10pt thresholds CI enforces:
# a ~1s capture holds ~100 samples, so GC-timing noise alone moves small
# functions a few points between runs of identical code.
# A second leg replays the skewed (-zipf 1.4) workload with the epoch cache
# on (-epoch 512, halved private overflow) against results/baseline-zipf —
# the same workload under the per-batch rebuild discipline, recorded with
# the same 128-read batches so several epochs publish within the run. The
# report shows the shared-snapshot win: most lookups land in the snapshot
# (mapper_epoch_shared_hits_total) with no cache-build or throughput cost.
PERFDIFF_DIR ?= perfdiff-run
OBSDIFF_FLAGS ?=
PROFDIFF_FLAGS ?= -share-rise 0.10 -min-share 0.10
perfdiff:
	mkdir -p $(PERFDIFF_DIR)
	$(GO) run ./cmd/genworkload -input A-human -scale 20 -outdir $(PERFDIFF_DIR)
	$(GO) run ./cmd/minigiraffe -gbz $(PERFDIFF_DIR)/A-human.gbz \
		-seeds $(PERFDIFF_DIR)/A-human-seeds.bin -threads 4 -stream \
		-obs -slow 16 -out $(PERFDIFF_DIR)/out.csv \
		-series $(PERFDIFF_DIR)/run.series \
		-profile $(PERFDIFF_DIR)/profiles \
		-manifest $(PERFDIFF_DIR)/run-manifest.json
	$(GO) run ./cmd/obsdiff -baseline results/baseline -candidate $(PERFDIFF_DIR) \
		-report $(PERFDIFF_DIR)/perfdiff.md $(OBSDIFF_FLAGS)
	$(GO) run ./cmd/profdiff -baseline results/baseline/profiles \
		-candidate $(PERFDIFF_DIR)/profiles -allow-missing-baseline \
		-report $(PERFDIFF_DIR)/profdiff.md $(PROFDIFF_FLAGS)
	@echo "reports: $(PERFDIFF_DIR)/perfdiff.md $(PERFDIFF_DIR)/profdiff.md"
	mkdir -p $(PERFDIFF_DIR)/zipf
	$(GO) run ./cmd/genworkload -input A-human -scale 20 -zipf 1.4 -outdir $(PERFDIFF_DIR)/zipf
	$(GO) run ./cmd/minigiraffe -gbz $(PERFDIFF_DIR)/zipf/A-human.gbz \
		-seeds $(PERFDIFF_DIR)/zipf/A-human-seeds.bin -threads 4 -stream \
		-batch 128 -capacity 128 -epoch 512 -obs -slow 16 \
		-out $(PERFDIFF_DIR)/zipf/out.csv \
		-series $(PERFDIFF_DIR)/zipf/run.series \
		-profile $(PERFDIFF_DIR)/zipf/profiles \
		-manifest $(PERFDIFF_DIR)/zipf/run-manifest.json
	$(GO) run ./cmd/obsdiff -baseline results/baseline-zipf -candidate $(PERFDIFF_DIR)/zipf \
		-report $(PERFDIFF_DIR)/zipf/perfdiff.md $(OBSDIFF_FLAGS)
	$(GO) run ./cmd/profdiff -baseline results/baseline-zipf/profiles \
		-candidate $(PERFDIFF_DIR)/zipf/profiles -allow-missing-baseline \
		-report $(PERFDIFF_DIR)/zipf/profdiff.md $(PROFDIFF_FLAGS)
	@echo "reports: $(PERFDIFF_DIR)/zipf/perfdiff.md $(PERFDIFF_DIR)/zipf/profdiff.md"

# pgo-capture distills a representative capture into the committed
# default.pgo: the perfdiff workload runs with the continuous profiler on,
# then `profdiff -merge` sums the rotated CPU segments (and any baseline
# segments already checked in) into one profile the compiler reads with
# `go build -pgo=default.pgo`. Commit the refreshed default.pgo after
# deliberate hot-path changes; pgo-verify proves the committed profile
# still drives a clean build.
PGO_DIR ?= pgo-run
pgo-capture:
	mkdir -p $(PGO_DIR)
	$(GO) run ./cmd/genworkload -input A-human -scale 20 -outdir $(PGO_DIR)
	$(GO) run ./cmd/minigiraffe -gbz $(PGO_DIR)/A-human.gbz \
		-seeds $(PGO_DIR)/A-human-seeds.bin -threads 4 -stream \
		-obs -out $(PGO_DIR)/out.csv \
		-profile $(PGO_DIR)/profiles \
		-manifest $(PGO_DIR)/run-manifest.json
	$(GO) run ./cmd/profdiff -merge -o default.pgo $(PGO_DIR)/profiles
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

ci: verify vet fmt-check lint staticcheck govulncheck race bench-smoke bench-quick fuzz-smoke serve-smoke
