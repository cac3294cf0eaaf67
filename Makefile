# Local dev and CI run the identical commands: .github/workflows/ci.yml
# invokes these targets, so a green `make ci` locally means a green CI.

GO ?= go

.PHONY: build vet staticcheck lint fmt fmtcheck test test-purego cover loc race fuzz-smoke selfcheck bench benchdiff benchsmoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck runs when installed; skipped locally otherwise so
# `make ci` works on a bare toolchain. CI sets STATICCHECK_REQUIRED=1
# (after installing it), which turns a missing binary into a failure
# instead of a skip — the check cannot be silently lost there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$$STATICCHECK_REQUIRED" ]; then \
		echo "staticcheck required (STATICCHECK_REQUIRED set) but not installed"; exit 1; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Project-invariant analyzers (internal/analysis, cmd/repolint): lock
# discipline, layering, clock injection, wire-path framing, alloc-free
# kernels, no test-only exports. Two gates: the real tree must be clean, and the broken
# fixture tree must trip EVERY analyzer (so none can go silent). The
# binary is cached in bin/ and rebuilt only when its sources change.
REPOLINT := bin/repolint

$(REPOLINT): $(wildcard cmd/repolint/*.go) $(wildcard internal/analysis/*.go) go.mod
	$(GO) build -o $(REPOLINT) ./cmd/repolint

lint: $(REPOLINT)
	$(REPOLINT) -root .
	$(REPOLINT) -root internal/analysis/testdata/fixture -expect-all

# fmt rewrites; fmtcheck is the CI gate.
fmt:
	gofmt -w .

fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# The code a default build on this host never runs: the gf256 table
# kernel and the crc package's hash/crc32 tier (selected by the purego
# tag, and on every GOARCH but amd64) under the packages that use them,
# the non-amd64 build itself, and the serving wire's non-Linux build,
# where a datanode copies every replica and never sends one with
# sendfile(2). Without this the fallbacks and the cross builds could
# rot unseen behind the assembly and the Linux send path.
test-purego:
	$(GO) test -tags purego ./internal/gf256/ ./internal/ec/ ./internal/rs/ ./internal/core/ ./internal/lrc/ ./internal/engine/ ./internal/crc/ ./internal/extent/
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/gf256/ ./internal/crc/
	GOOS=darwin $(GO) build ./...
	GOOS=darwin $(GO) vet ./internal/serve/

# Per-package coverage: the `ok <pkg> coverage: NN%` lines are the CI
# job summary; coverage.out feeds go tool cover for local drill-down.
# The suite runs with TMPDIR set to a fresh empty directory and fails if
# it leaves anything there: every hdfs.Cluster built without a
# StoreFactory keeps its stores in a directory of its own under
# TMPDIR, which only Close removes.
cover:
	@tmp="$$(mktemp -d)"; \
	TMPDIR="$$tmp" $(GO) test -coverprofile=coverage.out ./... || { rm -rf "$$tmp"; exit 1; }; \
	left="$$(ls -A "$$tmp")"; rm -rf "$$tmp"; \
	if [ -n "$$left" ]; then echo "go test left these in TMPDIR:"; echo "$$left"; exit 1; fi
	@$(GO) tool cover -func=coverage.out | tail -n 1

# The line count ROADMAP item 3 is judged by: tracked non-test Go
# outside benchmark/ (the repolint goldens and fixture count). CI prints
# it in the job summary beside the coverage table.
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l

# Race detector over the whole module, then extra repeats where the
# concurrency lives: the serving layer and the repair control plane run
# twice more (-count=2) because their tests synchronize on progress
# (fake clocks, status polling), not wall-clock sleeps, and repeating
# them back-to-back is the regression gate for that flakiness class.
# The metadata plane's concurrency storms, its fixer (whose decodes
# run with the metadata lock released, from each stripe's snapshot)
# and its raids (plan, I/O with the lock released, commit; a failed
# raid's rollback), the block cache (whose hits copy out after the
# shard lock is released), the client's kept block tables (shared
# by a client's readers, dropped and refetched while a machine dies)
# and the manager's retry of a repair whose stores refused the rebuilt
# blocks (the control loop polling beside the status RPC) also repeat.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/serve/... ./internal/repairmgr/...
	$(GO) test -race -count=2 -run 'TestConcurrent|Fixer|FixStripes|Chaos|Raid' ./internal/hdfs/
	$(GO) test -race -count=3 ./internal/cache/
	$(GO) test -race -count=3 -run 'BlockCache|Table|RetriesAfter' ./internal/serve/

# A few seconds of native Go fuzzing per codec: random data, random
# erasure patterns up to each code's tolerance, decode must round-trip
# byte-identical; then the repair executors of all three codecs
# (FuzzJointRepair), which must also fetch exactly the planned bytes
# and no dead shard. Under them, the gf256 kernels against a byte-at-a-time
# reference and the CRC-32 kernel against hash/crc32; beside them, the
# serving wire's header decoders against arbitrary bytes. Seed corpora
# live in testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run=FuzzMulAdd -fuzz=FuzzMulAdd -fuzztime=3s ./internal/gf256/
	$(GO) test -run=FuzzChecksum -fuzz=FuzzChecksum -fuzztime=3s ./internal/crc/
	$(GO) test -run=FuzzRoundTrip -fuzz=FuzzRoundTrip -fuzztime=3s ./internal/rs/
	$(GO) test -run=FuzzRoundTrip -fuzz=FuzzRoundTrip -fuzztime=3s ./internal/core/
	$(GO) test -run=FuzzRoundTrip -fuzz=FuzzRoundTrip -fuzztime=3s ./internal/lrc/
	$(GO) test -run=FuzzJointRepair -fuzz=FuzzJointRepair -fuzztime=3s ./internal/ec/
	$(GO) test -run=FuzzDecodeHeader -fuzz=FuzzDecodeHeader -fuzztime=3s ./internal/serve/

# The determinism gate at full scale: each workload run twice on one
# seed, and every metric the benchmark marks exact must repeat —
# degraded_read for the paper's core.plan_bytes_frac_of_rs, hot_read
# for the client cache's cache.client_hit_ratio and
# cache.client_hits_per_op. The test suite's TestSelfCheckRepeats runs
# the same check on shrunken workloads only. node_repair is not gated
# here yet: its serve.rpcs_per_op counts the datanodes' timed
# heartbeats, so it differs between runs.
selfcheck:
	$(GO) run ./benchmark -selfcheck -workload degraded_read
	$(GO) run ./benchmark -selfcheck -workload hot_read

# Full benchmark run (regenerates the paper's numbers as metrics).
bench:
	$(GO) test -run=NoTests -bench=. ./...

# The paired procedure for a performance claim, as one command:
#   make benchdiff BASE=<ref> [RUNS=10]
# extracts BASE with git archive into a temp dir, builds ./benchmark on
# both sides, runs every workload RUNS times per side — pair by pair on
# one seed, alternating which side goes first — then prints the pairs
# each side won and the benchmark's -compare verdicts. The window length
# is the benchmark's own, never a knob here. Ten pairs take well over an
# hour: every run is a full `-all` of six workloads.
RUNS ?= 10
benchdiff:
	@test -n "$(BASE)" || { echo "usage: make benchdiff BASE=<git ref>"; exit 2; }
	$(GO) run ./cmd/benchdiff -base $(BASE) -runs $(RUNS)

# One-iteration pass over every Go benchmark so bench code cannot rot.
# It gates no timing. The live-cluster smoke of ./benchmark is
# benchmark/smoke_test.go, already in `make test`.
benchsmoke:
	$(GO) test -run=NoTests -bench=. -benchtime=1x ./...

# The test step is cover, as in CI: the whole suite plus the empty-TMPDIR
# leak gate. `make test` stays the quick local run.
ci: build vet staticcheck lint fmtcheck cover test-purego race benchsmoke fuzz-smoke selfcheck
