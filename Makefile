# Developer entry points. `make check` is the tier-1 verify referenced
# from ROADMAP.md; `make race` exercises the concurrent packages (the
# worker-pool executor, the vector kernels, the solvers built on them,
# the serving batchers and the fault-injection harness) under the race
# detector; `make fuzz` runs a short smoke pass of every fuzz target in
# the tree (found with go test -list); `make gencheck` regenerates the block
# kernels into a temp dir and fails if the committed *_gen.go files have
# drifted from the generator; `make fmt` fails if any Go file in the tree
# is not gofmt-formatted; `make benchmod` vets and tests the separate
# benchmark/ module (selection pinning, workload smoke runs, the metric
# table), which the root module's go test ./... never reaches. `make
# testids` (not part of check) prints one sorted "package test/subtest"
# line per passing test of both modules, so the test sets of two commits
# compare with one diff.

GO ?= go

RACE_PKGS = ./internal/workpool ./internal/parallel ./internal/vecops ./internal/solver \
    ./internal/conformance ./internal/csrdu ./internal/faultcheck \
    ./internal/server ./internal/metrics ./internal/sell ./internal/shard \
    ./internal/overlay ./internal/batch

FUZZTIME ?= 5s

.PHONY: check fmt vet build test race fuzz gencheck benchmod testids bench bench-json

check: fmt vet build test race fuzz gencheck benchmod

# fmt lists every Go file gofmt would rewrite, and fails if there is one.
fmt:
	@files=$$(gofmt -l .) && if [ -n "$$files" ]; then \
		echo "fmt: run gofmt -w on:"; echo "$$files"; exit 1; \
	fi && echo "fmt: all Go files gofmt-clean"

# gencheck guards against generator drift: the committed *_gen.go kernel
# sources must match what the generator emits today.
gencheck:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./internal/kernels/genkernels -out "$$tmp" && \
	status=0 && \
	for f in "$$tmp"/*_gen.go; do \
		if ! diff -u internal/kernels/$$(basename "$$f") "$$f"; then status=1; fi; \
	done && \
	if [ $$status -ne 0 ]; then \
		echo "gencheck: committed *_gen.go files drifted from the generator; run go generate ./internal/kernels"; \
		exit 1; \
	fi && echo "gencheck: generated kernels in sync"

vet:
	$(GO) vet ./...

# benchmod runs the benchmark module's own checks; it builds against the
# root module through its replace directive, so a change here that moves a
# served format or a metric fails the commit that makes it.
benchmod:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# testids keeps the pass events of go test -json; a failing or unbuilt
# test prints no line, so it shows in the diff as a missing one.
testids:
	@{ $(GO) test -json ./...; cd benchmark && $(GO) test -json ./...; } | \
	sed -n 's/.*"Action":"pass","Package":"\([^"]*\)","Test":"\([^"]*\)".*/\1 \2/p' | \
	LC_ALL=C sort

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Three passes, so a timing-dependent test fails in the change that
# makes it flaky rather than in a later one.
race:
	$(GO) test -race -count=3 $(RACE_PKGS)

# Go runs one fuzz target per invocation. The targets come from the test
# binaries themselves (go test -list), so every Fuzz function in the tree
# is run and a new one needs no edit here.
fuzz:
	@targets=$$($(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ { t[n++] = $$1; next } \
		/^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0; next } \
		/^FAIL/ { bad = 1 } END { exit bad }') || exit 1; \
	echo "$$targets" | while read -r pkg target; do \
		echo "fuzz $$target ($$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) "$$pkg" || exit 1; \
	done

bench:
	$(GO) test -bench 'MulVecWorkers|SolveCGWorkers' -benchmem \
	    ./internal/parallel ./internal/solver
	$(GO) test -run '^$$' -bench 'EnumerateStatsAll|ConstructBone010|AggregateVBR' -benchmem \
	    ./internal/core ./internal/bcsr ./internal/partition
	$(GO) test -run '^$$' -bench 'Kernels|Construct' -benchmem ./internal/vbl
	$(GO) test -run '^$$' -bench 'MulVecHandler' -benchmem ./internal/server

# bench-json regenerates the tracked machine-readable benchmark
# artifacts: BENCH_compress.json (index-compression experiment: bytes/nnz,
# measured and MEM-predicted speedup per format), BENCH_vbr.json
# (cost-model-driven variable-block partitioning: DP-aggregated VBR/VBL
# vs run-detection blocks vs CSR on the shared-sparsity archetypes),
# BENCH_spmm.json (multi-RHS panel multiply vs independent SpMVs per
# panel width, with the MEM-with-k predicted speedup), BENCH_sell.json
# (SELL-C-σ sweep vs scalar CSR on the scatter archetypes: padding
# ratio, MEM band, selection outcomes; the spmvbench run itself exits
# non-zero if the experiment's selection assertions fail),
# BENCH_serve.json (spmvd request coalescing: closed-loop
# throughput/latency batched vs unbatched) and BENCH_shard.json (the
# row-shard coordinator swept over shard counts behind chaos proxies:
# throughput that survives wire faults, retry counts, fan-out cost vs
# one shard, and per shard count the coordinator's gather-window
# batcher coalescing callers into multi-RHS panels vs per-call
# scatter, with the mean panel width), and BENCH_overlay.json (mutable
# matrices: read throughput before/during/after update churn through
# background recompaction, with the post-recompaction recovery ratio
# against the construct-once baseline).
bench-json:
	$(GO) run ./cmd/spmvbench -experiment compress -scale small \
	    -iterations 20 -json BENCH_compress.json
	$(GO) run ./cmd/spmvbench -experiment vbr -scale small \
	    -iterations 20 -json BENCH_vbr.json
	$(GO) run ./cmd/spmvbench -experiment sell -scale small \
	    -iterations 20 -json BENCH_sell.json
	$(GO) run ./cmd/spmvbench -experiment spmm -scale small \
	    -iterations 20 -cores 1,2,4 -rhs 1,2,4,8 -json BENCH_spmm.json
	$(GO) run ./cmd/spmvload -clients 8 -duration 2s -batch 8 \
	    -n 16384 -density 0.008 -workers 1 -window 3ms -detect=false \
	    -json BENCH_serve.json
	$(GO) run ./cmd/spmvload -shards 1,2,4 -chaos -clients 8 -duration 2s \
	    -n 8192 -density 0.008 -batch 8 -window 1ms -detect=false \
	    -json BENCH_shard.json
	$(GO) run ./cmd/spmvload -updates -clients 8 -duration 2s -batch 8 \
	    -n 8192 -density 0.008 -workers 1 -window 3ms -detect=false \
	    -update-batch 64 -recompact-after 512 -json BENCH_overlay.json
