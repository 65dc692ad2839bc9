# Mirrors .github/workflows/ci.yml so local runs and CI stay in sync.

GO ?= go

# Fuzz-smoke knobs (same as CI's fuzz-smoke job).
FUZZ_TIME ?= 20s
# Minimizing a new interesting input may take 60 s by default, which
# stalls a 20 s window after its first seconds (the fuzzer reports
# "0/sec" from then on); 200 runs per input keep it fuzzing throughout.
FUZZ_FLAGS = -fuzztime $(FUZZ_TIME) -fuzzminimizetime 200x
ENGINE_FUZZ_TARGETS ?= FuzzPrepareSQL FuzzPrepareARC FuzzPrepareDatalog FuzzExecSQL FuzzExecFactOps FuzzCollectionStream

.PHONY: all build test durability bench lint arcvet fuzz-smoke arcbench-quick ab loc

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...
	$(GO) test -race -parallel 8 -count=1 ./internal/engine ./internal/relation ./internal/server ./internal/server/client
	$(MAKE) durability

# The storage subsystem end to end on real disk, fresh every run
# (-count=1 defeats the test cache): WAL codec and replay, segment round
# trips, checkpoint rotation, the crash torture loop, and the SIGKILL
# subprocess durability proof (CI's disk-backed durability suite).
durability:
	$(GO) test -count=1 -run 'WAL|Segment|Manager|Durable|Crash|KillMinus9|Record' ./internal/storage ./internal/engine

# One iteration of every benchmark (including the E01–E21 experiment
# harness): the CI smoke pass. These are diagnostics, not a gate — use
# `go test -bench=<pattern> .` to look at one, and arcbench (`make
# arcbench-quick`, `make ab`) to judge a change.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

lint:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	$(MAKE) arcvet

# The engine's own invariant suite (docs/INVARIANTS.md): snapimmut,
# hookreentry, boundaryguard, cancelpoll, errcmp. Built as a vet tool so
# the go command handles package loading, export data and caching.
arcvet:
	$(GO) build -o bin/arcvet ./cmd/arcvet
	$(GO) vet -vettool=bin/arcvet ./...

# Run every fuzz target briefly — the CI smoke pass that keeps the
# corpora exercised on every PR without paying for a long campaign. Each
# target's output follows its run, and a last table lists every target's
# final exec count, so a target that stalled shows as a small number.
FUZZ_TARGETS = $(foreach t,$(ENGINE_FUZZ_TARGETS),./internal/engine:$(t)) \
	./internal/server:FuzzServerFrames ./internal/server/client:FuzzClientRows \
	./internal/value:FuzzOrderedKey ./internal/value:FuzzValueIdentity \
	./internal/relation:FuzzRelationOps ./internal/plan:FuzzJoinBuildSources \
	./internal/storage:FuzzDecodeRecord

fuzz-smoke:
	@log=$$(mktemp) && counts=$$(mktemp) && \
	for pt in $(FUZZ_TARGETS); do \
		pkg=$${pt%%:*}; t=$${pt#*:}; \
		echo "== $$t ($$pkg)"; \
		if ! $(GO) test -run '^$$' -fuzz "^$${t}\$$" $(FUZZ_FLAGS) $$pkg >$$log 2>&1; then \
			cat $$log; rm -f $$log $$counts; exit 1; \
		fi; \
		cat $$log; \
		execs=$$(grep -o 'execs: [0-9]*' $$log | tail -n 1 | cut -d' ' -f2); \
		printf '%-24s %12s\n' "$$t" "$${execs:-none}" >>$$counts; \
	done; \
	echo "== final exec counts"; cat $$counts; rm -f $$log $$counts

# The repository benchmark's smoke pass (BENCHMARK.json runs the full
# one): every workload for a moment, every reply checked against its
# oracle — so a change that breaks a pinned entry point of
# arcbench/layers.go or an answer fails here, not in the driver.
arcbench-quick:
	bash arcbench/run.sh -quick

# A parent/change comparison that resolves (cmd/ab): the working tree
# against commit BASE on the repository benchmark, N alternated pairs per
# workload and seed, every run appended to OUT, a verdict per metric.
#   make ab BASE=<sha> [N=10] [SEEDS=1,2] [WORKLOADS=durable_write,mixed_rw] [TRACE=1] [OUT=bench/BENCH_<pr>.json]
N ?= 10
SEEDS ?= 1
TRACE ?= 0
OUT ?= bench/BENCH_ab.json
ab:
	$(GO) run ./cmd/ab -base '$(BASE)' -n $(N) -seeds '$(SEEDS)' -workloads '$(WORKLOADS)' -trace $(TRACE) -out '$(OUT)'

# First-party non-test Go, the figure a [simplicity] PR reports the delta
# of (ROADMAP "Standing notes").
loc:
	@git ls-files '*.go' | grep -v '^arcbench/' | grep -v '_test\.go$$' | xargs cat | wc -l
