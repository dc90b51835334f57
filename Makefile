GO ?= go

# Pinned so CI and local runs agree on the diagnostic set. 2024.1.1 is
# the last line that supports the go.mod Go version; bump both together.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all build test race race-multicore bench bench-arena bench-arena-smoke net-smoke gateway-smoke obs-smoke crash-smoke fuzz-smoke verify fmt vet staticcheck experiments clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-multicore re-runs the race suite with scheduler parallelism
# forced to 4, regardless of the host's core count: striped counters,
# the swap-drain shard queues and the pooled frame buffers only
# interleave interestingly when goroutines actually preempt each other.
# The second invocation re-runs the policy-equivalence matrix (every
# registered admission policy through concurrent serve + kill/restore +
# WAL state round-trips) on its own, so a policy-specific interleaving
# bug fails with a policy-named test rather than somewhere in the bulk
# suite.
race-multicore:
	GOMAXPROCS=4 $(GO) test -race -count=1 ./...
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestServePolicyMatrix|TestPolicyMatrixKillRestore|TestPolicyStateRoundTrip|TestPolicyDeterminism' ./internal/serve/ ./internal/policy/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestGateway|TestRoutingDeterminism|TestMirror|TestDrain' ./internal/gateway/

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-arena races every registered admission policy (Threshold, the
# δ-commitment grid, the greedy baseline) over the Section 3 adversary
# at an ε grid and over every workload family, and writes
# BENCH_arena.json; see EXPERIMENTS.md §E21 for the schema. Every
# workload point is lockstep-checked for deterministic decisions before
# its curve is reported.
bench-arena:
	$(GO) run ./cmd/arena

# bench-arena-smoke is the CI gate for the policy arena: small n, a
# two-point ε grid. It fails on build errors, panics, an adversary
# protocol violation (an infeasible commitment is a policy bug), or a
# nondeterministic policy — never on the competitive-ratio numbers,
# which are exact model outputs anyway.
bench-arena-smoke:
	$(GO) run ./cmd/arena -quick -out -

# gateway-smoke is the failover gate: the gateway suite under the race
# detector — concurrent submitters, a kill -9 (Server.Abort) of a
# primary mid-burst, standby promotion with the mirror queue flushed
# first, and the merged per-backend decision streams proven
# bit-identical by policy-generic replay with zero acked-verdict loss.
# Plus the routing-determinism table (every router × admission policy:
# gateway submission ≡ direct per-backend submission), mirror-lag
# shedding, and the drain path. Outcomes are deterministic; nothing
# asserts on wall-clock timing.
gateway-smoke:
	$(GO) test -race -count=1 ./internal/gateway/

# obs-smoke is the ops-plane gate: build loadmaxd + loadmaxctl, start a
# traced daemon with the admin listener, scrape /metrics and /statusz
# through the CLI, assert the required series and status fields are
# present, then SIGTERM and require a clean drain. Structural asserts
# only — no timing.
obs-smoke:
	sh scripts/obs_smoke.sh

# net-smoke is the daemon integration gate: the netserve suite under the
# race detector — N concurrent pipelining clients against a live TCP
# daemon, overload shedding, verdict timeouts, slow-client disconnects,
# graceful drain, and the kill-and-Restore replay proof. Outcomes are
# deterministic (gated admission, net.Pipe clients); nothing asserts on
# wall-clock timing.
net-smoke:
	$(GO) test -race -count=1 -run 'TestNet' ./internal/netserve/

# crash-smoke runs the deterministic crash-fault matrix under the race
# detector: the WAL writer is killed at each of the six kill points
# (including torn mid-fsync writes) and the recovered service must honor
# every acknowledged decision and decide the remaining stream
# bit-identically. Deterministic by construction — no timing dependence.
# The second pass repeats the matrix and the sync-slot tests at
# GOMAXPROCS=2, where the WAL lets one goroutine sync at a time.
crash-smoke:
	$(GO) test -race -run 'TestCrash' ./internal/serve/ ./internal/wal/
	GOMAXPROCS=2 $(GO) test -race -count=1 -run 'TestCrash|TestSyncSlot' ./internal/serve/ ./internal/wal/

# fuzz-smoke gives each fuzz target a short coverage-guided run (the
# committed seed corpora already run on every plain `go test`). Fixed
# seeds live in f.Add and testdata/fuzz; the budget is small enough for
# CI but has already caught real bugs (a negative-Load Spec once drove
# release dates negative and panicked the generator finalizer).
fuzz-smoke:
	$(GO) test -race -run '^$$' -fuzz 'FuzzSlackBoundary' -fuzztime 10s ./internal/job/
	$(GO) test -race -run '^$$' -fuzz 'FuzzGenerators' -fuzztime 10s ./internal/workload/
	$(GO) test -race -run '^$$' -fuzz 'FuzzDecodeAll' -fuzztime 10s ./internal/wal/
	$(GO) test -race -run '^$$' -fuzz 'FuzzDecodeFrame' -fuzztime 10s ./internal/netserve/
	$(GO) test -race -run '^$$' -fuzz 'FuzzImportState' -fuzztime 10s ./internal/policy/

# verify is the CI gate: formatting, static checks, a full build and the
# race-enabled test suite (which includes the zero-alloc observability
# guard in bench_obs_test.go). perfbench is a module of its own, so
# ./... never reaches it; the last line vets and tests it against this
# checkout.
verify: fmt vet staticcheck build race
	cd perfbench && $(GO) vet . && $(GO) test .

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck runs the pinned honnef.co linter when the binary is on
# PATH and degrades to a notice when it is not (the repo adds no module
# dependencies, so the tool is never fetched implicitly). CI installs
# the pinned version explicitly.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi

experiments:
	$(GO) run ./cmd/experiments -quick

clean:
	$(GO) clean ./...
	rm -f *.pprof
