GO ?= go

# Pinned so CI and local runs agree on the diagnostic set. 2024.1.1 is
# the last line that supports the go.mod Go version; bump both together.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all build test race race-multicore bench bench-submit bench-submit-smoke bench-serve bench-serve-smoke bench-recover bench-recover-smoke bench-net bench-net-smoke bench-batch bench-batch-smoke bench-trace bench-trace-smoke bench-scale bench-scale-smoke bench-arena bench-arena-smoke bench-cluster bench-cluster-smoke net-smoke gateway-smoke obs-smoke crash-smoke fuzz-smoke verify fmt vet staticcheck experiments clean

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

# bench-submit runs the reproducible Submit-latency sweep (naive vs
# incremental engine, m up to 4096) and writes BENCH_submit.json; see
# EXPERIMENTS.md for the schema. -check lockstep-verifies that both
# engines make bit-identical decisions before anything is timed.
bench-submit:
	$(GO) run ./cmd/bench -check -out BENCH_submit.json

# bench-submit-smoke is the CI gate for the runner: small m, full
# equivalence check, no regression threshold (it fails on build errors,
# panics, or an engine divergence — not on noisy timings).
bench-submit-smoke:
	$(GO) run ./cmd/bench -quick -check -out -

# bench-serve runs the sharded serving-layer throughput sweep (shard
# count × GOMAXPROCS through internal/serve) and writes BENCH_serve.json;
# see EXPERIMENTS.md for the schema. -check proves every shard's decision
# stream bit-identical to a sequential replay before anything is timed.
bench-serve:
	$(GO) run ./cmd/bench -mode serve -check -out BENCH_serve.json

# bench-serve-smoke is the CI gate for the serving layer: 1–2 shards,
# small n, equivalence check forced on. It fails on build errors, panics,
# or a shard-stream/sequential-replay divergence — never on timing noise.
bench-serve-smoke:
	$(GO) run ./cmd/bench -mode serve -quick -check -out -

# bench-recover runs the crash-recovery sweep (commitment-log length ×
# mid-stream checkpointing through serve.Restore) and writes
# BENCH_recover.json; see EXPERIMENTS.md §E16 for the schema. -check
# additionally proves every restored service bit-identical to a
# sequential replay (VerifyReplay).
bench-recover:
	$(GO) run ./cmd/bench -mode recover -check -out BENCH_recover.json

# bench-recover-smoke is the CI gate for durability: short logs, replay
# verification forced on. It fails on build errors, panics, or a
# recovered-state/replay divergence — never on timing noise.
bench-recover-smoke:
	$(GO) run ./cmd/bench -mode recover -quick -check -out -

# bench-net runs the network-serving sweep (client count × pipelining
# depth against an in-process daemon on a loopback port) and writes
# BENCH_net.json; see EXPERIMENTS.md §E17 for the schema. -check proves
# every sweep point's networked decision stream bit-identical to a
# sequential replay before anything is timed.
bench-net:
	$(GO) run ./cmd/bench -mode net -check -out BENCH_net.json

# bench-net-smoke is the CI gate for the wire path: 1–2 clients, small
# n, replay verification forced on. It fails on build errors, panics,
# or a networked-stream/sequential-replay divergence — never on timing.
bench-net-smoke:
	$(GO) run ./cmd/bench -mode net -quick -check -out -

# bench-batch runs the batched-admission sweep (client count × jobs per
# submit-batch frame, against the per-job baseline at the same client
# count) and writes BENCH_batch.json; see EXPERIMENTS.md §E19 for the
# schema. -check proves every batched sweep point — span tracing on —
# bit-identical to a sequential replay before anything is timed.
bench-batch:
	$(GO) run ./cmd/bench -mode batch -check -out BENCH_batch.json

# bench-batch-smoke is the CI gate for the batched path: 1–2 clients,
# two batch sizes, small n, replay verification forced on. It fails on
# build errors, panics, or a batched-stream/sequential-replay
# divergence — never on throughput numbers, which are timing.
bench-batch-smoke:
	$(GO) run ./cmd/bench -mode batch -quick -check -out -

# bench-trace measures request-lifecycle tracing overhead on the
# daemon's Submit surface (netserve RPC over loopback, headline) and on
# the raw in-process Submit path (engine section), and writes
# BENCH_trace.json; see EXPERIMENTS.md §E18 for the schema. -check
# proves both traced configurations replay bit-identically first.
bench-trace:
	$(GO) run ./cmd/bench -mode trace -check -out BENCH_trace.json

# bench-trace-smoke is the CI gate for tracing: small n, one round,
# replay verification forced on for both the in-process and networked
# traced paths. It fails on build errors, panics, or a traced-stream
# divergence — never on overhead numbers, which are timing.
bench-trace-smoke:
	$(GO) run ./cmd/bench -mode trace -quick -check -out -

# bench-scale runs the multi-core scaling sweep (serve/net/batch
# surfaces × GOMAXPROCS × shard count) and writes BENCH_scale.json; see
# EXPERIMENTS.md §E20 for the schema. Replay verification is hardwired
# on at every point, and the run aborts unless the untraced Submit hot
# path measures 0 allocs/op.
bench-scale:
	$(GO) run ./cmd/bench -mode scale -out BENCH_scale.json

# bench-scale-smoke is the CI gate for the scaling sweep: GOMAXPROCS
# {1,2}, 1–2 shards, small n, replay verification at every point plus
# the 0-alloc Submit gate. It fails on build errors, panics, a
# decision-stream divergence, or an allocating hot path — never on the
# scaling numbers, which are timing.
bench-scale-smoke:
	$(GO) run ./cmd/bench -mode scale -quick -out -

# bench-arena races every registered admission policy (Threshold, the
# δ-commitment grid, the greedy baseline) over the Section 3 adversary
# at an ε grid and over every workload family, and writes
# BENCH_arena.json; see EXPERIMENTS.md §E21 for the schema. -check
# lockstep-verifies each policy decides deterministically on every
# workload stream before its curve is reported.
bench-arena:
	$(GO) run ./cmd/bench -mode arena -check -out BENCH_arena.json

# bench-arena-smoke is the CI gate for the policy arena: small n, a
# two-point ε grid, determinism check forced on. It fails on build
# errors, panics, an adversary protocol violation (an infeasible
# commitment is a policy bug), or a nondeterministic policy — never on
# the competitive-ratio numbers, which are exact model outputs anyway.
bench-arena-smoke:
	$(GO) run ./cmd/bench -mode arena -quick -check -out -

# bench-cluster runs the gateway-tier sweep (backend groups × wire
# clients, with a kill -9 of group 0's primary mid-burst at every
# point) and writes BENCH_cluster.json; see EXPERIMENTS.md §E22 for the
# schema. Replay verification is hardwired on: every point must fail
# over with zero acknowledged-verdict loss and pass the merged
# per-backend replay proof (gateway.VerifyMergedReplay).
bench-cluster:
	$(GO) run ./cmd/bench -mode cluster -out BENCH_cluster.json

# bench-cluster-smoke is the CI gate for the cluster tier: 1–2 groups,
# 1–2 clients, small n, the mid-burst kill and the merged replay proof
# at every point. It fails on build errors, panics, a lost or altered
# acknowledged verdict, or a stream divergence — never on throughput
# or latency numbers, which are timing.
bench-cluster-smoke:
	$(GO) run ./cmd/bench -mode cluster -quick -out -

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

# verify is the CI gate: formatting, static checks, a full build and the
# race-enabled test suite (which includes the zero-alloc observability
# guard in bench_obs_test.go).
verify: fmt vet staticcheck build race

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
