// Package loadmax implements the scheduling system of "Commitment and
// Slack for Online Load Maximization" (Jamalabadi, Schwiegelshohn &
// Schwiegelshohn, SPAA 2020): online admission control of deadline jobs
// on m identical non-preemptive machines with immediate commitment,
// maximizing accepted load Σ p_j under the slack guarantee
// d_j ≥ (1+ε)·p_j + r_j.
//
// The package is a facade over the internal implementation:
//
//   - NewScheduler returns the paper's Algorithm 1 ("Threshold"), a
//     deterministic scheduler whose competitive ratio (m·f_k+1)/k is
//     optimal (Theorem 2 vs Theorem 1).
//   - NewRandomizedSingleMachine returns the Corollary-1 classify-and-
//     select algorithm: O(log 1/ε)-competitive in expectation on one
//     machine.
//   - Ratio / RatioParams evaluate the tight competitive-ratio function
//     c(ε,m) and its phase parameters (Section 2 recursion).
//   - Simulate replays an instance through any Scheduler with full
//     feasibility and commitment verification.
//   - Adversary plays the Section-3 lower-bound game against a scheduler.
//   - OfflineBounds brackets the clairvoyant optimum for ratio
//     measurements.
//   - Generate produces the synthetic workload families used by the
//     experiment harness.
//
// Quick start:
//
//	sched, _ := loadmax.NewScheduler(4, 0.1)
//	dec := sched.Submit(loadmax.Job{ID: 1, Release: 0, Proc: 3, Deadline: 4})
//	if dec.Accepted {
//		fmt.Printf("runs on machine %d at t=%g\n", dec.Machine, dec.Start)
//	}
//
// See the examples/ directory for complete programs and EXPERIMENTS.md
// for the paper-reproduction results.
package loadmax

import (
	"io"
	"time"

	"loadmax/internal/adversary"
	"loadmax/internal/analysis"
	"loadmax/internal/baseline"
	"loadmax/internal/commitment"
	"loadmax/internal/core"
	"loadmax/internal/job"
	"loadmax/internal/netserve"
	"loadmax/internal/obs"
	"loadmax/internal/offline"
	"loadmax/internal/online"
	"loadmax/internal/policy"
	"loadmax/internal/randomized"
	"loadmax/internal/ratio"
	"loadmax/internal/serve"
	"loadmax/internal/sim"
	"loadmax/internal/workload"
)

// Job is a deadline job (r_j, p_j, d_j). See the slack condition (3):
// a scheduler built for slack ε assumes d ≥ (1+ε)·p + r.
type Job = job.Job

// Instance is an ordered job sequence (non-decreasing release dates).
type Instance = job.Instance

// Decision is a scheduler's irrevocable response to a submission.
type Decision = online.Decision

// Scheduler is an online algorithm with immediate commitment; submissions
// must arrive in non-decreasing release order.
type Scheduler = online.Scheduler

// RatioParams carries the solved recursion for one (ε, m): the phase K,
// the parameters f_K..f_M and the tight ratio C.
type RatioParams = ratio.Params

// Result is a verified simulation outcome.
type Result = sim.Result

// AdversaryOutcome is the result of one lower-bound game.
type AdversaryOutcome = adversary.Outcome

// Bounds brackets the offline optimum.
type Bounds = offline.Bounds

// WorkloadSpec parameterizes the synthetic generators.
type WorkloadSpec = workload.Spec

// Allocation policies for NewSchedulerWithPolicy (BestFit is the paper's).
const (
	BestFit     = core.BestFit
	LeastLoaded = core.LeastLoaded
	FirstFit    = core.FirstFit
)

// NewScheduler returns Algorithm 1 for m machines and slack ε ∈ (0, 1].
// Decisions are served by the incremental O(log m)-per-Submit engine;
// see NewSchedulerNaive for the reference engine.
func NewScheduler(m int, eps float64) (*core.Threshold, error) {
	return core.New(m, eps)
}

// NewSchedulerNaive returns Algorithm 1 backed by the seed's naive
// engine, which re-sorts all m machine loads and rescans every threshold
// term per submission. It decides bit-identically to NewScheduler — the
// differential harness in internal/core proves it — and exists as the
// executable specification and benchmark baseline.
func NewSchedulerNaive(m int, eps float64) (*core.Threshold, error) {
	return core.New(m, eps, core.WithNaiveCore())
}

// NewSchedulerWithPolicy returns Algorithm 1 with a non-default
// allocation policy (ablation use; the guarantee is proved for BestFit).
func NewSchedulerWithPolicy(m int, eps float64, policy core.AllocPolicy) (*core.Threshold, error) {
	return core.New(m, eps, core.WithPolicy(policy))
}

// NewGreedy returns the greedy list-scheduling baseline (accept whenever
// some machine can finish the job on time). Valid for any ε > 0,
// including the ε > 1 regime of footnote 2.
func NewGreedy(m int) Scheduler { return baseline.NewGreedy(m) }

// NewDelayedCommitment returns a greedy scheduler in the δ-delayed
// commitment model (§1): the decision for job J may wait until
// r + δ·p but is then irrevocable. Drive it with SimulateDeferred.
func NewDelayedCommitment(m int, delta float64) (*commitment.Delayed, error) {
	return commitment.NewDelayed(m, delta)
}

// NewOnAdmissionCommitment returns a scheduler in the
// commitment-on-admission model (§1): a job is committed only when a
// machine starts it. Drive it with SimulateDeferred.
func NewOnAdmissionCommitment(m int) (*commitment.OnAdmission, error) {
	return commitment.NewOnAdmission(m)
}

// SimulateDeferred replays an instance through a deferred-commitment
// scheduler, verifying feasibility and each model's decision-timing
// contract.
func SimulateDeferred(s commitment.Scheduler, inst Instance) (*commitment.Result, error) {
	return commitment.Run(s, inst)
}

// NewPenalizedCommitment returns a scheduler in the commitment-with-
// penalties model (§1): decisions are immediate but a committed,
// unstarted job may be revoked for a fine of rho per unit of its
// processing time. Drive it with SimulatePenalized.
func NewPenalizedCommitment(m int, rho float64) (*commitment.Penalized, error) {
	return commitment.NewPenalized(m, rho)
}

// SimulatePenalized replays an instance through a penalties-model
// scheduler and verifies feasibility and the objective accounting
// (completed load minus ρ·revoked load).
func SimulatePenalized(p *commitment.Penalized, inst Instance) (*commitment.PenaltyResult, error) {
	return commitment.RunPenalized(p, inst)
}

// NewRandomizedSingleMachine returns the Corollary-1 randomized
// single-machine scheduler with Θ(log 1/ε) virtual machines.
func NewRandomizedSingleMachine(eps float64, seed int64) (Scheduler, error) {
	return randomized.New(eps, 0, seed)
}

// Ratio returns the tight competitive ratio c(ε,m) (Theorems 1 and 2).
func Ratio(eps float64, m int) (float64, error) {
	p, err := ratio.Compute(eps, m)
	if err != nil {
		return 0, err
	}
	return p.C, nil
}

// SolveRatio returns the full recursion parameters for (ε, m).
func SolveRatio(eps float64, m int) (RatioParams, error) {
	return ratio.Compute(eps, m)
}

// PhaseCorners returns the phase-transition slack values ε_{1,m} < … <
// ε_{m−1,m} (the circles of Figure 1).
func PhaseCorners(m int) []float64 { return ratio.Corners(m) }

// Simulate replays the instance through the scheduler and verifies every
// commitment. Optional SimOptions attach observability to the run.
func Simulate(s Scheduler, inst Instance, opts ...SimOption) (*Result, error) {
	return sim.Run(s, inst, opts...)
}

// --- Serving -------------------------------------------------------------

// ShardedService is the concurrent admission frontend: S shards, each a
// single-writer goroutine owning one Threshold scheduler, fed through
// batched submission queues. Commitment on admission makes each shard's
// decision stream bit-identical to a sequential replay through a lone
// scheduler (VerifyReplay proves it), so sharding scales admission
// across cores without weakening any guarantee. SubmitBatch amortizes
// the per-job handoff (one channel send per shard sub-batch, one
// group-commit fsync per batch) without touching those semantics.
// Construct with NewShardedService; always Close when done.
type ShardedService = serve.Service

// ServeOption configures a ShardedService.
type ServeOption = serve.Option

// ShardSnapshot is a read-side view of one shard's counters and load,
// taken without stopping the shard (see ShardedService.Snapshot).
type ShardSnapshot = serve.ShardSnapshot

// RoutingPolicy assigns each submitted job to a shard.
type RoutingPolicy = serve.Policy

// Backpressure selects Submit's behavior on a full shard queue.
type Backpressure = serve.Backpressure

// Backpressure modes: block until queue space frees (default), or fail
// fast with ErrBackpressure.
const (
	BlockOnFull  = serve.Block
	RejectOnFull = serve.Reject
)

// Serving errors.
var (
	ErrBackpressure = serve.ErrBackpressure
	ErrServeClosed  = serve.ErrClosed
	ErrNotDurable   = serve.ErrNotDurable
)

// NewShardedService builds a sharded admission service: shards
// independent Threshold schedulers, each for m machines and slack ε
// (total capacity shards×m machines).
func NewShardedService(shards, m int, eps float64, opts ...ServeOption) (*ShardedService, error) {
	return serve.New(shards, m, eps, opts...)
}

// HashByIDRouter routes by an FNV-1a hash of the job ID (the default).
func HashByIDRouter() RoutingPolicy { return serve.HashByID() }

// LengthClassRouter routes by the job's processing-time class — the
// Corollary-1 classification, pinning jobs of similar length to the
// same shard.
func LengthClassRouter() RoutingPolicy { return serve.LengthClass() }

// RoundRobinRouter cycles through shards in submission order.
func RoundRobinRouter() RoutingPolicy { return serve.RoundRobin() }

// WithServePolicy sets the routing policy (default HashByIDRouter).
func WithServePolicy(p RoutingPolicy) ServeOption { return serve.WithPolicy(p) }

// AdmissionPolicy is a pluggable per-shard admission algorithm: an
// online Scheduler extended with the clock/load/state accessors the
// serving stack needs for replay verification and durable recovery.
type AdmissionPolicy = policy.AdmissionPolicy

// AdmissionBuilder names an admission policy (a canonical spec string)
// and constructs fresh instances of it. Obtain one from
// ParseAdmissionPolicy.
type AdmissionBuilder = policy.Builder

// ParseAdmissionPolicy resolves a policy spec — "threshold" (the
// paper's Algorithm 1, the default), "greedy" (best-fit EDF baseline),
// or "delta-commit:delta=D" (δ-commitment, arXiv:1811.08238 adapted to
// immediate verdicts) — into a builder for WithServeAdmissionPolicy.
func ParseAdmissionPolicy(spec string) (AdmissionBuilder, error) { return policy.Parse(spec) }

// AdmissionPolicySpecs lists the recognized admission-policy spec
// forms.
func AdmissionPolicySpecs() []string { return policy.Specs() }

// WithServeAdmissionPolicy runs every shard of the service on the given
// admission policy instead of the default Threshold scheduler. All
// serving guarantees are policy-relative: VerifyReplay proves the
// concurrent decision stream bit-identical to a sequential replay
// through the same policy, durable directories record the policy in
// their manifest, and Restore refuses a directory written under a
// different policy.
func WithServeAdmissionPolicy(b AdmissionBuilder) ServeOption {
	return serve.WithAdmissionPolicy(b)
}

// WithServeQueueDepth sets the per-shard submission queue capacity.
func WithServeQueueDepth(n int) ServeOption { return serve.WithQueueDepth(n) }

// WithServeBatchSize caps how many queued submissions a shard decides
// per drain.
func WithServeBatchSize(n int) ServeOption { return serve.WithBatchSize(n) }

// WithServeBackpressure selects the full-queue behavior.
func WithServeBackpressure(b Backpressure) ServeOption { return serve.WithBackpressure(b) }

// WithServeMetrics instruments the service through the registry (queue
// depths, batch sizes, per-shard throughput, backpressure events).
func WithServeMetrics(reg *Metrics) ServeOption { return serve.WithMetrics(reg) }

// WithServeDecisionLog records per-shard decision streams, enabling
// ShardedService.VerifyReplay and ShardStream.
func WithServeDecisionLog() ServeOption { return serve.WithDecisionLog() }

// WithDurability makes every admission decision crash-durable: each
// shard writes a write-ahead commitment log under dir and a verdict is
// released only after its record is fsynced, so every acceptance a
// caller has seen survives a process crash. Restore rebuilds the
// service from the directory. dir must be fresh; an already-initialized
// directory is refused.
func WithDurability(dir string) ServeOption { return serve.WithDurability(dir) }

// WithDurabilityFlushInterval caps the commitment-log fsync rate: a
// commit arriving sooner than d after the previous fsync waits out the
// remainder, growing the next commit group instead of syncing per tiny
// batch. 0 (the default) fsyncs every batch. Commit groups grow under
// load without it, so set it only to cap the sync rate itself; each
// interval can add up to d to a verdict's latency.
func WithDurabilityFlushInterval(d time.Duration) ServeOption {
	return serve.WithFlushInterval(d)
}

// Restore rebuilds a durable ShardedService from its directory after a
// crash or shutdown: each shard imports its latest checkpoint and
// replays the commitment-log tail through the deterministic scheduler,
// verifying every replayed decision against the logged one. The
// restored service honors every previously returned acceptance and
// decides future submissions exactly as the lost process would have.
// Topology (shards, machines, ε) comes from the directory's manifest.
func Restore(dir string, opts ...ServeOption) (*ShardedService, error) {
	return serve.Restore(dir, opts...)
}

// --- Network serving -----------------------------------------------------

// Client is a pooled, pipelining connection to a loadmax daemon
// (cmd/loadmaxd, or any netserve server). It is safe for concurrent
// use; requests are multiplexed by id over each pooled connection.
// Algorithmic rejection is NOT an error — a rejected job returns
// (Decision{Accepted: false}, nil); errors (ErrShed, ErrNetTimeout,
// *netserve.RemoteError, *netserve.TransportError) mean the job was
// never decided. For raw throughput, Client.SubmitBatch moves many
// jobs per wire frame — one length prefix, one CRC, one shard handoff
// per sub-batch and one group-commit fsync per batch — while the
// engine still decides jobs one at a time in batch order, so decisions
// stay bit-identical to per-job submission.
type Client = netserve.Client

// NetBatchResult is one job's outcome from Client.SubmitBatch, under
// the same contract as Submit: a nil Err with Accepted=false is an
// algorithmic rejection; Err means job i was never decided.
type NetBatchResult = netserve.BatchResult

// ServeBatchResult is one job's outcome from ShardedService.SubmitBatch
// (the in-process batched path the network server dispatches into).
type ServeBatchResult = serve.BatchResult

// MaxBatchJobs is the wire cap on jobs per submit-batch frame; Client
// chunks larger batches transparently.
const MaxBatchJobs = netserve.MaxBatchJobs

// DialOption configures Dial.
type DialOption = netserve.DialOption

// NetServer is the TCP admission front end over a ShardedService.
type NetServer = netserve.Server

// NetServerOption configures ServeNetwork.
type NetServerOption = netserve.ServerOption

// Network-serving errors. ErrShed reports overload protection — the
// server refused to consult the scheduler and the caller may retry,
// which is deliberately distinct from an algorithmic rejection.
// ErrNetTimeout reports an expired per-call verdict deadline (outcome
// unknown).
var (
	ErrShed       = netserve.ErrShed
	ErrNetTimeout = netserve.ErrTimeout
)

// Dial connects to a loadmax daemon. The handshake carries the service
// topology, readable via the Client's Shards/Machines/Eps methods.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	return netserve.Dial(addr, opts...)
}

// WithDialConns sets the client connection-pool size (default 1).
func WithDialConns(n int) DialOption { return netserve.WithConns(n) }

// WithDialTimeout sets the default per-call verdict timeout; the
// Client's SubmitTimeout overrides it per call.
func WithDialTimeout(d time.Duration) DialOption { return netserve.WithTimeout(d) }

// ServeNetwork exposes a ShardedService over TCP with the netserve wire
// protocol — the network front door cmd/loadmaxd wraps. The returned
// server does not own the service; close the server first, then the
// service.
func ServeNetwork(svc *ShardedService, addr string, opts ...NetServerOption) (*NetServer, error) {
	return netserve.Serve(svc, addr, opts...)
}

// WithNetWindow sets the per-connection in-flight window the server
// enforces (advertised to clients in the handshake).
func WithNetWindow(n int) NetServerOption { return netserve.WithWindow(n) }

// WithNetMaxInflight caps server-wide concurrent submissions; beyond it
// requests are shed with ErrShed instead of queued.
func WithNetMaxInflight(n int) NetServerOption { return netserve.WithMaxInflight(n) }

// WithNetMetrics instruments the server (connections, per-verdict
// counters, request-latency histogram, shed and slow-client counts).
func WithNetMetrics(reg *Metrics) NetServerOption { return netserve.WithServerMetrics(reg) }

// --- Observability -------------------------------------------------------

// DecisionEvent is one fully explained scheduling decision: the sorted
// machine loads, every threshold term t + l(m_h)·f_h, the winning h,
// d_lim, the active phase k, the verdict and the allocation.
type DecisionEvent = obs.DecisionEvent

// ThresholdTerm is one Eq.-(10) summand inside a DecisionEvent.
type ThresholdTerm = obs.ThresholdTerm

// TraceSink consumes decision events (see MemoryTrace, NewJSONLTrace).
type TraceSink = obs.Sink

// MemoryTrace buffers decision events in memory.
type MemoryTrace = obs.MemorySink

// Metrics is a registry of counters, gauges and histograms; pass it to
// Simulate via WithSimMetrics and export it with its WriteJSON method.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewJSONLTrace returns a sink writing one JSON object per decision to
// w; call its Close method to flush.
func NewJSONLTrace(w io.Writer) *obs.JSONLSink { return obs.NewJSONLSink(w) }

// Span is one request's lifecycle timeline: nanoseconds spent in each
// stage of the serving stack (frame decode, shard queue wait, engine
// decide, WAL fsync wait, reply write), plus the verdict. Build one per
// request, pass it to ShardedService.SubmitSpan, and hand it to the
// recorder's Finish.
type Span = obs.Span

// SpanRecorder aggregates finished Spans into per-stage latency
// histograms, a recent-span ring, and a slow-request ring + log. A nil
// recorder disables tracing everywhere it is accepted.
type SpanRecorder = obs.SpanRecorder

// SpanOption configures NewSpanRecorder.
type SpanOption = obs.SpanOption

// NewSpanRecorder builds a span recorder exporting its aggregates
// through the registry (span_stage_seconds{stage=...},
// span_total_seconds, span_finished_total, span_slow_total).
func NewSpanRecorder(reg *Metrics, opts ...SpanOption) *SpanRecorder {
	return obs.NewSpanRecorder(reg, opts...)
}

// WithSpanRing sets how many finished spans the recorder retains for
// inspection (default 512; ≤ 0 disables retention).
func WithSpanRing(n int) SpanOption { return obs.WithSpanRing(n) }

// WithSpanSlowThreshold logs (and ring-retains) any request whose total
// stage time exceeds d, with its full stage breakdown.
func WithSpanSlowThreshold(d time.Duration) SpanOption { return obs.WithSlowThreshold(d) }

// WithServeSpans traces every SubmitSpan-carried request through the
// sharded service: queue-wait and decide (and WAL, when durable) stages
// are recorded without perturbing decisions — VerifyReplay holds with
// tracing on.
func WithServeSpans(rec *SpanRecorder) ServeOption { return serve.WithSpans(rec) }

// WithNetSpans traces every dispatched network request end to end
// (decode through reply write) into the same recorder the backing
// service uses; pass the identical recorder to WithServeSpans.
func WithNetSpans(rec *SpanRecorder) NetServerOption { return netserve.WithServerSpans(rec) }

// WithDialSpans records the client-observed send→verdict round trip of
// every call into rec's "client" stage histogram.
func WithDialSpans(rec *SpanRecorder) DialOption { return netserve.WithClientSpans(rec) }

// SimOption configures one Simulate call.
type SimOption = sim.RunOption

// WithSimMetrics records run-level metrics (acceptance rate, load
// fraction, violations, wall time) into the registry.
func WithSimMetrics(r *Metrics) SimOption { return sim.WithMetrics(r) }

// WithSimTrace attaches a decision-trace sink for the duration of the
// run (schedulers that support tracing, i.e. Threshold variants).
func WithSimTrace(s TraceSink) SimOption { return sim.WithTrace(s) }

// Adversary plays the Section-3 lower-bound game against the scheduler,
// returning the realized ratio and the generated instance. beta ≤ 0
// selects the default precision.
func Adversary(s Scheduler, eps, beta float64) (*AdversaryOutcome, error) {
	return adversary.Run(s, eps, adversary.Config{Beta: beta})
}

// OfflineBounds brackets the clairvoyant optimum of an instance;
// exactLimit caps the exact solver's instance size (0 = default).
func OfflineBounds(inst Instance, m, exactLimit int) Bounds {
	return offline.ComputeBounds(inst, m, exactLimit)
}

// Analyze computes post-run diagnostics — machine utilization and the
// capacity/policy rejection breakdown — from a Simulate result.
func Analyze(inst Instance, res *Result) (*analysis.Report, error) {
	return analysis.Analyze(inst, res)
}

// Generate produces a named synthetic workload ("uniform", "poisson",
// "pareto", "bimodal", "tight-slack", "diurnal", "adversarial-echo").
func Generate(family string, spec WorkloadSpec) (Instance, bool) {
	f, ok := workload.ByName(family)
	if !ok {
		return nil, false
	}
	return f.Gen(spec), true
}

// WorkloadFamilies lists the available generator names.
func WorkloadFamilies() []string {
	names := make([]string, len(workload.Families))
	for i, f := range workload.Families {
		names[i] = f.Name
	}
	return names
}
