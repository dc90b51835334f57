// Package serve is the sharded concurrent admission frontend over the
// admission policies: S independent shards, each a single-writer
// goroutine owning one policy.AdmissionPolicy (core.Threshold by
// default; see WithAdmissionPolicy), fed through buffered submission
// queues that drain in batches to amortize channel handoffs.
//
// The design leans on the paper's own structure. Commitment on admission
// means every decision is irrevocable the moment it is made, so a
// shard's decisions depend only on the jobs routed to it — there is no
// cross-shard state to coordinate, exactly as Corollary 1's
// classify-and-select partitions the stream across independent virtual
// schedulers. A sharded service therefore behaves, per shard,
// bit-identically to a lone Threshold replaying that shard's stream;
// VerifyReplay proves it after any run.
//
// Concurrency contract:
//
//   - Submit is safe from any number of goroutines and blocks until the
//     owning shard has decided (or returns ErrBackpressure/ErrClosed).
//   - Each shard serializes its own stream: jobs are admitted in queue
//     arrival order, with release dates clamped forward to the shard
//     clock (a job "arrives" when its shard sees it — the serving-time
//     analogue of the paper's release dates).
//   - Snapshot reads shard statistics from single-writer atomics and
//     never stops the writers.
//   - Close drains every queue, waits for the shard goroutines to
//     finish, and then fails further Submits with ErrClosed.
//
// # Durability
//
// WithDurability adds a per-shard write-ahead commitment log (package
// wal): every decision — accept or reject, since rejects advance the
// shard clock too — is appended and group-committed *before* its verdict
// is released to the caller. Any verdict a caller has observed is
// therefore durably recorded, and Restore rebuilds a bit-identical
// service from the latest checkpoint plus the log tail. Checkpoint
// snapshots each shard's core state (plus counters) and truncates its
// log. A WAL failure poisons the affected shard: subsequent submissions
// fail without touching the scheduler, so the log never silently falls
// behind the in-memory state.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"loadmax/internal/core"
	"loadmax/internal/job"
	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/policy"
	"loadmax/internal/wal"
)

// Backpressure selects what Submit does when a shard queue is full.
type Backpressure int

const (
	// Block makes Submit wait for queue space (default).
	Block Backpressure = iota
	// Reject makes Submit fail fast with ErrBackpressure.
	Reject
)

func (b Backpressure) String() string {
	switch b {
	case Block:
		return "block"
	case Reject:
		return "reject"
	default:
		return fmt.Sprintf("Backpressure(%d)", int(b))
	}
}

var (
	// ErrBackpressure reports a full shard queue under the Reject policy.
	// The job was not admitted and not recorded; the caller may retry.
	ErrBackpressure = errors.New("serve: shard queue full")
	// ErrClosed reports a Submit after Close.
	ErrClosed = errors.New("serve: service closed")
	// ErrNotDurable reports a durability operation (Checkpoint) on a
	// service constructed without WithDurability.
	ErrNotDurable = errors.New("serve: service has no durability (construct with WithDurability)")
)

// Option configures a Service.
type Option func(*config)

type config struct {
	policy        Policy
	admission     policy.Builder
	queueDepth    int
	batchSize     int
	bp            Backpressure
	reg           *obs.Registry
	spans         *obs.SpanRecorder
	log           bool
	coreOpts      []core.Option
	batchHook     func() // test-only: runs at the head of every batch
	durDir        string
	flushInterval time.Duration
	crash         *wal.CrashPlan // test-only: fault-injection schedule
	syncHook      func()         // test-only: runs inside every WAL commit's sync slot
}

// WithPolicy sets the routing policy (default HashByID).
func WithPolicy(p Policy) Option { return func(c *config) { c.policy = p } }

// WithAdmissionPolicy sets the admission policy every shard runs
// (default policy.ThresholdBuilder — the paper's Algorithm 1). The
// builder's spec is stamped into durable manifests and policy-state
// snapshots, so a Restore under a different policy fails loudly instead
// of silently re-deciding the log differently. Use policy.Parse to
// resolve a spec string ("threshold", "greedy", "delta-commit:delta=D")
// to a builder.
func WithAdmissionPolicy(b policy.Builder) Option {
	return func(c *config) { c.admission = b }
}

// WithQueueDepth sets the per-shard submission queue capacity
// (default 1024). Depth 0 is clamped to 1.
func WithQueueDepth(n int) Option { return func(c *config) { c.queueDepth = n } }

// WithBatchSize caps how many queued submissions a shard drains per
// batch (default 64). Larger batches amortize channel wakeups at the
// cost of snapshot freshness; size 0 is clamped to 1.
func WithBatchSize(n int) Option { return func(c *config) { c.batchSize = n } }

// WithBackpressure selects the full-queue behavior (default Block).
func WithBackpressure(b Backpressure) Option { return func(c *config) { c.bp = b } }

// WithMetrics instruments the service through the registry:
//
//	serve_shards                    gauge     shard count
//	serve_shard_jobs_total{shard}   counter   decisions per shard
//	serve_queue_depth{shard}        gauge     queue depth at last batch
//	serve_batch_size                histogram drained batch sizes
//	serve_backpressure_total        counter   Reject-mode refusals
//
// and, under WithDurability:
//
//	serve_wal_fsync_seconds         histogram write+sync time of each WAL commit group
//	serve_wal_group_records         histogram records per WAL commit group (one sample per sync)
//	serve_wal_records_total         counter   records appended to the WAL
//	serve_wal_bytes_total           counter   WAL bytes made durable
//	serve_recovery_records_replayed counter   log records re-decided by Restore
//	serve_recovery_seconds          gauge     wall time of the last Restore
//
// A nil registry (the default) keeps the hot path metric-free.
func WithMetrics(reg *obs.Registry) Option { return func(c *config) { c.reg = reg } }

// WithSpans attaches a span recorder: SubmitSpan-carried spans get their
// queue-wait, decide, and (under durability) WAL stages filled by the
// shard goroutine. Span capture reads the recorder clock and writes into
// the caller's Span struct only — it never touches the scheduler, so
// decisions stay bit-identical to an untraced run (VerifyReplay holds
// with tracing on). A nil recorder (the default) keeps Submit span-free.
func WithSpans(rec *obs.SpanRecorder) Option { return func(c *config) { c.spans = rec } }

// WithDecisionLog records every shard's effective (clamped) job stream
// and decisions, enabling ShardStream and VerifyReplay. Costs two
// appends per decision; leave off for pure throughput serving.
func WithDecisionLog() Option { return func(c *config) { c.log = true } }

// WithCoreOptions forwards options to each shard's core.Threshold
// (engine selection, forced phase — benchmark and ablation use).
func WithCoreOptions(opts ...core.Option) Option {
	return func(c *config) { c.coreOpts = append(c.coreOpts, opts...) }
}

// withBatchHook is the white-box test hook: f runs at the head of every
// drained batch, letting tests stall a shard deterministically.
func withBatchHook(f func()) Option { return func(c *config) { c.batchHook = f } }

// WithDurability makes every decision crash-durable: each shard writes a
// write-ahead commitment log under dir and the verdict is only released
// once its record is fsynced. dir must be fresh — a directory already
// initialized by a previous service is refused; use Restore for that.
// See the package comment's Durability section.
func WithDurability(dir string) Option { return func(c *config) { c.durDir = dir } }

// WithFlushInterval caps the WAL fsync rate: a commit arriving sooner
// than d after the previous fsync waits out the remainder, during which
// the shard queue backs up and the next commit group grows. 0 (default)
// fsyncs every batch; groups still grow under load, because the WAL
// keeps a P free to feed the queues (see package wal). Only meaningful
// with WithDurability.
func WithFlushInterval(d time.Duration) Option { return func(c *config) { c.flushInterval = d } }

// withCrashPlan installs a deterministic fault-injection schedule on
// every shard's WAL and checkpoint path (test-only).
func withCrashPlan(p *wal.CrashPlan) Option { return func(c *config) { c.crash = p } }

// withSyncHook installs f as every shard's wal.Options.SyncHook: it runs
// inside the process-wide sync slot at the start of each WAL commit
// (test-only).
func withSyncHook(f func()) Option { return func(c *config) { c.syncHook = f } }

// ctlOp distinguishes control requests from submissions on the shard
// queue; riding the queue gives control ops the same total order as
// decisions without any extra locking.
type ctlOp int

const (
	ctlSubmit ctlOp = iota
	ctlCheckpoint
)

// request is one in-flight submission or control op. Submission requests
// are pooled; done is a 1-buffered channel so the shard's reply never
// blocks on the caller. Under durability the shard parks the decision in
// dec until the WAL group commits, then releases it.
//
// A batched submission (SubmitBatch) sets jobs/out instead of job/dec:
// the whole sub-batch rides the shard queue as ONE channel send, the
// shard decides the jobs one at a time in batch order, and out[i] is
// job i's result. Batch requests are not pooled — their allocation is
// amortized over the batch.
type request struct {
	job  job.Job
	ctl  ctlOp
	dec  online.Decision
	jobs []job.Job     // batched submission (nil for single-job requests)
	out  []BatchResult // per-job results for a batched submission
	done chan response

	// Span capture (nil sp unless the service has a recorder AND the
	// caller passed a span). enqNs/walNs are recorder-clock marks set at
	// enqueue and post-decide; sp MUST be cleared before pooling.
	sp    *obs.Span
	enqNs int64
	walNs int64
}

// response is a shard's reply to one request.
type response struct {
	dec online.Decision
	err error
}

// Service is the sharded admission frontend. Construct with New, or
// with Restore to resurrect a durable service after a crash.
type Service struct {
	m         int // machines per shard
	eps       float64
	policy    Policy
	admission policy.Builder // constructs each shard's scheduler and the replay verifiers
	bp        Backpressure
	shards    []*shard
	pool      sync.Pool
	durDir    string // "" when not durable
	spans     *obs.SpanRecorder

	backpressure *obs.Counter
	fsyncHist    *obs.Histogram
	groupHist    *obs.Histogram
	walRecords   *obs.Counter
	walBytes     *obs.Counter

	mu     sync.RWMutex // guards closed against concurrent Close
	closed bool
	wg     sync.WaitGroup
}

// shard is one single-writer scheduling lane. Only its goroutine
// touches th; everything readers see goes through atomics.
type shard struct {
	id       int
	th       policy.AdmissionPolicy
	q        *reqQueue
	maxBatch int
	hook     func()
	log      *shardLog // nil unless WithDecisionLog

	// Durability (nil/zero unless WithDurability). wal and walErr are
	// owned by the shard goroutine; base/baseMass are set once during
	// Restore, before the goroutine starts.
	wal      *wal.Writer
	snapPath string
	plan     *wal.CrashPlan
	walErr   error         // sticky: a WAL failure poisons the shard
	base     *policy.State // checkpoint the restored scheduler started from
	baseMass float64       // accepted mass covered by base
	spans    *obs.SpanRecorder

	walSeq atomic.Int64 // last appended WAL sequence (durable shards)

	submitted atomic.Int64
	accepted  atomic.Int64
	rejected  atomic.Int64
	batches   atomic.Int64
	// float64 bits of the accepted processing-time mass and of the
	// outstanding load at the last batch boundary.
	acceptedMassBits atomic.Uint64
	outstandingBits  atomic.Uint64

	jobsTotal *obs.Counter
	// walTotal is this shard's cache-line-padded lane of the shared
	// serve_wal_records_total counter: one Inc per durable record is the
	// hottest counter write in the service, and lanes keep S shards from
	// false-sharing one cell.
	walTotal   *obs.CounterStripe
	queueGauge *obs.Gauge
	batchHist  *obs.Histogram
}

// New builds a Service with the given shard count, machines per shard,
// and slack ε. Each shard owns an independent admission policy instance
// for (m, ε) — core.Threshold unless WithAdmissionPolicy says otherwise;
// total machine capacity is therefore shards×m.
func New(shards, m int, eps float64, opts ...Option) (*Service, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	s, err := build(shards, m, eps, &cfg)
	if err != nil {
		return nil, err
	}
	if cfg.durDir != "" {
		if err := s.initDurable(&cfg); err != nil {
			return nil, err
		}
	}
	s.start()
	return s, nil
}

func defaultConfig() config {
	return config{policy: HashByID(), queueDepth: 1024, batchSize: 64}
}

// build constructs the service and its shards without starting the shard
// goroutines, so New can initialize fresh durability and Restore can
// rebuild state first.
func build(shards, m int, eps float64, cfg *config) (*Service, error) {
	if shards < 1 {
		return nil, fmt.Errorf("serve: shards=%d must be ≥ 1", shards)
	}
	if cfg.queueDepth < 1 {
		cfg.queueDepth = 1
	}
	if cfg.batchSize < 1 {
		cfg.batchSize = 1
	}
	// Resolve the admission builder: Threshold by default, and Threshold
	// always carries the core options (engine selection, tracer) — a
	// threshold builder from policy.Parse doesn't know about them.
	if cfg.admission.New == nil ||
		(cfg.admission.Spec == policy.SpecThreshold && len(cfg.coreOpts) > 0) {
		cfg.admission = policy.ThresholdBuilder(cfg.coreOpts...)
	}
	s := &Service{
		m:         m,
		eps:       eps,
		policy:    cfg.policy,
		admission: cfg.admission,
		bp:        cfg.bp,
		durDir:    cfg.durDir,
		spans:     cfg.spans,
	}
	s.pool.New = func() any {
		return &request{done: make(chan response, 1)}
	}
	s.backpressure = cfg.reg.Counter("serve_backpressure_total")
	s.fsyncHist = cfg.reg.Histogram("serve_wal_fsync_seconds", obs.ExpBucketsRange(1e-6, 4, 12))
	s.groupHist = cfg.reg.Histogram("serve_wal_group_records", obs.ExpBucketsRange(1, 4096, 13))
	s.walRecords = cfg.reg.Counter("serve_wal_records_total")
	s.walBytes = cfg.reg.Counter("serve_wal_bytes_total")
	cfg.reg.Gauge("serve_shards").Set(float64(shards))
	jobsVec := cfg.reg.CounterVec("serve_shard_jobs_total", "shard")
	queueVec := cfg.reg.GaugeVec("serve_queue_depth", "shard")
	batchHist := cfg.reg.Histogram("serve_batch_size", obs.ExpBucketsRange(1, 2048, 12))

	s.shards = make([]*shard, shards)
	for i := range s.shards {
		th, err := s.admission.New(m, eps)
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		sh := &shard{
			id:         i,
			th:         th,
			q:          newReqQueue(cfg.queueDepth),
			maxBatch:   cfg.batchSize,
			hook:       cfg.batchHook,
			jobsTotal:  jobsVec.With(fmt.Sprint(i)),
			queueGauge: queueVec.With(fmt.Sprint(i)),
			batchHist:  batchHist,
			walTotal:   s.walRecords.Stripe(i),
			spans:      cfg.spans,
		}
		if cfg.log {
			sh.log = &shardLog{}
		}
		s.shards[i] = sh
	}
	return s, nil
}

// start launches the shard goroutines; the service is live afterwards.
func (s *Service) start() {
	for _, sh := range s.shards {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sh.run()
		}()
	}
}

// Shards returns the shard count.
func (s *Service) Shards() int { return len(s.shards) }

// Machines returns the machine count per shard.
func (s *Service) Machines() int { return s.m }

// Eps returns the slack ε every shard runs with.
func (s *Service) Eps() float64 { return s.eps }

// Policy returns the routing policy in use.
func (s *Service) Policy() Policy { return s.policy }

// AdmissionPolicy returns the canonical spec of the admission policy
// every shard runs — what gets stamped into durable manifests and the
// network HELLO ack.
func (s *Service) AdmissionPolicy() string { return s.admission.Spec }

// Submit routes the job to its shard and blocks until that shard has
// decided. It is safe from any number of goroutines. Under the Reject
// backpressure policy a full shard queue returns ErrBackpressure
// without admitting the job; after Close it returns ErrClosed. Under
// WithDurability the decision is returned only once it is fsynced to the
// shard's commitment log, and a WAL failure returns the log error with
// the shard poisoned against further submissions.
func (s *Service) Submit(j job.Job) (online.Decision, error) {
	return s.SubmitSpan(j, nil)
}

// SubmitSpan is Submit with request-lifecycle tracing: when the service
// was built WithSpans and sp is non-nil, the owning shard fills sp's
// queue-wait, decide, and WAL stages and its Shard/Verdict fields. The
// span is the caller's — SubmitSpan does not Finish it, so the caller
// can add its own stages (reply write, client round trip) before handing
// it to the recorder. With a nil span (or no recorder) it is exactly
// Submit.
func (s *Service) SubmitSpan(j job.Job, sp *obs.Span) (online.Decision, error) {
	idx := s.policy.Route(j, len(s.shards))
	if idx < 0 || idx >= len(s.shards) {
		idx = ((idx % len(s.shards)) + len(s.shards)) % len(s.shards)
	}
	sh := s.shards[idx]
	req := s.pool.Get().(*request)
	req.job = j
	req.ctl = ctlSubmit
	if s.spans != nil && sp != nil {
		req.sp = sp
		// The enqueue mark is derived, not read: Start plus the stages
		// already recorded (frame decode on the network path) is "now" to
		// within the cost of this call, so the hand-off into the shard
		// queue — dispatch included — lands in queue_wait without a clock
		// read per traced submission.
		req.enqNs = sp.Start + sp.Total()
	}

	// The read lock pins the queues open: Close flips closed and closes
	// them only under the write lock, which waits for every in-flight
	// push. A blocked push cannot deadlock Close — the shard goroutine
	// keeps draining until its queue is closed, which happens only after
	// this push completes and the lock is released.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		req.sp = nil
		s.pool.Put(req)
		return online.Decision{}, ErrClosed
	}
	if s.bp == Reject {
		if ok, closed := sh.q.tryPush(req); !ok {
			s.mu.RUnlock()
			req.sp = nil
			s.pool.Put(req)
			if closed {
				return online.Decision{}, ErrClosed
			}
			// Rejects stripe by shard index: N submitters bouncing off N
			// full queues must not serialize on one backpressure cell.
			s.backpressure.Stripe(idx).Inc()
			return online.Decision{}, ErrBackpressure
		}
	} else if !sh.q.push(req) {
		s.mu.RUnlock()
		req.sp = nil
		s.pool.Put(req)
		return online.Decision{}, ErrClosed
	}
	s.mu.RUnlock()

	resp := <-req.done
	req.sp = nil // never pool a span pointer: the span belongs to the caller
	s.pool.Put(req)
	return resp.dec, resp.err
}

// BatchResult is one job's outcome from SubmitBatch: a decision, or the
// error that prevented one (ErrBackpressure, ErrClosed, a WAL failure).
// Err == nil means the job was decided — and, under durability, that
// its record is fsynced to the shard's commitment log.
type BatchResult struct {
	Dec online.Decision
	Err error
}

// SubmitBatch submits many jobs in one call and returns per-job
// results aligned with jobs. Batching is a transport optimization, not
// a semantic one: each job is routed by the same deterministic policy
// as Submit, every shard still decides its jobs one at a time in batch
// order, and the decision stream is bit-identical to the same jobs
// submitted individually in that order (VerifyReplay holds with
// batching on). What batching amortizes is the handoff: each shard's
// sub-batch is enqueued as ONE channel send, and under durability the
// whole sub-batch shares one group-commit fsync.
//
// Under the Reject backpressure policy a full shard queue fails that
// shard's sub-batch with ErrBackpressure (other sub-batches proceed);
// after Close every job returns ErrClosed.
func (s *Service) SubmitBatch(jobs []job.Job) []BatchResult {
	return s.SubmitBatchSpan(jobs, nil)
}

// SubmitBatchSpan is SubmitBatch with request-lifecycle tracing: when
// the service was built WithSpans and sp is non-nil, one clock pair per
// sub-batch (not per job) fills the batch's stages. A batch that splits
// across shards runs its sub-batches concurrently, so sp aggregates:
// queue_wait and wal are the maximum across sub-batches (the wall-time
// the batch waited), decide is the sum (the engine time the batch
// cost), Shard is the first sub-batch's shard, and Verdict is "accept"
// if any job was accepted, else "error" if any job failed, else
// "reject". The span is the caller's — SubmitBatchSpan does not Finish
// it.
func (s *Service) SubmitBatchSpan(jobs []job.Job, sp *obs.Span) []BatchResult {
	out := make([]BatchResult, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	nsh := len(s.shards)
	// Route per job, then group into per-shard sub-batches preserving
	// input order — a batch that splits across shards is just N
	// independent sub-batches.
	subIdx := make([][]int, nsh)
	for i, j := range jobs {
		idx := s.policy.Route(j, nsh)
		if idx < 0 || idx >= nsh {
			idx = ((idx % nsh) + nsh) % nsh
		}
		subIdx[idx] = append(subIdx[idx], i)
	}
	traced := s.spans != nil && sp != nil
	var enqNs int64
	if traced {
		enqNs = sp.Start + sp.Total() // derived mark, as in SubmitSpan
	}

	var reqs []*request
	var reqIdxs [][]int
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		for i := range out {
			out[i].Err = ErrClosed
		}
		return out
	}
	for shIdx, idxs := range subIdx {
		if len(idxs) == 0 {
			continue
		}
		sub := make([]job.Job, len(idxs))
		for k, i := range idxs {
			sub[k] = jobs[i]
		}
		req := &request{
			jobs: sub,
			out:  make([]BatchResult, len(idxs)),
			done: make(chan response, 1),
		}
		if traced {
			// Each sub-batch gets its own span so concurrent shard
			// goroutines never share one; they are merged below once
			// every sub-batch has replied.
			req.sp = &obs.Span{Start: sp.Start}
			req.enqNs = enqNs
		}
		sh := s.shards[shIdx]
		if s.bp == Reject {
			ok, closed := sh.q.tryPush(req)
			if !ok {
				err := ErrBackpressure
				if closed {
					err = ErrClosed
				} else {
					s.backpressure.Stripe(shIdx).Inc()
				}
				for _, i := range idxs {
					out[i].Err = err
				}
				continue
			}
		} else if !sh.q.push(req) {
			for _, i := range idxs {
				out[i].Err = ErrClosed
			}
			continue
		}
		reqs = append(reqs, req)
		reqIdxs = append(reqIdxs, idxs)
	}
	s.mu.RUnlock()

	for k, req := range reqs {
		<-req.done
		for pos, i := range reqIdxs[k] {
			out[i] = req.out[pos]
		}
	}
	if traced {
		var queueMax, walMax, decideSum int64
		shard := int32(0)
		for k, req := range reqs {
			if k == 0 {
				shard = req.sp.Shard
			}
			if q := req.sp.Stages[obs.StageQueue]; q > queueMax {
				queueMax = q
			}
			if w := req.sp.Stages[obs.StageWAL]; w > walMax {
				walMax = w
			}
			decideSum += req.sp.Stages[obs.StageDecide]
		}
		sp.Shard = shard
		sp.Stages[obs.StageQueue] = queueMax
		sp.Stages[obs.StageWAL] = walMax
		sp.Stages[obs.StageDecide] = decideSum
		sp.Verdict = batchSpanVerdict(out)
	}
	return out
}

// batchSpanVerdict labels a batch span: accept dominates (at least one
// commitment was made), then error, then reject.
func batchSpanVerdict(out []BatchResult) string {
	anyErr := false
	for _, r := range out {
		if r.Err != nil {
			anyErr = true
		} else if r.Dec.Accepted {
			return obs.VerdictAccept
		}
	}
	if anyErr {
		return obs.VerdictError
	}
	return obs.VerdictReject
}

// Checkpoint makes every shard write an atomic snapshot of its scheduler
// state and counters, then truncate its commitment log — bounding both
// log size and recovery time. It rides the shard queues, so it
// serializes cleanly with concurrent Submits, and blocks until every
// shard has checkpointed. It requires WithDurability; the first shard
// error (if any) is returned.
func (s *Service) Checkpoint() error {
	if s.durDir == "" {
		return ErrNotDurable
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	// Control requests are not pooled: they are rare and carry no job.
	reqs := make([]*request, len(s.shards))
	for i, sh := range s.shards {
		reqs[i] = &request{ctl: ctlCheckpoint, done: make(chan response, 1)}
		sh.q.push(reqs[i])
	}
	s.mu.RUnlock()
	var first error
	for _, req := range reqs {
		if resp := <-req.done; resp.err != nil && first == nil {
			first = resp.err
		}
	}
	return first
}

// Close stops intake, drains every shard queue (every already-enqueued
// submission still receives its decision), waits for the shard
// goroutines to exit, and closes the commitment logs. Close is
// idempotent: a second call is a nil no-op, so `defer svc.Close()` after
// an explicit Close is safe.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, sh := range s.shards {
		sh.q.close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	var first error
	for _, sh := range s.shards {
		if sh.wal == nil {
			continue
		}
		if err := sh.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ShardSnapshot is a point-in-time view of one shard, read from
// single-writer atomics without stopping the shard.
type ShardSnapshot struct {
	Shard      int   `json:"shard"`
	QueueDepth int   `json:"queue_depth"`
	Submitted  int64 `json:"submitted"`
	Accepted   int64 `json:"accepted"`
	Rejected   int64 `json:"rejected"`
	Batches    int64 `json:"batches"`
	// AcceptedMass is Σ p_j over accepted jobs — the paper's objective.
	AcceptedMass float64 `json:"accepted_mass"`
	// OutstandingLoad is the summed machine load at the last batch
	// boundary (refreshed per batch, not per decision).
	OutstandingLoad float64 `json:"outstanding_load"`
	// WalSeq is the last appended WAL sequence number; 0 on a
	// non-durable shard (or before its first durable decision).
	WalSeq int64 `json:"wal_seq,omitempty"`
}

// Snapshot returns a consistent-enough view of every shard: each
// shard's counters are exact as of its last completed decision, the
// load as of its last completed batch.
func (s *Service) Snapshot() []ShardSnapshot {
	out := make([]ShardSnapshot, len(s.shards))
	for i, sh := range s.shards {
		// Load order mirrors the writer in reverse: process() publishes
		// Submitted before the verdict counters, so reading the verdicts
		// first guarantees Accepted+Rejected ≤ Submitted in every
		// snapshot, even mid-batch.
		accepted := sh.accepted.Load()
		rejected := sh.rejected.Load()
		out[i] = ShardSnapshot{
			Shard:           sh.id,
			QueueDepth:      sh.q.Len(),
			Submitted:       sh.submitted.Load(),
			Accepted:        accepted,
			Rejected:        rejected,
			Batches:         sh.batches.Load(),
			AcceptedMass:    math.Float64frombits(sh.acceptedMassBits.Load()),
			OutstandingLoad: math.Float64frombits(sh.outstandingBits.Load()),
			WalSeq:          sh.walSeq.Load(),
		}
	}
	return out
}

// AcceptedMass returns the service-wide accepted load Σ p_j.
func (s *Service) AcceptedMass() float64 {
	var sum float64
	for _, sh := range s.shards {
		sum += math.Float64frombits(sh.acceptedMassBits.Load())
	}
	return sum
}

// run is the shard goroutine: one swap-drain per wakeup moves the whole
// backlog into a reused scratch slice (one lock round-trip, however deep
// the queue), which is then decided in maxBatch-sized chunks so WAL
// commit groups and the batch-size histogram keep the same granularity
// the channel-fed loop had. Arrival order is exactly drain order.
func (sh *shard) run() {
	scratch := make([]*request, 0, sh.maxBatch)
	for {
		var ok bool
		scratch, ok = sh.q.drain(scratch[:0])
		if !ok {
			return
		}
		for off := 0; off < len(scratch); off += sh.maxBatch {
			end := off + sh.maxBatch
			if end > len(scratch) {
				end = len(scratch)
			}
			sh.process(scratch[off:end])
		}
		clear(scratch) // drop request pointers before the slice is reused
	}
}

// process decides one batch. Only the shard goroutine calls it, so the
// non-atomic reads of its own atomics' prior values are safe. Under
// durability, replies are parked until the whole batch's WAL group
// commits — one fsync amortized over the batch — and a control request
// mid-batch first flushes everything decided so far.
func (sh *shard) process(batch []*request) {
	if sh.hook != nil {
		sh.hook()
	}
	mass := math.Float64frombits(sh.acceptedMassBits.Load())
	var submitted, accepted, rejected int64

	// publish pushes the batch-local accumulators into the shared
	// atomics: submitted before the verdict counters, so a concurrent
	// Snapshot can never observe accepted+rejected > submitted.
	publish := func() {
		sh.jobsTotal.Add(submitted) // decisions, not drained requests: a batch request is many
		sh.submitted.Add(submitted)
		sh.acceptedMassBits.Store(math.Float64bits(mass))
		sh.accepted.Add(accepted)
		sh.rejected.Add(rejected)
		submitted, accepted, rejected = 0, 0, 0
	}

	// pending holds requests whose decisions await the group commit — a
	// parked batch request waits as one unit, so the whole batch shares
	// the fsync with everything else in the group.
	var pending []*request
	flush := func() {
		if len(pending) == 0 {
			return
		}
		err := sh.wal.Commit()
		if err != nil {
			sh.walErr = fmt.Errorf("serve: shard %d wal: %w", sh.id, err)
		}
		// One clock read covers the whole commit group: every parked
		// request's WAL stage ends at the same fsync.
		var committedNs int64
		if sh.spans != nil {
			committedNs = sh.spans.Now()
		}
		for _, r := range pending {
			if r.sp != nil {
				r.sp.Stages[obs.StageWAL] = committedNs - r.walNs
			}
			if r.jobs != nil {
				// Batch request: a failed commit poisons every job that
				// was awaiting it; jobs that already failed keep their
				// original error. Results travel in r.out.
				if err != nil {
					for i := range r.out {
						if r.out[i].Err == nil {
							r.out[i] = BatchResult{Err: sh.walErr}
						}
					}
				}
				r.done <- response{}
				continue
			}
			if err != nil {
				r.done <- response{err: sh.walErr}
			} else {
				r.done <- response{dec: r.dec}
			}
		}
		pending = pending[:0]
	}

	// lastNs is a running clock mark threaded through consecutive traced
	// requests: request i's decide end is request i+1's dequeue point (the
	// shard is single-threaded, so the time in between IS queue wait).
	// One clock read per request instead of two; 0 forces a fresh read
	// after anything untimed happened in between (checkpoint fsync, WAL
	// append, an untraced request).
	var lastNs int64
	for _, r := range batch {
		if r.ctl == ctlCheckpoint {
			// The snapshot must cover every decision made so far: commit
			// the open group and publish the accumulators first.
			flush()
			publish()
			r.done <- response{err: sh.checkpoint()}
			lastNs = 0
			continue
		}
		if r.jobs != nil {
			// Batched submission: decide the jobs one at a time in batch
			// order. Batching amortizes the channel handoff (one send for
			// the sub-batch), the WAL fsync (the batch parks as one unit
			// in the commit group) and, under tracing, the clock reads
			// (one pair around the whole batch instead of one per job) —
			// it never changes a decision.
			var batchStartNs int64
			if r.sp != nil {
				batchStartNs = sh.spans.Now()
				r.sp.Shard = int32(sh.id)
				r.sp.Stages[obs.StageQueue] = batchStartNs - r.enqNs
			}
			parked := false
			for i := range r.jobs {
				if sh.walErr != nil {
					r.out[i] = BatchResult{Err: sh.walErr}
					continue
				}
				j := r.jobs[i]
				if clock := sh.th.Now(); j.Release < clock {
					j.Release = clock
				}
				dec := sh.th.Submit(j)
				if sh.log != nil {
					sh.log.append(j, dec)
				}
				submitted++
				if dec.Accepted {
					accepted++
					mass += j.Proc
				} else {
					rejected++
				}
				if sh.wal == nil {
					r.out[i] = BatchResult{Dec: dec}
					continue
				}
				seq, err := sh.wal.Append(j, dec)
				if err != nil {
					sh.walErr = fmt.Errorf("serve: shard %d wal: %w", sh.id, err)
					r.out[i] = BatchResult{Err: sh.walErr}
					continue
				}
				sh.walSeq.Store(seq)
				sh.walTotal.Inc()
				r.out[i] = BatchResult{Dec: dec}
				parked = true
			}
			if r.sp != nil {
				decidedNs := sh.spans.Now()
				r.sp.Stages[obs.StageDecide] = decidedNs - batchStartNs
				r.walNs = decidedNs
			}
			if parked {
				pending = append(pending, r)
			} else {
				r.done <- response{}
			}
			lastNs = 0
			continue
		}
		if sh.walErr != nil {
			// Poisoned: the log can no longer keep up with the scheduler,
			// so refuse before the scheduler state advances.
			r.done <- response{err: sh.walErr}
			lastNs = 0
			continue
		}
		j := r.job
		if r.sp != nil {
			if lastNs == 0 {
				lastNs = sh.spans.Now()
			}
			r.sp.Shard = int32(sh.id)
			r.sp.Stages[obs.StageQueue] = lastNs - r.enqNs
		}
		// Arrival clamp: the job arrives at its shard no earlier than the
		// shard clock. Concurrent submitters make no cross-goroutine
		// ordering promise, so the shard — not the caller — fixes the
		// effective release date, keeping the core's release-order
		// protocol intact.
		if clock := sh.th.Now(); j.Release < clock {
			j.Release = clock
		}
		dec := sh.th.Submit(j)
		if r.sp != nil {
			decidedNs := sh.spans.Now()
			r.sp.Stages[obs.StageDecide] = decidedNs - lastNs
			if dec.Accepted {
				r.sp.Verdict = obs.VerdictAccept
			} else {
				r.sp.Verdict = obs.VerdictReject
			}
			r.walNs = decidedNs
			lastNs = decidedNs
		} else {
			lastNs = 0
		}
		if sh.log != nil {
			sh.log.append(j, dec)
		}
		submitted++
		if dec.Accepted {
			accepted++
			mass += j.Proc
		} else {
			rejected++
		}
		if sh.wal == nil {
			r.done <- response{dec: dec}
			continue
		}
		seq, err := sh.wal.Append(j, dec)
		if err != nil {
			sh.walErr = fmt.Errorf("serve: shard %d wal: %w", sh.id, err)
			r.done <- response{err: sh.walErr}
			continue
		}
		sh.walSeq.Store(seq)
		sh.walTotal.Inc()
		r.dec = dec
		pending = append(pending, r)
		lastNs = 0 // the append was untimed; don't fold it into the next decide
	}
	flush()
	publish()
	sh.batches.Add(1)
	sh.outstandingBits.Store(math.Float64bits(sh.th.TotalLoad()))

	sh.batchHist.Observe(float64(len(batch)))
	sh.queueGauge.Set(float64(sh.q.Len()))
}
