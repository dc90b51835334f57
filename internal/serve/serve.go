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

// maxPooledJobs bounds the job buffer a pooled request keeps; a request
// that carried a larger sub-batch goes back to its inline room.
const maxPooledJobs = 1024

// request is one in-flight submission or control op. A submission is a
// sub-batch of one or many jobs bound for one shard: it rides the shard
// queue as ONE push, the shard decides jobs[i] and writes out[i] in
// order, and done carries the reply (1-buffered, so the shard never
// blocks on the caller). Under durability the shard parks the request
// until its WAL group commits, then releases it. Requests are pooled
// with inline room for one job, so a one-job submission allocates
// nothing.
type request struct {
	ctl   ctlOp
	shard int // the shard whose queue the request rides
	jobs  []job.Job
	out   []BatchResult
	done  chan error

	oneJob [1]job.Job
	oneOut [1]BatchResult

	// Submitter-side bookkeeping: the next request of the same batch (in
	// shard order), the gather cursor into out, and — on the head of a
	// batch that split across shards — each job's shard and each shard's
	// request.
	link    *request
	next    int
	shardOf []int32
	byShard []*request

	// Tracing: recorder-clock marks at enqueue and at the end of decide,
	// and the stages the shard measured, which the submitter folds into
	// the caller's span. A request never points at the caller's span, so
	// shards deciding one batch's sub-batches never share one.
	traced             bool
	enqNs, decidedNs   int64
	queue, decide, wal int64
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
	log      *shardLog  // nil unless WithDecisionLog
	pending  []*request // process scratch: requests awaiting the group commit

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
	if cfg.admission.New == nil {
		cfg.admission = policy.ThresholdBuilder()
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
		r := &request{done: make(chan error, 1)}
		r.jobs, r.out = r.oneJob[:0], r.oneOut[:0]
		return r
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
	var out [1]BatchResult
	s.submit([]job.Job{j}, out[:], sp)
	return out[0].Dec, out[0].Err
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
// sub-batch is enqueued as ONE queue push, and under durability the
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
// cost), Shard is the lowest shard the batch reached, and Verdict is
// SpanVerdict of the results. The span is the caller's —
// SubmitBatchSpan does not Finish it.
func (s *Service) SubmitBatchSpan(jobs []job.Job, sp *obs.Span) []BatchResult {
	out := make([]BatchResult, len(jobs))
	s.submit(jobs, out, sp)
	return out
}

// submit is the one submission path under Submit, SubmitSpan,
// SubmitBatch and SubmitBatchSpan: a job is a batch of one. It hands
// each shard its sub-batch as one queue push, waits for every shard and
// writes job i's result into out[i]. The requests copy the jobs in and
// the results out, so neither slice is retained and a caller's
// one-element arrays stay on its stack. The frame is kept small on
// purpose: the server calls this from a fresh goroutine per frame, and a
// frame that outgrows the starting stack pays a stack copy per request.
func (s *Service) submit(jobs []job.Job, out []BatchResult, sp *obs.Span) {
	if len(jobs) == 0 {
		return
	}
	head := s.split(jobs)
	traced := s.spans != nil && sp != nil
	var enqNs int64
	if traced {
		// The enqueue mark is derived, not read: Start plus the stages
		// already recorded (frame decode on the network path) is "now" to
		// within the cost of this call, so the hand-off into the shard
		// queue lands in queue_wait without a clock read.
		enqNs = sp.Start + sp.Total()
	}
	// The read lock pins the queues open: Close closes them only under
	// the write lock, which waits for every in-flight push. A blocked
	// push cannot deadlock Close — the shard goroutine keeps draining
	// until its queue is closed, which happens only after this push
	// completes and the lock is released.
	s.mu.RLock()
	for r := head; r != nil; r = r.link {
		r.traced, r.enqNs = traced, enqNs
		s.enqueue(r)
	}
	s.mu.RUnlock()
	if !traced {
		sp = nil
	}
	s.collect(head, out, sp)
}

// split routes every job exactly once, in order (round-robin counts
// calls), into one pooled request per shard, linked in shard order from
// head. A batch that lands on one shard — every one-job batch does —
// needs no scatter buffers; otherwise head keeps them for collect.
func (s *Service) split(jobs []job.Job) (head *request) {
	var shardOf []int32
	first := s.route(jobs[0])
	for i := 1; i < len(jobs); i++ {
		idx := s.route(jobs[i])
		if shardOf == nil && idx != first {
			shardOf = make([]int32, len(jobs))
			for k := range i {
				shardOf[k] = int32(first)
			}
		}
		if shardOf != nil {
			shardOf[i] = int32(idx)
		}
	}
	if shardOf == nil {
		head = s.getRequest(first)
		for _, j := range jobs {
			head.add(j)
		}
		return head
	}
	byShard := make([]*request, len(s.shards))
	for i, j := range jobs {
		r := byShard[shardOf[i]]
		if r == nil {
			r = s.getRequest(int(shardOf[i]))
			byShard[shardOf[i]] = r
		}
		r.add(j)
	}
	tail := &head
	for _, r := range byShard {
		if r != nil {
			*tail = r
			tail = &r.link
		}
	}
	head.shardOf, head.byShard = shardOf, byShard
	return head
}

// collect waits for every request of a batch, gathers job i's result
// into out[i], stamps sp (nil when untraced) and pools the requests. A
// batch that split across shards ran its sub-batches concurrently, so
// sp aggregates: queue_wait and wal are the maximum (the wall time the
// batch waited), decide is the sum (the engine time it cost), and Shard
// is the lowest shard it reached.
func (s *Service) collect(head *request, out []BatchResult, sp *obs.Span) {
	for r := head; r != nil; r = r.link {
		<-r.done
	}
	if head.shardOf == nil {
		copy(out, head.out)
	} else {
		for i := range out {
			r := head.byShard[head.shardOf[i]]
			out[i] = r.out[r.next]
			r.next++
		}
	}
	if sp != nil {
		sp.Shard = int32(head.shard)
		sp.Stages[obs.StageQueue], sp.Stages[obs.StageDecide], sp.Stages[obs.StageWAL] = 0, 0, 0
		for r := head; r != nil; r = r.link {
			sp.Stages[obs.StageQueue] = max(sp.Stages[obs.StageQueue], r.queue)
			sp.Stages[obs.StageDecide] += r.decide
			sp.Stages[obs.StageWAL] = max(sp.Stages[obs.StageWAL], r.wal)
		}
		sp.Verdict = SpanVerdict(out)
	}
	for r := head; r != nil; {
		next := r.link
		s.putRequest(r)
		r = next
	}
}

// route returns the job's shard, folding a misbehaving policy's
// out-of-range index back into range.
func (s *Service) route(j job.Job) int {
	n := len(s.shards)
	idx := s.policy.Route(j, n)
	if idx < 0 || idx >= n {
		idx = ((idx % n) + n) % n
	}
	return idx
}

// enqueue pushes r onto its shard's queue. A refused push — the queue
// is closed, or full under Reject — answers r on the spot, so the
// submitter waits on every request alike. Call with s.mu read-held.
func (s *Service) enqueue(r *request) {
	q := s.shards[r.shard].q
	var err error
	if s.bp == Reject {
		if ok, closed := q.tryPush(r); !ok {
			err = ErrClosed
			if !closed {
				// Rejects stripe by shard index: N submitters bouncing off
				// N full queues must not serialize on one cell.
				s.backpressure.Stripe(r.shard).Inc()
				err = ErrBackpressure
			}
		}
	} else if !q.push(r) {
		err = ErrClosed
	}
	if err != nil {
		for i := range r.out {
			r.out[i] = BatchResult{Err: err}
		}
		r.done <- nil
	}
}

// getRequest hands out a pooled submission request for shard idx.
func (s *Service) getRequest(idx int) *request {
	r := s.pool.Get().(*request)
	r.shard = idx
	return r
}

// add appends a job and the slot for its result.
func (r *request) add(j job.Job) {
	r.jobs = append(r.jobs, j)
	r.out = append(r.out, BatchResult{})
}

// putRequest resets a drained submission request and pools it.
func (s *Service) putRequest(r *request) {
	clear(r.out) // results may hold errors; the pool must not pin them
	if cap(r.jobs) > maxPooledJobs {
		r.jobs, r.out = r.oneJob[:0], r.oneOut[:0]
	}
	r.jobs, r.out = r.jobs[:0], r.out[:0]
	r.link, r.next, r.shardOf, r.byShard = nil, 0, nil, nil
	r.traced, r.queue, r.decide, r.wal = false, 0, 0, 0
	s.pool.Put(r)
}

// SpanVerdict labels a request span from its per-job results: accept
// if any job was accepted (a commitment was made), else the gravest
// other outcome — error, then shed (ErrBackpressure), then reject. A
// one-job request gets exactly its job's verdict.
func SpanVerdict(out []BatchResult) string {
	v := obs.VerdictReject
	for _, r := range out {
		switch {
		case r.Err == nil:
			if r.Dec.Accepted {
				return obs.VerdictAccept
			}
		case errors.Is(r.Err, ErrBackpressure):
			if v == obs.VerdictReject {
				v = obs.VerdictShed
			}
		default:
			v = obs.VerdictError
		}
	}
	return v
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
		reqs[i] = &request{ctl: ctlCheckpoint, done: make(chan error, 1)}
		sh.q.push(reqs[i])
	}
	s.mu.RUnlock()
	var first error
	for _, req := range reqs {
		if err := <-req.done; err != nil && first == nil {
			first = err
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
		sh.jobsTotal.Add(submitted) // decisions, not drained requests: a request may carry many
		sh.submitted.Add(submitted)
		sh.acceptedMassBits.Store(math.Float64bits(mass))
		sh.accepted.Add(accepted)
		sh.rejected.Add(rejected)
		submitted, accepted, rejected = 0, 0, 0
	}

	// pending holds requests whose decisions await the group commit; a
	// parked request waits as one unit, so all its jobs share the fsync
	// with everything else in the group.
	pending := sh.pending[:0]
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
			if r.traced {
				r.wal = committedNs - r.decidedNs
			}
			// A failed commit poisons every job that was awaiting it;
			// jobs that already failed keep their original error.
			if err != nil {
				for i := range r.out {
					if r.out[i].Err == nil {
						r.out[i] = BatchResult{Err: sh.walErr}
					}
				}
			}
			r.done <- nil
		}
		clear(pending) // drop request pointers before the slice is reused
		pending = pending[:0]
	}

	for _, r := range batch {
		if r.ctl == ctlCheckpoint {
			// The snapshot must cover every decision made so far: commit
			// the open group and publish the accumulators first.
			flush()
			publish()
			r.done <- sh.checkpoint()
			continue
		}
		// One request, one job or many: decide the jobs one at a time in
		// order. Batching amortizes the queue push, the WAL fsync (the
		// request parks as one unit in the commit group) and, under
		// tracing, the clock reads (one pair per request, not per job) —
		// it never changes a decision.
		var startNs int64
		if r.traced {
			startNs = sh.spans.Now()
			r.queue = startNs - r.enqNs
		}
		parked := false
		for i, j := range r.jobs {
			if sh.walErr != nil {
				// Poisoned: the log can no longer keep up with the
				// scheduler, so refuse before the scheduler state advances.
				r.out[i] = BatchResult{Err: sh.walErr}
				continue
			}
			// Arrival clamp: the job arrives at its shard no earlier than
			// the shard clock. Concurrent submitters make no
			// cross-goroutine ordering promise, so the shard — not the
			// caller — fixes the effective release date, keeping the
			// core's release-order protocol intact.
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
			if sh.wal != nil {
				seq, err := sh.wal.Append(j, dec)
				if err != nil {
					sh.walErr = fmt.Errorf("serve: shard %d wal: %w", sh.id, err)
					r.out[i] = BatchResult{Err: sh.walErr}
					continue
				}
				sh.walSeq.Store(seq)
				sh.walTotal.Inc()
				parked = true
			}
			r.out[i] = BatchResult{Dec: dec}
		}
		if r.traced {
			r.decidedNs = sh.spans.Now()
			r.decide = r.decidedNs - startNs
		}
		if parked {
			pending = append(pending, r)
		} else {
			r.done <- nil
		}
	}
	flush()
	sh.pending = pending
	publish()
	sh.batches.Add(1)
	sh.outstandingBits.Store(math.Float64bits(sh.th.TotalLoad()))

	sh.batchHist.Observe(float64(len(batch)))
	sh.queueGauge.Set(float64(sh.q.Len()))
}
