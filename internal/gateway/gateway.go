// Package gateway is the cluster tier: a proxy that fronts N loadmaxd
// backends behind the netserve wire protocol, routing job-id spaces to
// backend groups with the same deterministic router policies the serve
// layer uses one level down, mirror-forwarding every decided verdict to
// a warm standby per group, health-checking backends with HELLO probes,
// and promoting the standby on primary death — provably without
// revoking a single acknowledged verdict.
//
// Routing spans both tiers. With G groups of backends that run S shards
// each, the router spreads jobs over all G·S (group, shard) lanes and a
// job goes to group ⌊Route(j, G·S) / S⌋; the backend then routes it
// with Route(j, S) as it always does. Routing each tier by the same
// Route(j, ·) would let a job's group fix its shard and leave most
// lanes — and their machines — idle.
//
// The determinism that makes the failover proof possible: each group
// runs ONE sequencer goroutine holding ONE connection to its primary
// with at most one SubmitBatch in flight, so the primary decides jobs
// in exactly the order the sequencer sent them — the backend's
// per-shard decision streams are a deterministic projection of gateway
// batch order. The mirror loop replays the identical decided batches,
// in the identical order, to the standby, whose streams therefore
// match the primary's bit for bit; every standby verdict is compared
// against the primary's on arrival and any divergence is fatal to the
// standby's candidacy. Acknowledgement ordering does the rest: a
// verdict is released to the caller only after it is journaled and
// enqueued for the mirror, and a failover flushes the mirror queue
// before promoting, so "acked" always implies "present on the
// promoted backend".
package gateway

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/netserve"
	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/serve"
)

// Typed gateway errors. serve.ErrBackpressure is reused for overload
// (gateway intake full, mirror lag bound hit, or the backend itself
// shed) so the netserve front end answers SHED — retryable — exactly as
// a single daemon would.
var (
	// ErrClosed reports a submission after Close.
	ErrClosed = errors.New("gateway: closed")
	// ErrGroupDown reports that a group has no serviceable backend:
	// the primary is gone and no (healthy, non-diverged) standby
	// remains to promote.
	ErrGroupDown = errors.New("gateway: backend group down")
)

// BackendSpec names one group's backends: a primary address and an
// optional warm standby ("" for none — the group then runs undegraded
// but cannot survive a primary death).
type BackendSpec struct {
	Primary string
	Standby string
}

// Option configures a Gateway.
type Option func(*config)

type config struct {
	router        serve.Policy
	reg           *obs.Registry
	spans         *obs.SpanRecorder
	intakeDepth   int
	mirrorDepth   int
	callTimeout   time.Duration
	dialTimeout   time.Duration
	probeInterval time.Duration
	failThreshold int
	journal       bool
	mirrorGate    func() // test-only: blocks the mirror loop before each apply
}

func defaultConfig() config {
	return config{
		router:        serve.HashByID(),
		intakeDepth:   1024,
		mirrorDepth:   256,
		callTimeout:   30 * time.Second,
		dialTimeout:   5 * time.Second,
		probeInterval: 500 * time.Millisecond,
		failThreshold: 3,
	}
}

// WithRouter sets the group-routing policy (default HashByID). The same
// serve.Policy implementations route jobs to shards inside a backend;
// here they route jobs over every (group, shard) lane, one level up, and
// the lane fixes the group (see the package comment). The policy must be
// deterministic for the routing-determinism guarantee to hold.
func WithRouter(p serve.Policy) Option { return func(c *config) { c.router = p } }

// WithMetrics instruments the gateway through the registry:
//
//	gateway_groups                  gauge     backend groups
//	gateway_backends_healthy        gauge     backends passing HELLO probes
//	gateway_jobs_total{group}       counter   decided jobs per group
//	gateway_shed_total{cause}       counter   cause=intake (queue full) | mirror (lag bound hit)
//	gateway_mirror_lag_jobs         gauge     decided jobs awaiting mirror apply
//	gateway_mirror_lag              histogram mirror lag (jobs) sampled at each enqueue
//	gateway_failovers_total         counter   standby promotions (incl. drains)
//	gateway_mirror_divergence_total counter   standby verdicts that contradicted the primary
//	gateway_probe_failures_total    counter   failed HELLO probes
func WithMetrics(reg *obs.Registry) Option { return func(c *config) { c.reg = reg } }

// WithSpans attaches a span recorder: proxied submissions get queue
// (intake wait) and decide (backend round trip) stages on their spans.
func WithSpans(rec *obs.SpanRecorder) Option { return func(c *config) { c.spans = rec } }

// WithIntakeDepth bounds each group's pending-submission queue (default
// 1024 requests). A full intake sheds — serve.ErrBackpressure, a SHED
// verdict on the wire — rather than queueing unboundedly.
func WithIntakeDepth(n int) Option { return func(c *config) { c.intakeDepth = n } }

// WithMirrorDepth bounds each group's mirror queue (default 256
// batches): the async standby may lag the primary by at most this many
// decided batches. At the bound the gateway sheds NEW intake (distinct
// gateway_shed_total{cause="mirror"} metric) instead of dropping mirror
// records — the lag bound trades availability for a hard cap on how
// much the standby can be behind, never for verdict loss.
func WithMirrorDepth(n int) Option { return func(c *config) { c.mirrorDepth = n } }

// WithCallTimeout bounds each backend SubmitBatch round trip (default
// 30s). A primary that exceeds it is treated as dead: outcome unknown,
// nothing acked, failover.
func WithCallTimeout(d time.Duration) Option { return func(c *config) { c.callTimeout = d } }

// WithDialTimeout bounds backend dials and HELLO probes (default 5s).
func WithDialTimeout(d time.Duration) Option { return func(c *config) { c.dialTimeout = d } }

// WithProbeInterval sets the HELLO health-probe cadence (default
// 500ms); <= 0 disables active probing (failures are then detected only
// on the submission path).
func WithProbeInterval(d time.Duration) Option { return func(c *config) { c.probeInterval = d } }

// WithFailThreshold sets how many consecutive probe failures mark a
// primary dead and trigger failover (default 3).
func WithFailThreshold(n int) Option { return func(c *config) { c.failThreshold = n } }

// WithJournal keeps an in-memory journal of every acknowledged verdict
// per group — the acked set VerifyMergedReplay checks the promoted
// backend's streams against. Tests and the cluster bench turn it on;
// it grows with traffic, so a long-lived daemon leaves it off.
func WithJournal() Option { return func(c *config) { c.journal = true } }

// withMirrorGate is the white-box test hook: f runs in the mirror loop
// before each record is applied to the standby, letting tests hold the
// mirror at a known lag deterministically.
func withMirrorGate(f func()) Option { return func(c *config) { c.mirrorGate = f } }

// Gateway fronts N backend groups. It implements netserve.Admitter, so
// netserve.Serve(gw, addr) puts the full wire protocol — windows,
// shedding, batching, spans — in front of the cluster; Shards() is the
// number of groups, the routing width one level up.
type Gateway struct {
	cfg    config
	groups []*group
	pool   sync.Pool // *gwReq

	mu     sync.Mutex
	closed bool

	closeCh chan struct{} // stops the prober
	probeWg sync.WaitGroup

	ack struct { // uniform backend topology, validated at New
		shards   int
		machines int
		eps      float64
		policy   string
	}

	// Metrics (nil-safe without a registry).
	groupsGauge  *obs.Gauge
	healthyGauge *obs.Gauge
	jobsTotal    *obs.CounterVec
	shedTotal    *obs.CounterVec
	shedIntake   *obs.Counter
	shedMirror   *obs.Counter
	lagGauge     *obs.Gauge
	lagHist      *obs.Histogram
	failovers    *obs.Counter
	divergence   *obs.Counter
	probeFails   *obs.Counter
}

// New dials every backend in specs, validates that they all advertise
// the same topology and admission policy (a cluster whose backends
// would decide differently is a misconfiguration, refused loudly), and
// starts one sequencer per group plus the health prober.
func New(specs []BackendSpec, opts ...Option) (*Gateway, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if len(specs) == 0 {
		return nil, errors.New("gateway: no backends")
	}
	if cfg.intakeDepth < 1 {
		cfg.intakeDepth = 1
	}
	if cfg.mirrorDepth < 1 {
		cfg.mirrorDepth = 1
	}
	gw := &Gateway{
		cfg:     cfg,
		closeCh: make(chan struct{}),

		groupsGauge:  cfg.reg.Gauge("gateway_groups"),
		healthyGauge: cfg.reg.Gauge("gateway_backends_healthy"),
		jobsTotal:    cfg.reg.CounterVec("gateway_jobs_total", "group"),
		shedTotal:    cfg.reg.CounterVec("gateway_shed_total", "cause"),
		lagGauge:     cfg.reg.Gauge("gateway_mirror_lag_jobs"),
		lagHist:      cfg.reg.Histogram("gateway_mirror_lag", obs.ExpBucketsRange(1, 1<<16, 17)),
		failovers:    cfg.reg.Counter("gateway_failovers_total"),
		divergence:   cfg.reg.Counter("gateway_mirror_divergence_total"),
		probeFails:   cfg.reg.Counter("gateway_probe_failures_total"),
	}
	gw.shedIntake = gw.shedTotal.With("intake")
	gw.shedMirror = gw.shedTotal.With("mirror")
	gw.pool.New = func() any {
		r := &gwReq{done: make(chan struct{}, 1)}
		r.jobs, r.out = r.oneJob[:0], r.oneOut[:0]
		return r
	}

	for i, spec := range specs {
		g, err := newGroup(gw, i, spec)
		if err != nil {
			// Nothing is running yet: release the clients of the groups
			// already built and bail (Close would wait on sequencers
			// that never started).
			for _, built := range gw.groups {
				built.closeClients()
			}
			return nil, err
		}
		gw.groups = append(gw.groups, g)
	}
	gw.groupsGauge.Set(float64(len(gw.groups)))
	for _, g := range gw.groups {
		go g.run()
		if g.standbyB() != nil {
			go g.mirrorLoop()
		}
	}
	if cfg.probeInterval > 0 {
		gw.probeWg.Add(1)
		go gw.probeLoop()
	}
	return gw, nil
}

// checkTopology folds one backend's handshake into the gateway-wide
// view, requiring every backend to match the first. The shard count
// must match too: the group rule divides lanes by it, and a standby
// mirrors its primary bit-identically only with the same shards.
func (gw *Gateway) checkTopology(addr string, cl *netserve.Client) error {
	if gw.ack.policy == "" {
		gw.ack.shards = cl.Shards()
		gw.ack.machines = cl.Machines()
		gw.ack.eps = cl.Eps()
		gw.ack.policy = cl.Policy()
		return nil
	}
	if cl.Shards() != gw.ack.shards || cl.Machines() != gw.ack.machines || cl.Eps() != gw.ack.eps || cl.Policy() != gw.ack.policy {
		return fmt.Errorf("gateway: backend %s advertises shards=%d m=%d eps=%g policy=%q, cluster runs shards=%d m=%d eps=%g policy=%q",
			addr, cl.Shards(), cl.Machines(), cl.Eps(), cl.Policy(), gw.ack.shards, gw.ack.machines, gw.ack.eps, gw.ack.policy)
	}
	return nil
}

// Shards is the routing width the wire handshake advertises: the number
// of backend groups. (Each backend shards again internally; the HELLO
// ack describes the tier a client talks to.)
func (gw *Gateway) Shards() int { return len(gw.groups) }

// Machines returns the per-shard machine count of the (uniform)
// backends.
func (gw *Gateway) Machines() int { return gw.ack.machines }

// Eps returns the backends' slack ε.
func (gw *Gateway) Eps() float64 { return gw.ack.eps }

// AdmissionPolicy returns the backends' canonical policy spec.
func (gw *Gateway) AdmissionPolicy() string { return gw.ack.policy }

// Router returns the group-routing policy name.
func (gw *Gateway) Router() string { return gw.cfg.router.Name() }

// Submit proxies one job to its group's primary and blocks for the
// verdict. Same contract as serve.Service.Submit: a rejection is a
// decision, not an error; serve.ErrBackpressure is retryable overload.
func (gw *Gateway) Submit(j job.Job) (online.Decision, error) {
	return gw.SubmitSpan(j, nil)
}

// SubmitSpan is Submit with request-lifecycle tracing.
func (gw *Gateway) SubmitSpan(j job.Job, sp *obs.Span) (online.Decision, error) {
	var out [1]serve.BatchResult
	gw.submit([]job.Job{j}, out[:], sp)
	return out[0].Dec, out[0].Err
}

// SubmitBatch proxies a batch, scattering jobs to their groups and
// gathering per-job results aligned with jobs.
func (gw *Gateway) SubmitBatch(jobs []job.Job) []serve.BatchResult {
	return gw.SubmitBatchSpan(jobs, nil)
}

// SubmitBatchSpan is SubmitBatch with request-lifecycle tracing: sp
// gets the intake wait (queue) and the backend round trip (decide) —
// the maximum of each over the groups the batch reached, which wait
// concurrently — and the lowest such group as its Shard.
func (gw *Gateway) SubmitBatchSpan(jobs []job.Job, sp *obs.Span) []serve.BatchResult {
	out := make([]serve.BatchResult, len(jobs))
	gw.submit(jobs, out, sp)
	return out
}

// submit is the one submission path under Submit, SubmitSpan,
// SubmitBatch and SubmitBatchSpan: a job is a batch of one. It enqueues
// one request per group — preserving relative order within every group,
// which is what per-backend determinism is defined over — waits for all
// of them and writes job i's result into out[i]. Requests copy jobs in
// and results out, so neither slice is retained. As in serve, the frame
// is kept small: the front server calls this from a fresh goroutine per
// frame.
func (gw *Gateway) submit(jobs []job.Job, out []serve.BatchResult, sp *obs.Span) {
	if len(jobs) == 0 {
		return
	}
	head := gw.split(jobs)
	traced := gw.cfg.spans != nil && sp != nil
	enq := gw.cfg.spans.Now()
	for r := head; r != nil; r = r.link {
		r.traced, r.enq = traced, enq
		if err := gw.groups[r.group].enqueue(r); err != nil {
			// Answer the refused request on the spot, so every request is
			// waited on alike.
			for k := range r.out {
				r.out[k] = serve.BatchResult{Err: err}
			}
			r.done <- struct{}{}
		}
	}
	if !traced {
		sp = nil
	}
	gw.collect(head, out, sp)
}

// split routes every job exactly once, in order (round-robin counts
// calls), into one pooled request per group, linked in group order from
// head. A batch that lands in one group — every one-job batch does —
// needs no scatter buffers; otherwise head keeps them for collect.
func (gw *Gateway) split(jobs []job.Job) (head *gwReq) {
	var groupOf []int32
	first := gw.route(jobs[0])
	for i := 1; i < len(jobs); i++ {
		gi := gw.route(jobs[i])
		if groupOf == nil && gi != first {
			groupOf = make([]int32, len(jobs))
			for k := range i {
				groupOf[k] = int32(first)
			}
		}
		if groupOf != nil {
			groupOf[i] = int32(gi)
		}
	}
	if groupOf == nil {
		head = gw.getReq(first)
		for _, j := range jobs {
			head.add(j)
		}
		return head
	}
	byGroup := make([]*gwReq, len(gw.groups))
	for i, j := range jobs {
		r := byGroup[groupOf[i]]
		if r == nil {
			r = gw.getReq(int(groupOf[i]))
			byGroup[groupOf[i]] = r
		}
		r.add(j)
	}
	tail := &head
	for _, r := range byGroup {
		if r != nil {
			*tail = r
			tail = &r.link
		}
	}
	head.groupOf, head.byGroup = groupOf, byGroup
	return head
}

// collect waits for every request of a batch, gathers job i's result
// into out[i], stamps sp (nil when untraced) with the intake wait
// (queue) and the backend round trip (decide) — the maximum of each
// over the groups the batch reached, which wait concurrently — and the
// lowest such group as its Shard, and pools the requests.
func (gw *Gateway) collect(head *gwReq, out []serve.BatchResult, sp *obs.Span) {
	for r := head; r != nil; r = r.link {
		<-r.done
	}
	if head.groupOf == nil {
		copy(out, head.out)
	} else {
		for i := range out {
			r := head.byGroup[head.groupOf[i]]
			out[i] = r.out[r.next]
			r.next++
		}
	}
	if sp != nil {
		sp.Shard = int32(head.group)
		sp.Stages[obs.StageQueue], sp.Stages[obs.StageDecide] = 0, 0
		for r := head; r != nil; r = r.link {
			sp.Stages[obs.StageQueue] = max(sp.Stages[obs.StageQueue], r.queue)
			sp.Stages[obs.StageDecide] = max(sp.Stages[obs.StageDecide], r.decide)
		}
	}
	for r := head; r != nil; {
		next := r.link
		gw.putReq(r)
		r = next
	}
}

// getReq hands out a pooled request for group gi.
func (gw *Gateway) getReq(gi int) *gwReq {
	r := gw.pool.Get().(*gwReq)
	r.group = gi
	return r
}

// add appends a job and the slot for its result.
func (r *gwReq) add(j job.Job) {
	r.jobs = append(r.jobs, j)
	r.out = append(r.out, serve.BatchResult{})
}

// putReq resets a finished request and pools it.
func (gw *Gateway) putReq(r *gwReq) {
	clear(r.out) // results may hold errors; the pool must not pin them
	if cap(r.jobs) > netserve.MaxBatchJobs {
		r.jobs, r.out = r.oneJob[:0], r.oneOut[:0]
	}
	r.jobs, r.out = r.jobs[:0], r.out[:0]
	r.link, r.next, r.groupOf, r.byGroup = nil, 0, nil, nil
	r.traced, r.queue, r.decide = false, 0, 0
	gw.pool.Put(r)
}

// route returns the job's group; S is the backends' shard count from
// HELLO.
func (gw *Gateway) route(j job.Job) int {
	return groupOf(gw.cfg.router, j, len(gw.groups), gw.ack.shards)
}

// groupOf is the gateway's group rule: router p spreads jobs over all
// groups·shards (group, shard) lanes, and the group is the lane divided
// by shards. A backend routes the job with Route(j, shards), which for
// hash-by-id and length-class is the same lane modulo shards, so every
// lane gets its share instead of a job's group fixing its shard.
func groupOf(p serve.Policy, j job.Job, groups, shards int) int {
	lanes := groups * shards
	lane := p.Route(j, lanes)
	if lane < 0 || lane >= lanes {
		lane = 0
	}
	return lane / shards
}

// DrainBackend takes group gi's primary out of rotation without
// dropping a single in-flight commitment: the sequencer finishes the
// batch in flight, the mirror queue is flushed to the standby, the
// standby is promoted, and only then is the old primary released. The
// group runs degraded (no standby) afterwards. Fails if the group has
// no standby to promote.
func (gw *Gateway) DrainBackend(gi int) error {
	if gi < 0 || gi >= len(gw.groups) {
		return fmt.Errorf("gateway: no group %d", gi)
	}
	return gw.groups[gi].requestDrain()
}

// Journal returns a copy of group gi's acknowledged-verdict journal
// (requires WithJournal).
func (gw *Gateway) Journal(gi int) []JournalEntry {
	if gi < 0 || gi >= len(gw.groups) {
		return nil
	}
	return gw.groups[gi].journalSnapshot()
}

// DecidedJobs returns the total number of verdicts the gateway has
// acknowledged across all groups.
func (gw *Gateway) DecidedJobs() int64 {
	var n int64
	for _, g := range gw.groups {
		n += g.decided.Load()
	}
	return n
}

// Close drains the gateway: stop the prober, close intakes, let every
// sequencer finish its pending work, flush every mirror queue (so
// standbys end bit-identical to their primaries), then release the
// backend clients. Idempotent.
func (gw *Gateway) Close() error {
	gw.mu.Lock()
	if gw.closed {
		gw.mu.Unlock()
		return nil
	}
	gw.closed = true
	gw.mu.Unlock()
	close(gw.closeCh)
	gw.probeWg.Wait()
	for _, g := range gw.groups {
		g.closeIntake()
	}
	for _, g := range gw.groups {
		<-g.seqDone
		g.stopMirror()
		<-g.mirrorDone
		g.closeClients()
	}
	return nil
}
