// Package core implements the paper's primary contribution: Algorithm 1
// ("Threshold"), a deterministic online algorithm with immediate
// commitment for load maximization on m identical non-preemptive machines
// with slack ε, achieving competitive ratio (m·f_k + 1)/k for phases
// k ≤ 3 and at most (m·f_k + 1)/k + (3−e)/(e−1) otherwise (Theorem 2).
//
// The algorithm, per submission of job J_j at time t = r_j:
//
//  1. Update the outstanding load l(m_h) of every machine and index the
//     machines by decreasing load, l(m_1) ≥ … ≥ l(m_m).
//  2. Compute the deadline threshold over the m−k+1 least-loaded machines
//     (Eqs. 9–10):
//     d_lim = max_{h ∈ {k,…,m}} ( t + l(m_h)·f_h ).
//  3. Reject J_j if d_j < d_lim; otherwise accept and allocate it to the
//     *candidate* machine (one that can still complete it by its
//     deadline) with the highest load — best fit — starting immediately
//     after that machine's outstanding load.
//
// The k most-loaded machines are deliberately excluded from the threshold:
// load parked on them can never inflate d_lim, and best-fit allocation
// steers load onto them first (Section 1.1). Claim 1 guarantees that an
// accepted job always has a candidate machine — the least-loaded machine
// qualifies whenever d_j ≥ d_lim.
//
// Two interchangeable engines execute these steps: the seed's naive
// engine, which re-sorts all m machines and rescans all m−k+1 threshold
// terms per submission, and the default incremental engine, which
// maintains the order across submissions and answers the threshold by a
// pruned tournament descent (see engine.go). The differential harness in
// equivalence_test.go proves the two produce bit-identical decision and
// trace streams.
//
// The package also provides allocation-policy and phase-override variants
// used by the ablation experiments (E9); the paper's algorithm is the
// BestFit policy with the phase k determined by ratio.Compute.
package core

import (
	"fmt"
	"math"

	"loadmax/internal/job"
	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/ratio"
)

// AllocPolicy selects which candidate machine receives an accepted job.
type AllocPolicy int

const (
	// BestFit allocates to the candidate machine with the highest
	// outstanding load — the paper's policy (Algorithm 1, line 9).
	BestFit AllocPolicy = iota
	// LeastLoaded allocates to the candidate machine with the lowest
	// outstanding load (classic list scheduling; ablation).
	LeastLoaded
	// FirstFit allocates to the lowest-indexed candidate machine
	// (ablation).
	FirstFit
)

func (p AllocPolicy) String() string {
	switch p {
	case BestFit:
		return "best-fit"
	case LeastLoaded:
		return "least-loaded"
	case FirstFit:
		return "first-fit"
	default:
		return fmt.Sprintf("AllocPolicy(%d)", int(p))
	}
}

// Option configures a Threshold scheduler.
type Option func(*config)

type config struct {
	policy  AllocPolicy
	forceK  int // 0 = use the paper's phase selection
	nameTag string
	tracer  obs.Sink
	naive   bool
}

// WithPolicy overrides the allocation policy (default BestFit).
func WithPolicy(p AllocPolicy) Option { return func(c *config) { c.policy = p } }

// WithForcedPhase overrides the phase index k, re-solving the f-parameter
// recursion for that k (ablation only; the guarantee of Theorem 2 applies
// to the paper's phase selection).
func WithForcedPhase(k int) Option { return func(c *config) { c.forceK = k } }

// WithName appends a tag to the scheduler's reported name.
func WithName(tag string) Option { return func(c *config) { c.nameTag = tag } }

// WithTracer attaches a decision-trace sink: every Submit emits one
// obs.DecisionEvent explaining the verdict (threshold terms, d_lim,
// phase, allocation). Equivalent to calling SetTracer after New.
func WithTracer(s obs.Sink) Option { return func(c *config) { c.tracer = s } }

// WithNaiveCore selects the seed's naive engine — full re-sort and
// threshold rescan per submission — instead of the default incremental
// engine. Decisions are bit-identical either way (the differential
// harness enforces this); the naive engine exists as the executable
// specification and as the baseline of BenchmarkSubmit.
func WithNaiveCore() Option { return func(c *config) { c.naive = true } }

// Threshold is Algorithm 1. It satisfies online.Scheduler. The zero value
// is not usable; construct with New.
type Threshold struct {
	m      int
	eps    float64
	params ratio.Params
	policy AllocPolicy
	name   string

	// eng holds the machine state (horizons, decreasing-load order) and
	// answers the per-submission queries; see engine.go.
	eng engine

	// tracer receives one DecisionEvent per submission when non-nil.
	// The disabled (nil) path is a single branch and never allocates —
	// bench_obs_test.go enforces this.
	tracer obs.Sink
	seq    int // submissions since the last Reset, for event ordering

	// traceLoads/traceTerms are the reusable payload buffers of trace():
	// the Sink contract lets Emit retain nothing, so one scratch pair
	// per scheduler replaces two fresh allocations per traced Submit.
	traceLoads []float64
	traceTerms []obs.ThresholdTerm
}

var _ online.Scheduler = (*Threshold)(nil)

// New constructs Algorithm 1 for m machines and slack ε ∈ (0, 1]. The
// phase index k and the parameters f_k,…,f_m are solved from the paper's
// recursion (package ratio).
func New(m int, eps float64, opts ...Option) (*Threshold, error) {
	if m < 1 {
		return nil, fmt.Errorf("core: m=%d must be ≥ 1", m)
	}
	cfg := config{policy: BestFit}
	for _, o := range opts {
		o(&cfg)
	}
	var (
		p   ratio.Params
		err error
	)
	if cfg.forceK > 0 {
		p, err = ratio.ComputeForced(eps, cfg.forceK, m)
	} else {
		p, err = ratio.Compute(eps, m)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	name := "threshold"
	if cfg.policy != BestFit {
		name += "/" + cfg.policy.String()
	}
	if cfg.forceK > 0 {
		name += fmt.Sprintf("/k=%d", cfg.forceK)
	}
	if cfg.nameTag != "" {
		name += "/" + cfg.nameTag
	}
	t := &Threshold{
		m:      m,
		eps:    eps,
		params: p,
		policy: cfg.policy,
		name:   name,
		tracer: cfg.tracer,
	}
	if cfg.naive {
		t.eng = newNaiveCore(m, p)
	} else {
		t.eng = newIncCore(m, p)
	}
	return t, nil
}

// SetTracer implements obs.Traceable: it attaches (or, with nil,
// detaches) the decision-trace sink. Safe to call between submissions;
// the tracer survives Reset.
func (t *Threshold) SetTracer(s obs.Sink) { t.tracer = s }

// Name implements online.Scheduler.
func (t *Threshold) Name() string { return t.name }

// Machines implements online.Scheduler.
func (t *Threshold) Machines() int { return t.m }

// Params returns the solved ratio parameters (k, f_k..f_m, c) the
// scheduler operates with.
func (t *Threshold) Params() ratio.Params { return t.params }

// Guarantee returns the Theorem-2 competitive-ratio guarantee for this
// configuration ((m·f_k+1)/k, plus the 0.164 surcharge for k > 3).
func (t *Threshold) Guarantee() float64 { return t.params.UpperBoundValue() }

// Reset implements online.Scheduler.
func (t *Threshold) Reset() {
	t.seq = 0
	t.eng.reset()
}

// Now returns the current simulation time (the release date of the last
// submitted job).
func (t *Threshold) Now() float64 { return t.eng.now() }

// Loads returns the current outstanding loads per physical machine
// (unsorted), for inspection by experiments and tests.
func (t *Threshold) Loads() []float64 {
	out := make([]float64, t.m)
	now := t.eng.now()
	for i := range out {
		out[i] = math.Max(0, t.eng.horizonOf(i)-now)
	}
	return out
}

// TotalLoad returns the summed outstanding load Σ_i l(m_i) at the
// current clock. Unlike Loads it never allocates, so the serving layer
// can publish per-batch load snapshots off the hot path for free.
func (t *Threshold) TotalLoad() float64 {
	now := t.eng.now()
	var sum float64
	for i := 0; i < t.m; i++ {
		if h := t.eng.horizonOf(i); h > now {
			sum += h - now
		}
	}
	return sum
}

// Threshold returns the current acceptance threshold d_lim at time
// Now(), Eqs. (9)–(10). Exposed for tests and the decision-trace
// experiments.
func (t *Threshold) Threshold() float64 {
	t.refreshOrder()
	return t.dlim()
}

// refreshOrder re-establishes the decreasing-load order at the current
// clock without advancing it. Retained (as a thin wrapper over the
// engine) for the in-package invariant tests.
func (t *Threshold) refreshOrder() { t.eng.advance(t.eng.now()) }

// dlim evaluates Eq. (10) over the current order.
func (t *Threshold) dlim() float64 { return t.eng.dlim() }

// Submit implements online.Scheduler. Jobs must arrive in non-decreasing
// release order; Submit panics otherwise, because a violated protocol
// invalidates every competitive-ratio statement downstream.
func (t *Threshold) Submit(j job.Job) online.Decision {
	now := t.eng.now()
	if job.Less(j.Release, now) {
		panic(fmt.Sprintf("core: out-of-order submission: job %d released at %g, clock at %g",
			j.ID, j.Release, now))
	}
	if j.Release > now {
		now = j.Release
	}
	t.eng.advance(now)
	t.seq++

	dlim := t.eng.dlim()
	if job.Less(j.Deadline, dlim) {
		dec := online.Decision{JobID: j.ID, Accepted: false}
		if t.tracer != nil {
			t.trace(j, dlim, dec, obs.ReasonBelowThreshold)
		}
		return dec
	}

	machine := t.eng.pick(j, t.policy)
	if machine < 0 {
		// Claim 1: unreachable for valid slack-ε jobs. A job violating the
		// slack condition could land here; reject it rather than corrupt
		// the committed schedule.
		dec := online.Decision{JobID: j.ID, Accepted: false}
		if t.tracer != nil {
			t.trace(j, dlim, dec, obs.ReasonNoCandidate)
		}
		return dec
	}
	start := now + t.eng.load(machine)
	dec := online.Decision{JobID: j.ID, Accepted: true, Machine: machine, Start: start}
	if t.tracer != nil {
		// Trace before committing: the event must capture the
		// decision-time loads and order, which the commit perturbs.
		t.trace(j, dlim, dec, obs.ReasonAccepted)
	}
	t.eng.commit(machine, start+j.Proc)
	return dec
}

// trace assembles and emits the DecisionEvent for the submission just
// decided. Called only when a tracer is attached, so its allocations
// never touch the untraced hot path.
func (t *Threshold) trace(j job.Job, dlim float64, dec online.Decision, reason string) {
	now := t.eng.now()
	ev := obs.DecisionEvent{
		Seq:       t.seq - 1,
		Scheduler: t.name,
		T:         now,
		JobID:     j.ID,
		Release:   j.Release,
		Proc:      j.Proc,
		Deadline:  j.Deadline,
		K:         t.params.K,
		DLim:      dlim,
		Accepted:  dec.Accepted,
		Reason:    reason,
		Machine:   -1,
		Policy:    t.policy.String(),
		// ArgMaxH starts at the smallest valid rank: when no term
		// strictly exceeds t (all candidate loads zero), d_lim = t is
		// attained by the rank-k term t + 0·f_k, so k — not the
		// out-of-range 0 — is the truthful argmax.
		ArgMaxH: t.params.K,
	}
	if dec.Accepted {
		ev.Machine = dec.Machine
		ev.Start = dec.Start
	}
	if cap(t.traceLoads) < t.m {
		t.traceLoads = make([]float64, t.m)
		t.traceTerms = make([]obs.ThresholdTerm, 0, t.m-t.params.K+1)
	}
	ev.Loads = t.traceLoads[:t.m]
	for h := 1; h <= t.m; h++ {
		ev.Loads[h-1] = t.eng.load(t.eng.machineAt(h))
	}
	t.traceTerms = t.traceTerms[:0]
	best := now
	for h := t.params.K; h <= t.m; h++ {
		i := t.eng.machineAt(h)
		v := now + t.eng.load(i)*t.params.Fq(h)
		if v > best {
			best = v
			ev.ArgMaxH = h
		}
		t.traceTerms = append(t.traceTerms, obs.ThresholdTerm{
			H: h, Machine: i, Load: t.eng.load(i), F: t.params.Fq(h), Value: v,
		})
	}
	ev.Terms = t.traceTerms
	t.tracer.Emit(&ev)
}
