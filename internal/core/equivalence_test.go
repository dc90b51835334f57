package core

// The differential-equivalence harness of ISSUE 2: the incremental engine
// must be *decision-identical* to the seed's naive engine — same
// accept/reject verdicts, same machines, bit-identical start times, and
// identical DecisionEvent streams — on randomized workloads, the
// Theorem-1 adversary traces, tie-heavy and all-drained corners, and ε at
// exact phase corners. The naive engine is the executable specification;
// any divergence is a bug in the incremental structure.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"loadmax/internal/adversary"
	"loadmax/internal/job"
	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/ratio"
	"loadmax/internal/workload"
)

// newEnginePair builds two Thresholds with identical configuration, one
// per engine, each with a memory trace sink attached when traced is true.
func newEnginePair(t *testing.T, m int, eps float64, traced bool, opts ...Option) (naive, inc *Threshold, sinkN, sinkI *obs.MemorySink) {
	t.Helper()
	sinkN, sinkI = &obs.MemorySink{}, &obs.MemorySink{}
	nOpts := append([]Option{WithNaiveCore()}, opts...)
	iOpts := append([]Option{}, opts...)
	if traced {
		nOpts = append(nOpts, WithTracer(sinkN))
		iOpts = append(iOpts, WithTracer(sinkI))
	}
	var err error
	naive, err = New(m, eps, nOpts...)
	if err != nil {
		t.Fatalf("naive New(%d, %g): %v", m, eps, err)
	}
	inc, err = New(m, eps, iOpts...)
	if err != nil {
		t.Fatalf("incremental New(%d, %g): %v", m, eps, err)
	}
	return naive, inc, sinkN, sinkI
}

// sameEvent compares two DecisionEvents field by field with exact float
// equality, ignoring only the Scheduler name (the engines are tagged
// differently on purpose in some tests).
func sameEvent(a, b *obs.DecisionEvent) error {
	if a.Seq != b.Seq || a.JobID != b.JobID || a.T != b.T ||
		a.Release != b.Release || a.Proc != b.Proc || a.Deadline != b.Deadline {
		return fmt.Errorf("job/clock fields differ: %+v vs %+v", a, b)
	}
	if a.K != b.K || a.DLim != b.DLim || a.ArgMaxH != b.ArgMaxH {
		return fmt.Errorf("threshold fields differ: k %d/%d d_lim %g/%g argmax %d/%d",
			a.K, b.K, a.DLim, b.DLim, a.ArgMaxH, b.ArgMaxH)
	}
	if a.Accepted != b.Accepted || a.Reason != b.Reason ||
		a.Machine != b.Machine || a.Start != b.Start || a.Policy != b.Policy {
		return fmt.Errorf("verdict fields differ: %+v vs %+v", a, b)
	}
	if len(a.Loads) != len(b.Loads) || len(a.Terms) != len(b.Terms) {
		return fmt.Errorf("slice lengths differ")
	}
	for i := range a.Loads {
		if a.Loads[i] != b.Loads[i] {
			return fmt.Errorf("loads[%d] %g vs %g", i, a.Loads[i], b.Loads[i])
		}
	}
	for i := range a.Terms {
		if a.Terms[i] != b.Terms[i] {
			return fmt.Errorf("terms[%d] %+v vs %+v", i, a.Terms[i], b.Terms[i])
		}
	}
	return nil
}

// replayBoth drives an instance through both engines in lockstep and
// asserts identical decisions and, when sinks carry events, identical
// trace streams.
func replayBoth(t *testing.T, label string, naive, inc *Threshold, sinkN, sinkI *obs.MemorySink, inst job.Instance) {
	t.Helper()
	if div := online.Lockstep(naive, inc, inst); div != nil {
		t.Fatalf("%s: engines diverged at %v", label, div)
	}
	evN, evI := sinkN.Events(), sinkI.Events()
	if len(evN) != len(evI) {
		t.Fatalf("%s: %d naive events vs %d incremental", label, len(evN), len(evI))
	}
	for i := range evN {
		if err := sameEvent(&evN[i], &evI[i]); err != nil {
			t.Fatalf("%s: event %d: %v", label, i, err)
		}
	}
}

// epsValues returns the slack values the harness sweeps for machine count
// m: generic interior points plus every exact phase corner (where the
// phase selection itself sits on a knife edge — e.g. 2/7 for m = 2) and
// points one ulp to either side of the first corner.
func epsValues(m int) []float64 {
	eps := []float64{0.05, 0.1, 0.37, 0.9, 1.0}
	for _, c := range ratio.Corners(m) {
		eps = append(eps, c, math.Nextafter(c, 0), math.Nextafter(c, 1))
	}
	if m == 2 {
		eps = append(eps, 2.0/7.0) // the paper's exact m=2 corner
	}
	return eps
}

// TestEquivalenceRandomWorkloads replays every workload family through
// both engines across m ∈ {1,2,3,8,64} and a slack sweep including exact
// phase corners — ≥ 10k jobs in total, with full trace comparison — and
// one 4000-job poisson stream at m = 512 by decisions alone.
func TestEquivalenceRandomWorkloads(t *testing.T) {
	ms := []int{1, 2, 3, 8, 64}
	total := 0
	for _, m := range ms {
		for _, eps := range epsValues(m) {
			if m == 64 && eps != 0.1 && eps != 1.0 {
				continue // keep the m=64 trace volume manageable
			}
			for _, fam := range workload.Families {
				n := 120
				if m == 64 {
					n = 400
				}
				inst := fam.Gen(workload.Spec{N: n, Eps: eps, M: m, Seed: int64(m)*1000 + int64(n)})
				label := fmt.Sprintf("%s m=%d eps=%g", fam.Name, m, eps)
				naive, inc, sn, si := newEnginePair(t, m, eps, true)
				replayBoth(t, label, naive, inc, sn, si, inst)
				total += len(inst)
			}
		}
	}
	if total < 10000 {
		t.Fatalf("harness replayed only %d jobs, want ≥ 10000", total)
	}

	// BenchmarkSubmit's shape at m = 512 (poisson, ε = 0.1, load 1.5):
	// 4000 jobs take the threshold deep into rejection, so the large-m
	// rejection paths are compared too. Untraced, because every event
	// would carry 512 loads.
	const m = 512
	inst := workload.Poisson(workload.Spec{N: 4000, Eps: 0.1, M: m, Load: 1.5, Seed: 42})
	naive, inc, _, _ := newEnginePair(t, m, 0.1, false)
	rejected := 0
	for i, j := range inst {
		dn, di := naive.Submit(j), inc.Submit(j)
		if !online.SameDecision(dn, di) {
			t.Fatalf("poisson m=%d: engines diverged at job %d: %v vs %v", m, i, dn, di)
		}
		if !di.Accepted {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatalf("poisson m=%d: no job rejected, the rejection paths were not compared", m)
	}
}

// TestEquivalenceTieHeavy hammers the tie-breaks: batches of identical
// jobs released simultaneously (equal horizons on distinct machines),
// interleaved with long silences that drain every machine — the load-0
// order must fall back to machine-index order, which is exactly where a
// sorted-by-horizon structure can silently diverge from the seed.
func TestEquivalenceTieHeavy(t *testing.T) {
	for _, m := range []int{1, 2, 3, 8} {
		for _, eps := range []float64{0.1, 0.5, 1.0} {
			var inst job.Instance
			id := 0
			now := 0.0
			rng := rand.New(rand.NewSource(int64(m)))
			for wave := 0; wave < 40; wave++ {
				// A burst of identical tight jobs at the same instant.
				burst := 1 + rng.Intn(3*m)
				for b := 0; b < burst; b++ {
					inst = append(inst, job.Job{
						ID: id, Release: now, Proc: 1, Deadline: now + (1 + eps),
					})
					id++
				}
				switch wave % 3 {
				case 0:
					now += 0.25 // mid-execution: ties persist
				case 1:
					now += 1 + eps // exactly at the common horizon
				default:
					now += 100 // long silence: all machines drain
				}
			}
			label := fmt.Sprintf("tie-heavy m=%d eps=%g", m, eps)
			naive, inc, sn, si := newEnginePair(t, m, eps, true)
			replayBoth(t, label, naive, inc, sn, si, inst)
		}
	}
}

// TestEquivalenceAdversarial replays the Theorem-1 adversary's traces.
// The adversary is adaptive, so the game is played once against the
// incremental engine; the produced instance is then replayed through
// both engines in lockstep with trace comparison. (A divergence inside
// the game itself would surface as a different produced instance and
// thus as a replay divergence on the earlier decisions.)
func TestEquivalenceAdversarial(t *testing.T) {
	for _, m := range []int{1, 2, 3, 4} {
		for _, eps := range epsValues(m) {
			inst := adversaryInstance(t, m, eps)
			label := fmt.Sprintf("adversary m=%d eps=%g", m, eps)
			naive, inc, sn, si := newEnginePair(t, m, eps, true)
			replayBoth(t, label, naive, inc, sn, si, inst)
		}
	}
}

// adversaryInstance plays the Theorem-1 adversary game against a fresh
// incremental-engine Threshold and returns the produced instance.
func adversaryInstance(t *testing.T, m int, eps float64) job.Instance {
	t.Helper()
	th, err := New(m, eps)
	if err != nil {
		t.Fatalf("New(%d, %g): %v", m, eps, err)
	}
	out, err := adversary.Run(th, eps, adversary.Config{})
	if err != nil {
		t.Fatalf("adversary.Run(m=%d, eps=%g): %v", m, eps, err)
	}
	return out.Instance
}

// TestEquivalencePoliciesAndForcedPhase covers the ablation
// configurations: every allocation policy and a forced (mis-chosen)
// phase index, each against a workload with real contention.
func TestEquivalencePoliciesAndForcedPhase(t *testing.T) {
	for _, m := range []int{2, 3, 8} {
		inst := workload.Bimodal(workload.Spec{N: 300, Eps: 0.2, M: m, Seed: 7})
		for _, pol := range []AllocPolicy{BestFit, LeastLoaded, FirstFit} {
			label := fmt.Sprintf("policy=%v m=%d", pol, m)
			naive, inc, sn, si := newEnginePair(t, m, 0.2, true, WithPolicy(pol))
			replayBoth(t, label, naive, inc, sn, si, inst)
		}
		for k := 1; k <= m; k++ {
			label := fmt.Sprintf("forced-k=%d m=%d", k, m)
			naive, inc, sn, si := newEnginePair(t, m, 0.2, true, WithForcedPhase(k))
			replayBoth(t, label, naive, inc, sn, si, inst)
		}
	}
}

// TestEquivalenceSlackViolatingJobs feeds jobs that violate the slack
// condition — the only inputs that can reach the no-candidate branch —
// so both engines must agree on the ReasonNoCandidate path too.
func TestEquivalenceSlackViolatingJobs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, m := range []int{1, 2, 8} {
		var inst job.Instance
		now := 0.0
		for i := 0; i < 300; i++ {
			now += rng.Float64() * 0.3
			p := 0.1 + rng.Float64()*5
			// Deadline far tighter than slack 0.1 demands, often
			// infeasible against current load.
			d := now + p*(1+0.1*rng.Float64()*rng.Float64())
			inst = append(inst, job.Job{ID: i, Release: now, Proc: p, Deadline: d})
		}
		label := fmt.Sprintf("slack-violating m=%d", m)
		naive, inc, sn, si := newEnginePair(t, m, 0.1, true)
		replayBoth(t, label, naive, inc, sn, si, inst)
	}
}

// TestThresholdProbeMatchesIncremental is the property test of the
// satellite checklist: after an arbitrary Submit/Reset sequence, the
// exported Threshold() probe, Now(), and Loads() of the two engines
// agree exactly.
func TestThresholdProbeMatchesIncremental(t *testing.T) {
	for _, m := range []int{1, 2, 3, 8, 64} {
		rng := rand.New(rand.NewSource(int64(m) * 31))
		naive, inc, _, _ := newEnginePair(t, m, 0.3, false)
		now := 0.0
		id := 0
		for step := 0; step < 2000; step++ {
			switch {
			case rng.Float64() < 0.02:
				naive.Reset()
				inc.Reset()
				now = 0
			default:
				if rng.Float64() < 0.7 {
					now += rng.ExpFloat64() * 0.5
				}
				p := 0.05 + rng.Float64()*4
				j := job.Job{ID: id, Release: now, Proc: p,
					Deadline: now + (1+0.3+rng.Float64()*2)*p}
				id++
				dn, di := naive.Submit(j), inc.Submit(j)
				if !online.SameDecision(dn, di) {
					t.Fatalf("m=%d step %d: decisions diverged: %v vs %v", m, step, dn, di)
				}
			}
			if tn, ti := naive.Threshold(), inc.Threshold(); tn != ti {
				t.Fatalf("m=%d step %d: Threshold() %g vs %g", m, step, tn, ti)
			}
			if naive.Now() != inc.Now() {
				t.Fatalf("m=%d step %d: Now() %g vs %g", m, step, naive.Now(), inc.Now())
			}
			ln, li := naive.Loads(), inc.Loads()
			for i := range ln {
				if ln[i] != li[i] {
					t.Fatalf("m=%d step %d: Loads()[%d] %g vs %g", m, step, i, ln[i], li[i])
				}
			}
		}
	}
}

// TestIncrementalSubmitZeroAlloc pins the 0 allocs/op guarantee of the
// untraced hot path for the incremental engine at a machine count large
// enough to exercise the tournament descent and both order structures.
func TestIncrementalSubmitZeroAlloc(t *testing.T) {
	inst := workload.Poisson(workload.Spec{N: 2000, Eps: 0.1, M: 64, Seed: 4})
	th, err := New(64, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(3000, func() {
		if i == len(inst) {
			th.Reset()
			i = 0
		}
		th.Submit(inst[i])
		i++
	})
	if allocs != 0 {
		t.Fatalf("incremental untraced Submit allocates %.1f times per call, want 0", allocs)
	}
}
