package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/obs"
	"loadmax/internal/workload"
)

// submitAll fans inst across g goroutines (striped by index so each
// goroutine's subsequence stays release-ordered) and waits for every
// decision. It returns the number of accepted jobs.
func submitAll(t *testing.T, svc *Service, inst job.Instance, g int) int {
	t.Helper()
	var wg sync.WaitGroup
	accepted := make([]int, g)
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(inst); i += g {
				dec, err := svc.Submit(inst[i])
				if err != nil {
					t.Errorf("submitter %d: %v", w, err)
					return
				}
				if dec.JobID != inst[i].ID {
					t.Errorf("submitter %d: decision for job %d, want %d", w, dec.JobID, inst[i].ID)
					return
				}
				if dec.Accepted {
					accepted[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, a := range accepted {
		total += a
	}
	return total
}

// TestConcurrentSubmitReplayEquivalence is the core correctness claim:
// many goroutines hammering Submit produce, per shard, exactly the
// decision stream a lone sequential Threshold produces on that shard's
// jobs — under every router and at each GOMAXPROCS of replayProcs. Run
// under -race this also exercises the queue/snapshot/close
// synchronization.
func TestConcurrentSubmitReplayEquivalence(t *testing.T) {
	for _, mkPolicy := range []func() Policy{HashByID, LengthClass, RoundRobin} {
		t.Run(mkPolicy().Name(), func(t *testing.T) {
			for _, procs := range replayProcs() {
				t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
					withProcs(t, procs)
					inst := workload.Poisson(workload.Spec{N: 4000, Eps: 0.1, M: 4, Load: 2, Seed: 7})
					svc, err := New(4, 4, 0.1,
						WithPolicy(mkPolicy()), WithDecisionLog(), WithQueueDepth(64), WithBatchSize(8))
					if err != nil {
						t.Fatal(err)
					}
					accepted := submitAll(t, svc, inst, 8)
					if err := svc.Close(); err != nil {
						t.Fatal(err)
					}
					if err := svc.VerifyReplay(); err != nil {
						t.Fatal(err)
					}
					var submitted, snapAccepted int64
					for _, snap := range svc.Snapshot() {
						submitted += snap.Submitted
						snapAccepted += snap.Accepted
					}
					if submitted != int64(len(inst)) {
						t.Fatalf("shards saw %d submissions, want %d", submitted, len(inst))
					}
					if snapAccepted != int64(accepted) {
						t.Fatalf("snapshot accepted %d, callers saw %d", snapAccepted, accepted)
					}
				})
			}
		})
	}
}

// TestPerShardMassMatchesReplay is the property test: for random
// workloads and every routing policy, the concurrent run's per-shard
// accepted mass equals the mass of a sequential replay of that shard's
// stream — exactly, not within tolerance.
func TestPerShardMassMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		policy := []Policy{HashByID(), LengthClass(), RoundRobin()}[trial%3]
		fam := workload.Families[rng.Intn(len(workload.Families))]
		shards := 1 + rng.Intn(5)
		inst := fam.Gen(workload.Spec{N: 800, Eps: 0.2, M: 2, Load: 1.5, Seed: rng.Int63()})
		svc, err := New(shards, 2, 0.2, WithPolicy(policy), WithDecisionLog(),
			WithQueueDepth(1+rng.Intn(32)), WithBatchSize(1+rng.Intn(16)))
		if err != nil {
			t.Fatal(err)
		}
		submitAll(t, svc, inst, 4)
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		// VerifyReplay checks decisions AND the per-shard mass snapshot.
		if err := svc.VerifyReplay(); err != nil {
			t.Fatalf("trial %d (%s, %d shards, %s): %v", trial, fam.Name, shards, policy.Name(), err)
		}
		// Cross-check the mass independently from the recorded streams.
		for i, snap := range svc.Snapshot() {
			var mass float64
			for _, rec := range svc.ShardStream(i) {
				if rec.Decision.Accepted {
					mass += rec.Job.Proc
				}
			}
			if mass != snap.AcceptedMass {
				t.Fatalf("trial %d shard %d: stream mass %g != snapshot %g", trial, i, mass, snap.AcceptedMass)
			}
		}
	}
}

// TestCloseWhileSubmitting races Close against a swarm of submitters:
// every Submit must resolve — either with a decision (enqueued before
// close) or with ErrClosed — and nothing may deadlock or panic.
func TestCloseWhileSubmitting(t *testing.T) {
	inst := workload.Poisson(workload.Spec{N: 5000, Eps: 0.1, M: 2, Load: 2, Seed: 3})
	svc, err := New(3, 2, 0.1, WithQueueDepth(16), WithBatchSize(4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var decided, refused atomic64
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(inst); i += 6 {
				_, err := svc.Submit(inst[i])
				switch {
				case err == nil:
					decided.add(1)
				case errors.Is(err, ErrClosed):
					refused.add(1)
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(w)
	}
	time.Sleep(2 * time.Millisecond) // let submissions start flowing
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// Close is idempotent: the `defer svc.Close()` after an explicit
	// Close must be a nil no-op.
	if err := svc.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if _, err := svc.Submit(inst[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	var submitted int64
	for _, snap := range svc.Snapshot() {
		submitted += snap.Submitted
	}
	if submitted != decided.load() {
		t.Fatalf("shards processed %d, callers got %d decisions", submitted, decided.load())
	}
	if decided.load()+refused.load() != int64(len(inst)) {
		t.Fatalf("decided %d + refused %d != %d submissions", decided.load(), refused.load(), len(inst))
	}
}

// TestSnapshotDuringWrites reads snapshots continuously while the
// shards are deciding; under -race this proves the read side never
// synchronizes with (or corrupts) the writers.
func TestSnapshotDuringWrites(t *testing.T) {
	inst := workload.Poisson(workload.Spec{N: 3000, Eps: 0.1, M: 4, Load: 2, Seed: 11})
	svc, err := New(2, 4, 0.1, WithDecisionLog(), WithQueueDepth(32), WithBatchSize(8))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, snap := range svc.Snapshot() {
				if snap.Accepted+snap.Rejected > snap.Submitted {
					t.Errorf("shard %d: accepted %d + rejected %d > submitted %d",
						snap.Shard, snap.Accepted, snap.Rejected, snap.Submitted)
					return
				}
			}
			_ = svc.AcceptedMass()
			_ = svc.ShardStream(0)
		}
	}()
	submitAll(t, svc, inst, 4)
	close(stop)
	snapWG.Wait()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.VerifyReplay(); err != nil {
		t.Fatal(err)
	}
}

// TestBackpressureReject stalls a shard deterministically via the batch
// hook, fills its queue, and proves the Reject policy refuses the
// overflow submission with ErrBackpressure while counting the event.
func TestBackpressureReject(t *testing.T) {
	const depth = 4
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	reg := obs.NewRegistry()
	svc, err := New(1, 2, 0.1,
		WithQueueDepth(depth), WithBatchSize(1), WithBackpressure(Reject), WithMetrics(reg),
		withBatchHook(func() {
			once.Do(func() {
				entered <- struct{}{}
				<-release
			})
		}))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id int) job.Job {
		return job.Job{ID: id, Release: 0, Proc: 1, Deadline: 100}
	}
	var wg sync.WaitGroup
	inFlight := func(id int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Submit(mk(id)); err != nil {
				t.Errorf("job %d: %v", id, err)
			}
		}()
	}
	inFlight(0) // taken into the stalled batch
	<-entered   // shard is now blocked inside process()
	for i := 1; i <= depth; i++ {
		inFlight(i) // fills the queue
	}
	// Wait until the queue is actually full (enqueue is asynchronous
	// with respect to Submit's goroutine start).
	deadline := time.After(5 * time.Second)
	for svc.shards[0].q.Len() < depth {
		select {
		case <-deadline:
			t.Fatalf("queue never filled: depth %d", svc.shards[0].q.Len())
		case <-time.After(time.Millisecond):
		}
	}
	if _, err := svc.Submit(mk(depth + 1)); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("overflow Submit = %v, want ErrBackpressure", err)
	}
	close(release)
	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("serve_backpressure_total").Value(); got != 1 {
		t.Fatalf("serve_backpressure_total = %d, want 1", got)
	}
	if got := reg.Counter("serve_shard_jobs_total").Value(); got != 0 {
		// The per-shard counters live in the labeled family, not here.
		t.Fatalf("unlabeled serve_shard_jobs_total = %d, want 0", got)
	}
	if got := reg.CounterVec("serve_shard_jobs_total", "shard").With("0").Value(); got != int64(depth+1) {
		t.Fatalf("shard 0 processed %d jobs, want %d", got, depth+1)
	}
}

// TestReleaseClampKeepsShardOrdered submits deliberately interleaved
// release dates from racing goroutines: the arrival clamp must keep
// every shard's effective stream release-ordered (a violation would
// panic inside core.Submit).
func TestReleaseClampKeepsShardOrdered(t *testing.T) {
	svc, err := New(2, 2, 0.5, WithDecisionLog(), WithBatchSize(4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r := float64(i) // same ramp from every goroutine → constant interleaving
				j := job.Job{ID: w*1000 + i, Release: r, Proc: 1, Deadline: r + 10}
				if _, err := svc.Submit(j); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < svc.Shards(); i++ {
		recs := svc.ShardStream(i)
		for idx := 1; idx < len(recs); idx++ {
			if recs[idx].Job.Release < recs[idx-1].Job.Release {
				t.Fatalf("shard %d stream out of order at %d: %g after %g",
					i, idx, recs[idx].Job.Release, recs[idx-1].Job.Release)
			}
		}
	}
	if err := svc.VerifyReplay(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyReplayNeedsLog pins the error path.
func TestVerifyReplayNeedsLog(t *testing.T) {
	svc, err := New(1, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.VerifyReplay(); err == nil {
		t.Fatal("VerifyReplay without WithDecisionLog should fail")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(0, 1, 0.1); err == nil {
		t.Fatal("shards=0 should fail")
	}
	if _, err := New(1, 0, 0.1); err == nil {
		t.Fatal("m=0 should fail")
	}
	if _, err := New(1, 1, -1); err == nil {
		t.Fatal("eps=-1 should fail")
	}
}

// atomic64 is a tiny test-local counter (keeps the imports lean).
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(n int64) { a.mu.Lock(); a.v += n; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
