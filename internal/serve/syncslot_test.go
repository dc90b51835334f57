package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/obs"
	"loadmax/internal/workload"
)

// withProcs runs the test under GOMAXPROCS=n and restores the previous
// setting when it ends. At n = 2 the WAL allows one goroutine inside a
// sync at a time.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// replayProcs is the GOMAXPROCS axis of the concurrent replay tests:
// one P, where goroutines interleave only at scheduling points, two,
// and the setting the test run started with when it is larger (make
// race-multicore forces 4).
func replayProcs() []int {
	procs := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		procs = append(procs, p)
	}
	return procs
}

// waitFor polls cond until it holds. The deadline only bounds a failing
// run; a passing one never depends on it.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSyncSlotBurstUnderTwoProcs sends a concurrent burst to a 4-shard
// durable service under GOMAXPROCS=2: the sync hook must never see two
// shards inside a WAL sync at once, and the served stream must still
// replay and restore exactly.
func TestSyncSlotBurstUnderTwoProcs(t *testing.T) {
	withProcs(t, 2)
	const n, shards, m, eps = 800, 4, 3, 0.3
	jobs := workload.Poisson(workload.Spec{N: n, Eps: eps, M: shards * m, Load: 2, Seed: 21})
	var inside, peak atomic.Int32
	hook := func() {
		k := inside.Add(1)
		for p := peak.Load(); k > p && !peak.CompareAndSwap(p, k); p = peak.Load() {
		}
		time.Sleep(20 * time.Microsecond) // widen the window another shard could enter
		inside.Add(-1)
	}
	dir := t.TempDir()
	reg := obs.NewRegistry()
	svc, err := New(shards, m, eps, WithDurability(dir), WithDecisionLog(), WithMetrics(reg), withSyncHook(hook))
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, svc, jobs, 8)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 1 {
		t.Fatalf("%d goroutines inside a WAL sync at once, want at most 1 under GOMAXPROCS=2", p)
	}
	groups := reg.Histogram("serve_wal_group_records", nil)
	if groups.Count() == 0 || groups.Sum() != n {
		t.Fatalf("%d commit groups hold %v records, want %d", groups.Count(), groups.Sum(), n)
	}
	if err := svc.VerifyReplay(); err != nil {
		t.Fatal(err)
	}
	rec, err := Restore(dir, WithDecisionLog())
	if err != nil {
		t.Fatal(err)
	}
	var restored int64
	for _, snap := range rec.Snapshot() {
		restored += snap.Submitted
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if restored != n || rec.AcceptedMass() != svc.AcceptedMass() {
		t.Fatalf("restored %d decisions and mass %v, served %d and %v", restored, rec.AcceptedMass(), n, svc.AcceptedMass())
	}
	if err := rec.VerifyReplay(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncSlotHeldCommitGroupsQueue holds shard 0's first commit inside
// the only sync slot (GOMAXPROCS=2). Shard 1's first commit waits for
// the slot, and k submissions queue on each shard meanwhile. Released,
// each shard's queued submissions land together in one group: four
// groups of 1, 1, k and k records.
func TestSyncSlotHeldCommitGroupsQueue(t *testing.T) {
	withProcs(t, 2)
	const shards, m, eps, k = 2, 3, 0.3, 10
	var byShard [shards][]job.Job
	for _, j := range workload.Poisson(workload.Spec{N: 100, Eps: eps, M: shards * m, Load: 2, Seed: 5}) {
		s := HashByID().Route(j, shards)
		byShard[s] = append(byShard[s], j)
	}
	if len(byShard[0]) <= k || len(byShard[1]) <= k {
		t.Fatalf("workload routes %d and %d jobs to the shards, want more than %d each", len(byShard[0]), len(byShard[1]), k)
	}
	var held atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	hook := func() {
		if held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}
	reg := obs.NewRegistry()
	svc, err := New(shards, m, eps, WithDurability(t.TempDir()), WithDecisionLog(), WithMetrics(reg), withSyncHook(hook))
	if err != nil {
		t.Fatal(err)
	}
	// On a failed wait the held slot must still be freed: it is
	// process-wide, and later tests would block on it.
	t.Cleanup(func() {
		free()
		svc.Close()
	})
	errs := make(chan error, 2*(k+1))
	submit := func(j job.Job) {
		go func() {
			_, err := svc.Submit(j)
			errs <- err
		}()
	}
	submit(byShard[0][0])
	select {
	case <-entered: // shard 0 holds the only sync slot
	case <-time.After(10 * time.Second):
		t.Fatal("shard 0 never reached its sync")
	}
	submit(byShard[1][0])
	waitFor(t, "shard 1 to log its first decision", func() bool { return svc.shards[1].walSeq.Load() == 1 })
	for i := 1; i <= k; i++ {
		submit(byShard[0][i])
		submit(byShard[1][i])
	}
	waitFor(t, "both shard queues to hold the burst", func() bool {
		return svc.shards[0].q.Len() == k && svc.shards[1].q.Len() == k
	})
	free()
	for i := 0; i < 2*(k+1); i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	groups := reg.Histogram("serve_wal_group_records", nil)
	if groups.Count() != 4 || groups.Sum() != 2*(k+1) {
		t.Fatalf("%d commit groups hold %v records, want 4 groups (1, 1, %d, %d)", groups.Count(), groups.Sum(), k, k)
	}
	if err := svc.VerifyReplay(); err != nil {
		t.Fatal(err)
	}
}
