package netserve

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/online"
	"loadmax/internal/serve"
	"loadmax/internal/workload"
)

func genInstance(t *testing.T, n, m int, eps float64, seed int64) job.Instance {
	t.Helper()
	fam, ok := workload.ByName("poisson")
	if !ok {
		t.Fatal("poisson family missing")
	}
	return fam.Gen(workload.Spec{N: n, Eps: eps, M: m, Load: 2.0, Seed: seed})
}

// driveClients fans inst over clients×pipeline concurrent streams
// (striped by index, so each stream stays release-ordered) and returns
// every decision observed over the wire, indexed by job ID.
func driveClients(t *testing.T, addr string, inst job.Instance, clients, pipeline int) map[int]online.Decision {
	t.Helper()
	observed := make(map[int]online.Decision, len(inst))
	var mu sync.Mutex
	var wg sync.WaitGroup
	streams := clients * pipeline
	for c := 0; c < clients; c++ {
		cl, err := Dial(addr, WithConns(2))
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
		defer cl.Close()
		for p := 0; p < pipeline; p++ {
			wg.Add(1)
			go func(cl *Client, stream int) {
				defer wg.Done()
				for i := stream; i < len(inst); i += streams {
					dec, err := cl.SubmitTimeout(inst[i], 30*time.Second)
					if err != nil {
						t.Errorf("stream %d job %d: %v", stream, inst[i].ID, err)
						return
					}
					if dec.JobID != inst[i].ID {
						t.Errorf("stream %d: verdict for job %d, want %d", stream, dec.JobID, inst[i].ID)
						return
					}
					mu.Lock()
					observed[inst[i].ID] = dec
					mu.Unlock()
				}
			}(cl, c*pipeline+p)
		}
	}
	wg.Wait()
	return observed
}

// withProcs runs the test under GOMAXPROCS=n and restores the previous
// setting when it ends.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// replayProcs is the GOMAXPROCS axis of the networked replay tests: one
// P, where goroutines interleave only at scheduling points, two, and
// the setting the test run started with when it is larger (make
// race-multicore forces 4).
func replayProcs() []int {
	procs := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		procs = append(procs, p)
	}
	return procs
}

// TestNetReplayEquivalence is the end-to-end correctness claim of the
// network layer: N concurrent pipelining clients hammer a live daemon
// over TCP, and afterwards every shard's decision stream must be
// bit-identical to a sequential replay through a lone Threshold
// (VerifyReplay) — the same proof the in-process serving layer gives,
// now across the wire protocol, the connection goroutines and the
// write-coalescing path, at each GOMAXPROCS of replayProcs. Run under
// -race this also exercises every cross-goroutine handoff in server and
// client.
func TestNetReplayEquivalence(t *testing.T) {
	const shards, m = 3, 16
	const eps = 0.25
	for _, procs := range replayProcs() {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			svc, err := serve.New(shards, m, eps, serve.WithDecisionLog())
			if err != nil {
				t.Fatal(err)
			}
			srv, err := Serve(svc, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}

			inst := genInstance(t, 4000, shards*m, eps, 7)
			observed := driveClients(t, srv.Addr().String(), inst, 3, 4)

			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			if err := svc.VerifyReplay(); err != nil {
				t.Fatalf("networked stream diverged from sequential replay: %v", err)
			}
			// Every verdict a client observed matches the decision the
			// service recorded — the wire added or altered nothing.
			checkObservedAgainstStreams(t, svc, shards, observed, len(inst))
		})
	}
}

// TestNetKillAndRestore runs a durable daemon, checkpoints mid-stream,
// kills it after half the instance, restores from the directory and
// serves the rest — then proves (a) every verdict acknowledged over the
// wire before the kill is honored bit-identically by the restored
// service, and (b) the full cross-kill decision stream passes
// VerifyReplay from the recovery checkpoint.
func TestNetKillAndRestore(t *testing.T) {
	const shards, m = 2, 8
	const eps = 0.3
	dir := filepath.Join(t.TempDir(), "durable")
	svc, err := serve.New(shards, m, eps,
		serve.WithDurability(dir), serve.WithDecisionLog())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	inst := genInstance(t, 1200, shards*m, eps, 11)
	half := len(inst) / 2

	firstHalf := driveClients(t, srv.Addr().String(), inst[:half/2], 2, 2)
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for id, dec := range driveClients(t, srv.Addr().String(), inst[half/2:half], 2, 2) {
		firstHalf[id] = dec
	}

	// Kill the daemon. Close drains but does NOT checkpoint, so the
	// records since the mid-stream checkpoint survive only in the WAL —
	// exactly the state a crash leaves behind.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := serve.Restore(dir, serve.WithDecisionLog())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	srv2, err := Serve(rec, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	secondHalf := driveClients(t, srv2.Addr().String(), inst[half:], 2, 2)

	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.VerifyReplay(); err != nil {
		t.Fatalf("cross-kill stream diverged from sequential replay: %v", err)
	}

	// Acknowledged-before-kill verdicts must be honored by the restored
	// service: every post-checkpoint first-half decision reappears in
	// the restored shard streams, placement and start time identical.
	streams := make(map[int]online.Decision)
	for s := 0; s < shards; s++ {
		for _, r := range rec.ShardStream(s) {
			streams[r.Job.ID] = r.Decision
		}
	}
	honored := 0
	for id, want := range firstHalf {
		got, ok := streams[id]
		if !ok {
			continue // decided before the checkpoint: folded into the snapshot
		}
		if !online.SameDecision(want, got) {
			t.Fatalf("job %d: acknowledged %v before the kill, restored service holds %v", id, want, got)
		}
		honored++
	}
	if honored == 0 {
		t.Fatal("no pre-kill decision survived into the restored stream — test lost its teeth")
	}
	for id, want := range secondHalf {
		got, ok := streams[id]
		if !ok {
			t.Fatalf("post-restore job %d missing from the restored stream", id)
		}
		if !online.SameDecision(want, got) {
			t.Fatalf("post-restore job %d: client saw %v, service recorded %v", id, want, got)
		}
	}

	var submitted int64
	for _, s := range rec.Snapshot() {
		submitted += s.Submitted
	}
	if submitted != int64(len(inst)) {
		t.Fatalf("restored service decided %d jobs end-to-end, want %d", submitted, len(inst))
	}
}
