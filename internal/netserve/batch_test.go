package netserve

import (
	"bufio"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/serve"
)

// driveBatches fans inst over clients concurrent batched streams
// (striped by index, so each stream stays release-ordered) and returns
// every decision observed over the wire, indexed by job ID.
func driveBatches(t *testing.T, addr string, inst job.Instance, clients, batchSize int) map[int]online.Decision {
	t.Helper()
	observed := make(map[int]online.Decision, len(inst))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				t.Errorf("client %d: %v", stream, err)
				return
			}
			defer cl.Close()
			var stripe []job.Job
			for i := stream; i < len(inst); i += clients {
				stripe = append(stripe, inst[i])
			}
			for off := 0; off < len(stripe); off += batchSize {
				chunk := stripe[off:min(off+batchSize, len(stripe))]
				res, err := cl.SubmitBatchTimeout(chunk, 30*time.Second)
				if err != nil {
					t.Errorf("stream %d: %v", stream, err)
					return
				}
				mu.Lock()
				for k, r := range res {
					if r.Err != nil {
						t.Errorf("stream %d job %d: %v", stream, chunk[k].ID, r.Err)
					} else {
						observed[chunk[k].ID] = r.Dec
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return observed
}

// checkObservedAgainstStreams requires every wire verdict to match the
// decision the service recorded, and the counts to balance exactly.
func checkObservedAgainstStreams(t *testing.T, svc *serve.Service, shards int, observed map[int]online.Decision, want int) {
	t.Helper()
	if len(observed) != want {
		t.Fatalf("observed %d verdicts, want %d", len(observed), want)
	}
	recorded := 0
	for s := 0; s < shards; s++ {
		for _, rec := range svc.ShardStream(s) {
			wantDec, ok := observed[rec.Job.ID]
			if !ok {
				t.Fatalf("shard %d decided job %d no client ever saw", s, rec.Job.ID)
			}
			if !online.SameDecision(wantDec, rec.Decision) {
				t.Fatalf("job %d: client saw %v, service recorded %v", rec.Job.ID, wantDec, rec.Decision)
			}
			recorded++
		}
	}
	if recorded != want {
		t.Fatalf("service recorded %d decisions, want %d", recorded, want)
	}
}

// TestNetBatchReplayEquivalence is the end-to-end correctness claim of
// the batched wire path: concurrent batched clients hammer a live
// daemon, and afterwards every shard's decision stream must be
// bit-identical to a sequential replay through a lone Threshold — the
// same proof TestNetReplayEquivalence gives for singles, now across the
// batch frames, the grouped shard handoff and the verdict-batch reply.
func TestNetBatchReplayEquivalence(t *testing.T) {
	const shards, m = 3, 16
	const eps = 0.25
	svc, err := serve.New(shards, m, eps, serve.WithDecisionLog())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	inst := genInstance(t, 4000, shards*m, eps, 7)
	observed := driveBatches(t, srv.Addr().String(), inst, 4, 47)

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.VerifyReplay(); err != nil {
		t.Fatalf("batched stream diverged from sequential replay: %v", err)
	}
	checkObservedAgainstStreams(t, svc, shards, observed, len(inst))
}

// TestNetBatchMatchesPerJob drives the same instance through two
// identically configured daemons — one job per frame, one batched — from
// a single sequential client each, and requires bit-identical decisions
// job for job. Batching on the wire must be invisible to the algorithm.
func TestNetBatchMatchesPerJob(t *testing.T) {
	const shards, m = 2, 8
	const eps = 0.3
	inst := genInstance(t, 1000, shards*m, eps, 17)

	run := func(batched bool) map[int]online.Decision {
		svc, err := serve.New(shards, m, eps, serve.WithDecisionLog())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Serve(svc, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cl, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[int]online.Decision, len(inst))
		if batched {
			for off := 0; off < len(inst); off += 64 {
				chunk := inst[off:min(off+64, len(inst))]
				res, err := cl.SubmitBatch(chunk)
				if err != nil {
					t.Fatal(err)
				}
				for k, r := range res {
					if r.Err != nil {
						t.Fatalf("job %d: %v", chunk[k].ID, r.Err)
					}
					out[chunk[k].ID] = r.Dec
				}
			}
		} else {
			for _, j := range inst {
				dec, err := cl.Submit(j)
				if err != nil {
					t.Fatal(err)
				}
				out[j.ID] = dec
			}
		}
		cl.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		if err := svc.VerifyReplay(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	single := run(false)
	batch := run(true)
	if len(single) != len(batch) {
		t.Fatalf("per-job decided %d, batched decided %d", len(single), len(batch))
	}
	for id, want := range single {
		if got, ok := batch[id]; !ok || !online.SameDecision(want, got) {
			t.Fatalf("job %d: per-job %v, batched %v", id, want, got)
		}
	}
}

// TestNetMixedBatchSingle pipelines singles and batches concurrently on
// ONE pooled connection — ids come from one counter, frames interleave
// on one stream — and the full decision log must still replay
// bit-identically while every verdict matches the recorded stream.
func TestNetMixedBatchSingle(t *testing.T) {
	const shards, m = 2, 8
	const eps = 0.25
	svc, err := serve.New(shards, m, eps, serve.WithDecisionLog())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr().String(), WithConns(1))
	if err != nil {
		t.Fatal(err)
	}

	inst := genInstance(t, 2400, shards*m, eps, 13)
	observed := make(map[int]online.Decision, len(inst))
	var mu sync.Mutex
	var wg sync.WaitGroup
	const streams = 6
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			var stripe []job.Job
			for i := stream; i < len(inst); i += streams {
				stripe = append(stripe, inst[i])
			}
			if stream%2 == 0 {
				// Even streams go one job per frame.
				for _, j := range stripe {
					dec, err := cl.SubmitTimeout(j, 30*time.Second)
					if err != nil {
						t.Errorf("stream %d job %d: %v", stream, j.ID, err)
						return
					}
					mu.Lock()
					observed[j.ID] = dec
					mu.Unlock()
				}
				return
			}
			// Odd streams go batched, with a deliberately odd chunk size.
			for off := 0; off < len(stripe); off += 17 {
				chunk := stripe[off:min(off+17, len(stripe))]
				res, err := cl.SubmitBatchTimeout(chunk, 30*time.Second)
				if err != nil {
					t.Errorf("stream %d: %v", stream, err)
					return
				}
				mu.Lock()
				for k, r := range res {
					if r.Err != nil {
						t.Errorf("stream %d job %d: %v", stream, chunk[k].ID, r.Err)
					} else {
						observed[chunk[k].ID] = r.Dec
					}
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	cl.Close()

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.VerifyReplay(); err != nil {
		t.Fatalf("mixed batch/single stream diverged: %v", err)
	}
	checkObservedAgainstStreams(t, svc, shards, observed, len(inst))
}

// TestNetBatchKillAndRestore is TestNetKillAndRestore on the batched
// path: batched traffic into a durable daemon, checkpoint mid-stream,
// kill after half the instance, restore, serve the rest batched — every
// verdict acknowledged in a verdict-batch before the kill must be
// honored bit-identically, and the cross-kill stream must pass
// VerifyReplay. A batch's group-commit fsync is exactly as durable as
// the per-job fsync it replaced.
func TestNetBatchKillAndRestore(t *testing.T) {
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

	inst := genInstance(t, 1200, shards*m, eps, 23)
	half := len(inst) / 2

	firstHalf := driveBatches(t, srv.Addr().String(), inst[:half/2], 2, 19)
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for id, dec := range driveBatches(t, srv.Addr().String(), inst[half/2:half], 2, 19) {
		firstHalf[id] = dec
	}

	// Kill the daemon: the post-checkpoint records survive only in the
	// WAL, exactly the state a crash leaves behind.
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
	secondHalf := driveBatches(t, srv2.Addr().String(), inst[half:], 2, 19)

	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.VerifyReplay(); err != nil {
		t.Fatalf("cross-kill batched stream diverged: %v", err)
	}

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
		t.Fatal("no pre-kill batched decision survived into the restored stream — test lost its teeth")
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

// TestNetBatchShedRawFrames proves batch shedding is all-or-nothing and
// deterministic: with the single dispatch slot held at the gate by a
// one-job frame, a raw five-job frame must come back as ONE verdict-batch
// with every entry shed — and the shed counter advances per job, not
// per frame.
func TestNetBatchShedRawFrames(t *testing.T) {
	svc := newTestService(t, 1, 8)
	defer svc.Close()
	gate := make(chan struct{})
	reg := obs.NewRegistry()
	srv, err := Serve(svc, "127.0.0.1:0",
		WithMaxInflight(1), WithWindow(8),
		WithServerMetrics(reg), withSubmitGate(func() { <-gate }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(appendHello(nil)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	payload, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeHelloAck(payload); err != nil {
		t.Fatal(err)
	}

	// A one-job frame takes the only dispatch slot and parks at the
	// gate; the batch behind it must be refused whole.
	buf := appendSubmitBatch(nil, submitBatchFrame{ID: 1, Jobs: []job.Job{testJob(1)}})
	batch := submitBatchFrame{ID: 2, Jobs: []job.Job{testJob(2), testJob(3), testJob(4), testJob(5), testJob(6)}}
	buf = appendSubmitBatch(buf, batch)
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}

	payload, err = readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := decodeVerdictBatch(payload)
	if err != nil {
		t.Fatalf("first reply is not a verdict batch: %v", err)
	}
	if vb.ID != batch.ID || len(vb.Verdicts) != len(batch.Jobs) {
		t.Fatalf("verdict batch %+v, want %d sheds for batch %d", vb, len(batch.Jobs), batch.ID)
	}
	for i, v := range vb.Verdicts {
		if v.Status != statusShed {
			t.Fatalf("verdict %d has status %d, want shed", i, v.Status)
		}
	}
	if got := reg.Counter("netserve_shed_total").Value(); got != int64(len(batch.Jobs)) {
		t.Fatalf("netserve_shed_total = %d, want %d (per job, not per frame)", got, len(batch.Jobs))
	}

	close(gate)
	id, v := readVerdict(t, br)
	if id != 1 || v.Status == statusShed {
		t.Fatalf("gated one-job frame %d got %+v, want a real verdict for id 1", id, v)
	}
}
