package netserve

import (
	"testing"

	"loadmax/internal/job"
)

// TestPooledFrameEncodeZeroAllocs is the hot-path guard for the pooled
// frame scratch: encoding a one-job verdict or submit, or a whole batch,
// into a pooled buffer must not allocate once the pool is warm. These
// paths run once per request (server reply, client send), so a single
// alloc here is a per-request alloc under load.
func TestPooledFrameEncodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops items under -race; alloc counts are not meaningful")
	}
	// Warm the pools so the measured runs only ever recycle.
	getFrameBuf().release()
	putVerdicts(getVerdicts())

	if n := testing.AllocsPerRun(1000, func() {
		vs := getVerdicts()[:1]
		vs[0] = batchVerdict{Status: statusAccept, Machine: 3, Start: 1.5}
		fb := getFrameBuf()
		fb.b = appendVerdictBatch(fb.b, verdictBatchFrame{ID: 7, Verdicts: vs})
		putVerdicts(vs)
		fb.release()
	}); n != 0 {
		t.Fatalf("pooled one-job verdict encode allocates %.1f allocs/op, want 0", n)
	}

	if n := testing.AllocsPerRun(1000, func() {
		one := [1]job.Job{{ID: 1, Release: 0, Proc: 2, Deadline: 10}}
		fb := getFrameBuf()
		fb.b = appendSubmitBatch(fb.b, submitBatchFrame{ID: 9, Jobs: one[:]})
		fb.release()
	}); n != 0 {
		t.Fatalf("pooled one-job submit encode allocates %.1f allocs/op, want 0", n)
	}

	jobs := make([]job.Job, 64)
	for i := range jobs {
		jobs[i] = job.Job{ID: i, Proc: 1, Deadline: 100}
	}
	if n := testing.AllocsPerRun(200, func() {
		fb := getFrameBuf()
		fb.b = appendSubmitBatch(fb.b, submitBatchFrame{ID: 1, Jobs: jobs})
		fb.release()
	}); n != 0 {
		t.Fatalf("pooled submit-batch encode allocates %.1f allocs/op, want 0", n)
	}

	verdicts := make([]batchVerdict, 64)
	for i := range verdicts {
		verdicts[i] = batchVerdict{Status: statusAccept, Machine: int64(i), Start: float64(i)}
	}
	if n := testing.AllocsPerRun(200, func() {
		fb := getFrameBuf()
		fb.b = appendVerdictBatch(fb.b, verdictBatchFrame{ID: 1, Verdicts: verdicts})
		fb.release()
	}); n != 0 {
		t.Fatalf("pooled verdict-batch encode allocates %.1f allocs/op, want 0", n)
	}
}

// TestPooledVerdictDecodeZeroAllocs guards the client's read-loop batch
// decode: with a pooled scratch slice and no error messages (the happy
// path — Msg is only set for statusError), decode must not allocate.
func TestPooledVerdictDecodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops items under -race; alloc counts are not meaningful")
	}
	verdicts := make([]batchVerdict, 64)
	for i := range verdicts {
		verdicts[i] = batchVerdict{Status: statusReject}
	}
	frame := appendVerdictBatch(nil, verdictBatchFrame{ID: 5, Verdicts: verdicts})
	payload := frame[wireHeaderLen:]
	putVerdicts(getVerdicts()) // warm the pool

	if n := testing.AllocsPerRun(500, func() {
		vb, err := decodeVerdictBatchInto(payload, getVerdicts())
		if err != nil {
			t.Fatal(err)
		}
		putVerdicts(vb.Verdicts)
	}); n != 0 {
		t.Fatalf("pooled verdict-batch decode allocates %.1f allocs/op, want 0", n)
	}
}

// TestDecodeVerdictBatchIntoReuse pins the scratch-reuse contract: with
// capacity, the returned verdicts alias the scratch; without, a fresh
// slice is allocated and the result is still correct.
func TestDecodeVerdictBatchIntoReuse(t *testing.T) {
	in := verdictBatchFrame{ID: 3, Verdicts: []batchVerdict{
		{Status: statusAccept, Machine: 1, Start: 2.5},
		{Status: statusError, Msg: "boom"},
	}}
	frame := appendVerdictBatch(nil, in)
	payload := frame[wireHeaderLen:]

	scratch := make([]batchVerdict, 0, 8)
	vb, err := decodeVerdictBatchInto(payload, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &vb.Verdicts[0] != &scratch[:1][0] {
		t.Fatal("decode with sufficient scratch should reuse it")
	}
	if vb.ID != 3 || len(vb.Verdicts) != 2 || vb.Verdicts[1].Msg != "boom" {
		t.Fatalf("scratch decode corrupted frame: %+v", vb)
	}

	vb2, err := decodeVerdictBatchInto(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vb2.ID != vb.ID || len(vb2.Verdicts) != len(vb.Verdicts) || vb2.Verdicts[0] != vb.Verdicts[0] {
		t.Fatal("nil-scratch decode should match scratch decode")
	}
}

// TestSubmitRoundTripStaysLean guards the one-job wire round trip: a
// warm Client.Submit over loopback to a non-durable serve.Service may
// allocate at most 10 times per call, counting both ends — what the
// retired one-job SUBMIT/VERDICT frames cost. A job is a batch of one,
// and this keeps the batch of one as lean as the frame it replaced.
func TestSubmitRoundTripStaysLean(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops items under -race; alloc counts are not meaningful")
	}
	svc := newTestService(t, 4, 8)
	defer svc.Close()
	srv, err := Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	j := job.Job{ID: 1, Proc: 0.001, Deadline: 1e12}
	for i := 0; i < 200; i++ { // warm every pool on both ends
		if _, err := cl.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := cl.Submit(j); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("one-job round trip allocates %.2f times per call across both ends, want ≤ 10", allocs)
	}
}

// BenchmarkVerdictEncodePooled measures the server's one-job reply
// encode with the pooled scratch (the production path).
func BenchmarkVerdictEncodePooled(b *testing.B) {
	v := verdictBatchFrame{ID: 42, Verdicts: []batchVerdict{{Status: statusAccept, Machine: 7, Start: 123.456}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fb := getFrameBuf()
		fb.b = appendVerdictBatch(fb.b, v)
		fb.release()
	}
}

// BenchmarkVerdictEncodeFresh is the pre-pool baseline: a fresh
// destination slice per frame.
func BenchmarkVerdictEncodeFresh(b *testing.B) {
	v := verdictBatchFrame{ID: 42, Verdicts: []batchVerdict{{Status: statusAccept, Machine: 7, Start: 123.456}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = appendVerdictBatch(nil, v)
	}
}
