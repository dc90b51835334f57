package gateway

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/netserve"
	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/policy"
	"loadmax/internal/serve"
	"loadmax/internal/workload"
)

// testBackend is one in-process daemon: a serve.Service with a decision
// log (so its per-shard streams are inspectable after the fact) behind a
// real netserve listener. srv.Abort() is the in-process kill -9: the
// wire goes down hard while the service's recorded streams — what a
// post-mortem would recover from the WAL — stay readable.
type testBackend struct {
	svc *serve.Service
	srv *netserve.Server
}

func (b *testBackend) addr() string { return b.srv.Addr().String() }

func startBackend(t *testing.T, shards, m int, eps float64, spec string) *testBackend {
	t.Helper()
	b, err := policy.Parse(spec)
	if err != nil {
		t.Fatalf("parse policy %q: %v", spec, err)
	}
	svc, err := serve.New(shards, m, eps,
		serve.WithAdmissionPolicy(b), serve.WithDecisionLog())
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	srv, err := netserve.Serve(svc, "127.0.0.1:0")
	if err != nil {
		svc.Close()
		t.Fatalf("netserve.Serve: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return &testBackend{svc: svc, srv: srv}
}

// sameStreams asserts two backends recorded bit-identical per-shard
// decision streams.
func sameStreams(t *testing.T, label string, a, b [][]serve.DecisionRecord) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: shard count %d vs %d", label, len(a), len(b))
	}
	for s := range a {
		if len(a[s]) != len(b[s]) {
			t.Fatalf("%s: shard %d: %d vs %d records", label, s, len(a[s]), len(b[s]))
		}
		for i := range a[s] {
			if a[s][i].Job != b[s][i].Job || !online.SameDecision(a[s][i].Decision, b[s][i].Decision) {
				t.Fatalf("%s: shard %d record %d differs: (%+v → %+v) vs (%+v → %+v)",
					label, s, i, a[s][i].Job, a[s][i].Decision, b[s][i].Job, b[s][i].Decision)
			}
		}
	}
}

// TestGatewayFailover is the acceptance test for the cluster tier: two
// groups, each a primary with a warm standby, traffic from concurrent
// submitters, and a kill -9 (Server.Abort) of group 0's primary
// mid-burst. It asserts the gateway promotes the standby, no
// acknowledged verdict is lost or altered, and the merged cluster
// decision stream passes policy-generic replay bit-identically
// (VerifyMergedReplay). Run under -race by gateway-smoke.
func TestGatewayFailover(t *testing.T) {
	const (
		spec          = "delta-commit:delta=0.5"
		backendShards = 2
		m             = 2
		eps           = 0.5
		nJobs         = 3000
		submitters    = 4
	)
	p0 := startBackend(t, backendShards, m, eps, spec)
	s0 := startBackend(t, backendShards, m, eps, spec)
	p1 := startBackend(t, backendShards, m, eps, spec)
	s1 := startBackend(t, backendShards, m, eps, spec)

	reg := obs.NewRegistry()
	gw, err := New(
		[]BackendSpec{
			{Primary: p0.addr(), Standby: s0.addr()},
			{Primary: p1.addr(), Standby: s1.addr()},
		},
		WithJournal(),
		WithMetrics(reg),
		WithProbeInterval(50*time.Millisecond),
		WithFailThreshold(2),
		WithCallTimeout(10*time.Second),
	)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	closed := false
	defer func() {
		if !closed {
			gw.Close()
		}
	}()

	inst := workload.Poisson(workload.Spec{N: nJobs, Eps: eps, M: m, Load: 2, Seed: 11})

	// The assassin: wait for the burst to be well underway, then kill
	// group 0's primary at the wire. In-flight batches die unacked.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for gw.DecidedJobs() < nJobs/3 {
			time.Sleep(200 * time.Microsecond)
		}
		p0.srv.Abort()
	}()

	var wg sync.WaitGroup
	var accepted atomic.Int64
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(inst); i += submitters {
				for {
					dec, err := gw.Submit(inst[i])
					if errors.Is(err, serve.ErrBackpressure) {
						time.Sleep(100 * time.Microsecond)
						continue
					}
					if err != nil {
						t.Errorf("submitter %d job %d: %v", w, inst[i].ID, err)
						return
					}
					if dec.JobID != inst[i].ID {
						t.Errorf("submitter %d: verdict for job %d, want %d", w, dec.JobID, inst[i].ID)
						return
					}
					if dec.Accepted {
						accepted.Add(1)
					}
					break
				}
			}
		}(w)
	}
	wg.Wait()
	<-killed
	if t.Failed() {
		t.FailNow()
	}

	// The kill may have landed between batches; if no submission tripped
	// over the dead primary yet, keep poking group 0 until the failover
	// happens (probe threshold or submit path — either is fine).
	deadline := time.Now().Add(10 * time.Second)
	for gw.groups[0].failoverCount.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no failover observed after killing group 0's primary")
		}
		j := inst[len(inst)-1]
		j.ID += 1_000_000 // fresh IDs, fixed route-relevant fields
		gw.Submit(j)      //nolint:errcheck // only poking the sequencer
		time.Sleep(5 * time.Millisecond)
	}

	// Close flushes group 1's mirror so its standby ends bit-identical.
	if err := gw.Close(); err != nil {
		t.Fatalf("gateway.Close: %v", err)
	}
	closed = true

	st := gw.Status()
	if st.Groups[0].State != StateDegraded {
		t.Fatalf("group 0 state = %s, want %s", st.Groups[0].State, StateDegraded)
	}
	if st.Groups[0].Failovers != 1 {
		t.Fatalf("group 0 failovers = %d, want 1", st.Groups[0].Failovers)
	}
	if got := reg.Counter("gateway_failovers_total").Value(); got != 1 {
		t.Fatalf("gateway_failovers_total = %d, want 1", got)
	}
	if st.Groups[0].Diverged {
		t.Fatal("group 0 reported mirror divergence")
	}
	foundDead := false
	for _, b := range st.Groups[0].Backends {
		if b.Role == RoleDead {
			foundDead = true
		}
	}
	if !foundDead {
		t.Fatalf("no backend marked dead in group 0 status: %+v", st.Groups[0].Backends)
	}

	// Every backend that survived must self-replay (serve's own check).
	for i, b := range []*testBackend{p0, s0, p1, s1} {
		if err := b.svc.VerifyReplay(); err != nil {
			t.Fatalf("backend %d VerifyReplay: %v", i, err)
		}
	}

	// The failover proof: the dead primary's streams are an acked prefix
	// plus an unacked contiguous tail; the promoted standby's streams
	// extend that prefix, replay bit-identically under a fresh policy,
	// and contain every acknowledged verdict unchanged.
	builder, err := policy.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMergedReplay(builder, m, eps, gw.Journal(0), Streams(p0.svc), Streams(s0.svc)); err != nil {
		t.Fatalf("group 0 merged replay: %v", err)
	}

	// Group 1 never failed over: its flushed standby must mirror the
	// primary exactly, and its journal must also verify (trivial merge:
	// the "dead" and "promoted" sides are the same healthy pair).
	sameStreams(t, "group 1 mirror", Streams(p1.svc), Streams(s1.svc))
	if err := VerifyMergedReplay(builder, m, eps, gw.Journal(1), Streams(p1.svc), Streams(s1.svc)); err != nil {
		t.Fatalf("group 1 merged replay: %v", err)
	}

	if accepted.Load() == 0 {
		t.Fatal("no job was accepted — degenerate workload")
	}
}

// TestRoutingDeterminism is the routing-determinism table: the same job
// stream submitted through the gateway and submitted directly to the
// per-group backends (routing by hand with a fresh router instance under
// the gateway's group rule) must produce identical per-backend decision
// logs — for every router × admission policy combination. The gateway
// adds a network hop and a sequencer, never a decision.
func TestRoutingDeterminism(t *testing.T) {
	routers := []func() serve.Policy{serve.HashByID, serve.LengthClass, serve.RoundRobin}
	policies := []string{"threshold", "greedy", "delta-commit:delta=0.5"}
	const (
		groups        = 2
		backendShards = 2
		m             = 2
		eps           = 0.5
		nJobs         = 400
	)
	for ri, mkRouter := range routers {
		for pi, spec := range policies {
			name := fmt.Sprintf("%s/%s", mkRouter().Name(), spec)
			seed := int64(100 + 10*ri + pi)
			t.Run(name, func(t *testing.T) {
				viaGW := make([]*testBackend, groups)
				direct := make([]*testBackend, groups)
				specs := make([]BackendSpec, groups)
				for g := 0; g < groups; g++ {
					viaGW[g] = startBackend(t, backendShards, m, eps, spec)
					direct[g] = startBackend(t, backendShards, m, eps, spec)
					specs[g] = BackendSpec{Primary: viaGW[g].addr()}
				}
				gw, err := New(specs, WithRouter(mkRouter()), WithProbeInterval(0))
				if err != nil {
					t.Fatalf("gateway.New: %v", err)
				}
				defer gw.Close()

				inst := workload.Poisson(workload.Spec{N: nJobs, Eps: eps, M: m, Load: 2, Seed: seed})
				shadow := mkRouter() // fresh instance: routers may be stateful
				for _, j := range inst {
					if _, err := gw.Submit(j); err != nil {
						t.Fatalf("gateway submit job %d: %v", j.ID, err)
					}
					gi := groupOf(shadow, j, groups, backendShards)
					if _, err := direct[gi].svc.Submit(j); err != nil {
						t.Fatalf("direct submit job %d: %v", j.ID, err)
					}
				}
				if err := gw.Close(); err != nil {
					t.Fatalf("gateway.Close: %v", err)
				}
				for g := 0; g < groups; g++ {
					sameStreams(t, fmt.Sprintf("backend %d", g),
						Streams(viaGW[g].svc), Streams(direct[g].svc))
				}
			})
		}
	}
}

// TestLaneCoverage is the two-tier routing table: for every router at
// groups, shards ∈ {2,3,4}, the gateway's group rule followed by each
// backend's own Route(j, S) must reach every (group, shard) lane. Under
// hash-by-id and round-robin each lane holds its share N/(G·S) within
// ±5%; under length-class every lane gets jobs once job lengths span
// G·S binary classes. Routing both tiers with Route(j, ·) alone would
// leave lanes idle wherever G and S share a factor.
func TestLaneCoverage(t *testing.T) {
	const n = 21600 // a multiple of every G·S in the table
	for _, mkRouter := range []func() serve.Policy{serve.HashByID, serve.LengthClass, serve.RoundRobin} {
		for groups := 2; groups <= 4; groups++ {
			for shards := 2; shards <= 4; shards++ {
				name := fmt.Sprintf("%s/%dx%d", mkRouter().Name(), groups, shards)
				t.Run(name, func(t *testing.T) {
					lanes := groups * shards
					gwRouter := mkRouter()
					backend := make([]serve.Policy, groups) // one router per backend, as each daemon has its own
					for g := range backend {
						backend[g] = mkRouter()
					}
					count := make([]int, lanes)
					for i := 0; i < n; i++ {
						// Lengths cycle through `lanes` binary classes.
						j := job.Job{ID: i, Proc: 1.5 * float64(int(1)<<(i%lanes)), Deadline: 1e9}
						g := groupOf(gwRouter, j, groups, shards)
						s := backend[g].Route(j, shards)
						count[g*shards+s]++
					}
					share := float64(n) / float64(lanes)
					for lane, c := range count {
						if c == 0 {
							t.Fatalf("lane (group %d, shard %d) got no jobs: %v", lane/shards, lane%shards, count)
						}
						if gwRouter.Name() != "length-class" && math.Abs(float64(c)-share) > 0.05*share {
							t.Fatalf("lane (group %d, shard %d) got %d jobs, share %.0f ± 5%%: %v", lane/shards, lane%shards, c, share, count)
						}
					}
				})
			}
		}
	}
}

// TestMirrorLagSheds pins the overload contract of the mirror bound: a
// standby held at full queue depth makes the gateway shed NEW intake
// with serve.ErrBackpressure and the distinct cause="mirror" counter —
// it never drops a mirror record, and once the standby catches up it
// ends bit-identical to the primary.
func TestMirrorLagSheds(t *testing.T) {
	const spec = "threshold"
	pb := startBackend(t, 1, 2, 0.5, spec)
	sb := startBackend(t, 1, 2, 0.5, spec)

	gate := make(chan struct{})
	reg := obs.NewRegistry()
	gw, err := New(
		[]BackendSpec{{Primary: pb.addr(), Standby: sb.addr()}},
		WithMetrics(reg),
		WithProbeInterval(0),
		WithMirrorDepth(1),
		withMirrorGate(func() { <-gate }),
	)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	released := false
	defer func() {
		if !released {
			close(gate)
		}
		gw.Close()
	}()

	inst := workload.Poisson(workload.Spec{N: 64, Eps: 0.5, M: 2, Load: 2, Seed: 3})
	// With depth 1 and the apply gate held, at most two jobs can be
	// decided (one stuck in the gated apply, one filling the queue)
	// before the reservation check sheds.
	var shed bool
	decided := 0
	for _, j := range inst {
		_, err := gw.Submit(j)
		switch {
		case err == nil:
			decided++
		case errors.Is(err, serve.ErrBackpressure):
			shed = true
		default:
			t.Fatalf("submit job %d: %v", j.ID, err)
		}
		if shed {
			break
		}
	}
	if !shed {
		t.Fatalf("no shed after %d decided jobs with mirror gated at depth 1", decided)
	}
	if decided > 2 {
		t.Fatalf("%d jobs decided before shed, lag bound (depth 1) not enforced", decided)
	}
	if got := reg.CounterVec("gateway_shed_total", "cause").With("mirror").Value(); got == 0 {
		t.Fatal("gateway_shed_total{cause=mirror} not incremented")
	}

	close(gate)
	released = true
	if err := gw.Close(); err != nil { // flushes the mirror queue
		t.Fatalf("gateway.Close: %v", err)
	}
	sameStreams(t, "mirror after release", Streams(pb.svc), Streams(sb.svc))
	if lag := gw.Status().Groups[0].MirrorLagJobs; lag != 0 {
		t.Fatalf("mirror lag %d after flush, want 0", lag)
	}
}

// TestDrainPromotesStandby pins the planned-maintenance path: draining a
// primary mid-traffic promotes the standby without dropping a single
// in-flight commitment, traffic keeps flowing, and the merged stream
// across the drain verifies exactly like a failover (with an empty
// unacked tail — a drain kills nobody).
func TestDrainPromotesStandby(t *testing.T) {
	const (
		spec = "delta-commit:delta=0.5"
		m    = 2
		eps  = 0.5
	)
	pb := startBackend(t, 2, m, eps, spec)
	sb := startBackend(t, 2, m, eps, spec)
	gw, err := New(
		[]BackendSpec{{Primary: pb.addr(), Standby: sb.addr()}},
		WithJournal(),
		WithProbeInterval(0),
	)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	defer gw.Close()

	inst := workload.Poisson(workload.Spec{N: 600, Eps: eps, M: m, Load: 2, Seed: 17})
	half := len(inst) / 2
	for _, j := range inst[:half] {
		if _, err := gw.Submit(j); err != nil {
			t.Fatalf("pre-drain submit job %d: %v", j.ID, err)
		}
	}
	if err := gw.DrainBackend(0); err != nil {
		t.Fatalf("DrainBackend: %v", err)
	}
	for _, j := range inst[half:] {
		if _, err := gw.Submit(j); err != nil {
			t.Fatalf("post-drain submit job %d: %v", j.ID, err)
		}
	}
	if err := gw.Close(); err != nil {
		t.Fatalf("gateway.Close: %v", err)
	}

	st := gw.Status().Groups[0]
	if st.State != StateDegraded {
		t.Fatalf("state = %s after drain, want %s", st.State, StateDegraded)
	}
	var drained, primary bool
	for _, b := range st.Backends {
		switch b.Role {
		case RoleDrained:
			drained = true
		case RolePrimary:
			primary = true
		}
	}
	if !drained || !primary {
		t.Fatalf("roles after drain: %+v", st.Backends)
	}

	builder, err := policy.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMergedReplay(builder, m, eps, gw.Journal(0), Streams(pb.svc), Streams(sb.svc)); err != nil {
		t.Fatalf("merged replay across drain: %v", err)
	}
	// Every acked verdict made it to the journal, and the promoted
	// backend decided every job in the instance.
	if got := len(gw.Journal(0)); got != len(inst) {
		t.Fatalf("journal has %d entries, want %d", got, len(inst))
	}
}

// TestGatewaySpanVerdicts: behind a traced front server, every finished
// span carries the verdict its frame got through the gateway — a
// one-job frame its job's accept or reject, a batch its dominant
// verdict, and a frame the gateway shed (mirror lag bound) "shed".
func TestGatewaySpanVerdicts(t *testing.T) {
	const spec = "threshold"
	gate := make(chan struct{})
	specs := []BackendSpec{
		{Primary: startBackend(t, 2, 2, 0.5, spec).addr()},
		{Primary: startBackend(t, 2, 2, 0.5, spec).addr(), Standby: startBackend(t, 2, 2, 0.5, spec).addr()},
	}
	gw, err := New(specs, WithProbeInterval(0), WithMirrorDepth(1), withMirrorGate(func() { <-gate }))
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	released := false
	defer func() {
		if !released {
			close(gate)
		}
		gw.Close()
	}()
	rec := obs.NewSpanRecorder(obs.NewRegistry(), obs.WithSpanRing(1024), obs.WithSlowLog(nil))
	front, err := netserve.Serve(gw, "127.0.0.1:0", netserve.WithServerSpans(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	cl, err := netserve.Dial(front.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// One-job frames until group 1's gated mirror sheds one: group 0 has
	// no standby and decides every job routed to it.
	want := map[int64]string{}
	inst := workload.Poisson(workload.Spec{N: 200, Eps: 0.5, M: 8, Load: 2, Seed: 5})
	sheds := 0
	for _, j := range inst[:150] {
		dec, err := cl.Submit(j)
		switch {
		case errors.Is(err, netserve.ErrShed):
			want[int64(j.ID)] = obs.VerdictShed
			sheds++
		case err != nil:
			t.Fatalf("submit job %d: %v", j.ID, err)
		case dec.Accepted:
			want[int64(j.ID)] = obs.VerdictAccept
		default:
			want[int64(j.ID)] = obs.VerdictReject
		}
	}
	if sheds == 0 {
		t.Fatal("no frame shed with group 1's mirror gated at depth 1")
	}
	close(gate)
	released = true
	batch := inst[150:]
	res, err := cl.SubmitBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	want[int64(batch[0].ID)] = serve.SpanVerdict(toServe(res))
	if err := front.Close(); err != nil { // every span is finished once its reply is written
		t.Fatal(err)
	}

	spans := rec.Recent()
	if len(spans) != len(want) {
		t.Fatalf("%d spans for %d frames", len(spans), len(want))
	}
	for _, sp := range spans {
		if sp.Verdict == "" || sp.Verdict != want[sp.JobID] {
			t.Fatalf("span for job %d has verdict %q, the client saw %q", sp.JobID, sp.Verdict, want[sp.JobID])
		}
	}
}

// toServe converts client results to the serve type SpanVerdict reads.
func toServe(res []netserve.BatchResult) []serve.BatchResult {
	out := make([]serve.BatchResult, len(res))
	for i, r := range res {
		out[i] = serve.BatchResult{Dec: r.Dec, Err: r.Err}
		if errors.Is(r.Err, netserve.ErrShed) {
			out[i].Err = serve.ErrBackpressure
		}
	}
	return out
}

// TestGroupDownWithoutStandby pins the honest-failure mode: a group
// whose primary dies with no standby answers ErrGroupDown — it does not
// hang, guess, or silently shed.
func TestGroupDownWithoutStandby(t *testing.T) {
	pb := startBackend(t, 1, 2, 0.5, "threshold")
	gw, err := New([]BackendSpec{{Primary: pb.addr()}}, WithProbeInterval(0))
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	defer gw.Close()

	j := job.Job{ID: 1, Release: 0, Proc: 1, Deadline: 10}
	if _, err := gw.Submit(j); err != nil {
		t.Fatalf("warm-up submit: %v", err)
	}
	pb.srv.Abort()

	deadline := time.Now().Add(10 * time.Second)
	for {
		j.ID++
		_, err := gw.Submit(j)
		if errors.Is(err, ErrGroupDown) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no ErrGroupDown after killing the only backend; last err: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := gw.Status().Groups[0].State; st != StateDown {
		t.Fatalf("state = %s, want %s", st, StateDown)
	}
}
