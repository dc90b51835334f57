package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"loadmax/internal/gateway"
	"loadmax/internal/job"
	"loadmax/internal/netserve"
	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/policy"
	"loadmax/internal/serve"
)

// stack is one serving stack built for a workload: the in-process
// services, the netserve servers in front of them, the gateway when the
// workload has one, and an in-process client for the closed loop.
type stack struct {
	w       Workload
	builder policy.Builder // the untimed policy, for every replay check

	svcs     []*serve.Service // verdict path: the daemon, or each group's primary
	standbys []*serve.Service // each group's warm standby
	backends []*netserve.Server
	gw       *gateway.Gateway
	front    *netserve.Server
	client   *netserve.Client
	dir      string // durable directory ("" when not durable)

	*traceSet // nil on an untraced stack
}

// traceSet is what traced stacks record into: the tracer and registries
// for the program's own obs metrics. The stacks of one phase share a set,
// so its counters add up over the phase.
type traceSet struct {
	tr                                *tracer
	svcReg, standbyReg, srvReg, gwReg *obs.Registry
	restoreReg                        *obs.Registry // services restored from a WAL
}

func newTraceSet() *traceSet {
	return &traceSet{newTracer(), obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()}
}

// newStack builds the workload's stack, traced when ts is non-nil, and
// reports how long it took: services built, listeners bound, backends
// dialed and every HELLO done.
func newStack(w Workload, builder policy.Builder, dir string, ts *traceSet) (*stack, time.Duration, error) {
	start := time.Now()
	st := &stack{w: w, builder: builder, traceSet: ts}
	if w.Durable {
		st.dir = dir
	}
	if ts != nil {
		ts.tr.resume()
	}
	if err := st.build(); err != nil {
		st.close()
		return nil, 0, err
	}
	return st, time.Since(start), nil
}

func (st *stack) build() error {
	w := st.w
	if w.Groups == 0 {
		svc, err := st.newService(st.dir, true)
		if err != nil {
			return err
		}
		return st.serveFront(st.admitter(svc, layerServe))
	}
	specs := make([]gateway.BackendSpec, w.Groups)
	for g := range specs {
		primary, err := st.newBackend(true)
		if err != nil {
			return err
		}
		standby, err := st.newBackend(false)
		if err != nil {
			return err
		}
		specs[g] = gateway.BackendSpec{Primary: primary, Standby: standby}
	}
	opts := []gateway.Option{gateway.WithJournal()}
	if st.traceSet != nil {
		opts = append(opts, gateway.WithMetrics(st.gwReg))
	}
	gw, err := gateway.New(specs, opts...)
	if err != nil {
		return err
	}
	st.gw = gw
	return st.serveFront(st.admitter(gw, layerGateway))
}

// newService builds one in-process service. Verdict-path services run
// the timed policy on a traced stack; a standby's decisions duplicate its
// primary's, so its policy stays untimed.
func (st *stack) newService(dir string, verdictPath bool) (*serve.Service, error) {
	b := st.builder
	opts := []serve.Option{serve.WithDecisionLog()}
	if dir != "" {
		opts = append(opts, serve.WithDurability(dir))
	}
	if st.traceSet != nil {
		reg := st.standbyReg
		if verdictPath {
			reg = st.svcReg
			b = timedBuilder(b, st.tr)
		}
		opts = append(opts, serve.WithMetrics(reg))
	}
	opts = append(opts, serve.WithAdmissionPolicy(b))
	svc, err := serve.New(st.w.Shards, st.w.Machines, st.w.Eps, opts...)
	if err != nil {
		return nil, err
	}
	if verdictPath {
		st.svcs = append(st.svcs, svc)
	} else {
		st.standbys = append(st.standbys, svc)
	}
	return svc, nil
}

// newBackend starts one gateway backend (service + server) and returns
// its address.
func (st *stack) newBackend(primary bool) (string, error) {
	svc, err := st.newService("", primary)
	if err != nil {
		return "", err
	}
	l := layerMirror
	if primary {
		l = layerServe
	}
	srv, err := netserve.Serve(st.admitter(svc, l), "127.0.0.1:0", st.serverOpts()...)
	if err != nil {
		return "", err
	}
	st.backends = append(st.backends, srv)
	return srv.Addr().String(), nil
}

// tracer returns the stack's tracer, nil on an untraced stack.
func (st *stack) tracer() *tracer {
	if st.traceSet == nil {
		return nil
	}
	return st.tr
}

func (st *stack) serverOpts() []netserve.ServerOption {
	if st.traceSet == nil {
		return nil
	}
	return []netserve.ServerOption{netserve.WithServerMetrics(st.srvReg)}
}

func (st *stack) admitter(a netserve.Admitter, l layer) netserve.Admitter {
	if st.traceSet == nil {
		return a
	}
	return timedAdmitter{Admitter: a, tr: st.tr, layer: l}
}

func (st *stack) serveFront(a netserve.Admitter) error {
	front, err := netserve.Serve(a, "127.0.0.1:0", st.serverOpts()...)
	if err != nil {
		return err
	}
	st.front = front
	client, err := netserve.Dial(front.Addr().String(), netserve.WithConns(st.w.Conns))
	if err != nil {
		return err
	}
	st.client = client
	return nil
}

// close drains the stack front to back: client, client-facing server,
// gateway (which flushes every mirror), backend servers, services.
func (st *stack) close() error {
	var errs []error
	if st.client != nil {
		errs = append(errs, st.client.Close())
	}
	if st.front != nil {
		errs = append(errs, st.front.Close())
	}
	if st.gw != nil {
		errs = append(errs, st.gw.Close())
	}
	for _, b := range st.backends {
		errs = append(errs, b.Close())
	}
	for _, svc := range st.services() {
		errs = append(errs, svc.Close())
	}
	return errors.Join(errs...)
}

// services lists every in-process service: verdict path, then standbys.
func (st *stack) services() []*serve.Service {
	return append(append([]*serve.Service(nil), st.svcs...), st.standbys...)
}

// acceptedMass sums Σp accepted over the verdict-path services.
func (st *stack) acceptedMass() float64 {
	var m float64
	for _, svc := range st.svcs {
		m += svc.AcceptedMass()
	}
	return m
}

// verify runs every correctness check on a closed stack:
//
//   - serve.VerifyReplay on every in-process service;
//   - gateway.VerifyMergedReplay on every gateway group;
//   - every verdict the client received is the decision the serving
//     shard recorded for that job, and every decided job was recorded
//     exactly once, with its processing time and deadline intact;
//   - the services' accepted mass equals the mass the client saw accepted.
func (st *stack) verify(jobs job.Instance, ph *phase) error {
	for i, svc := range st.services() {
		if err := svc.VerifyReplay(); err != nil {
			return fmt.Errorf("service %d: %w", i, err)
		}
	}
	if st.gw != nil {
		for g := range st.svcs {
			if err := gateway.VerifyMergedReplay(st.builder, st.w.Machines, st.w.Eps, st.gw.Journal(g),
				gateway.Streams(st.svcs[g]), gateway.Streams(st.standbys[g])); err != nil {
				return fmt.Errorf("group %d: %w", g, err)
			}
		}
	}

	seen := make([]bool, len(jobs))
	recorded := 0
	for _, svc := range st.svcs {
		for sh := 0; sh < svc.Shards(); sh++ {
			for _, rec := range svc.ShardStream(sh) {
				id := rec.Decision.JobID
				if id < 0 || id >= len(jobs) || seen[id] {
					return fmt.Errorf("job %d recorded twice or out of range", id)
				}
				seen[id] = true
				recorded++
				sent := jobs[id]
				if rec.Job.ID != id || rec.Job.Proc != sent.Proc || rec.Job.Deadline != sent.Deadline || rec.Job.Release < sent.Release {
					return fmt.Errorf("job %d recorded as %v, sent as %v", id, rec.Job, sent)
				}
				if ph.OK[id] && !online.SameDecision(ph.Decs[id], rec.Decision) {
					return fmt.Errorf("job %d: client got %v, shard recorded %v", id, ph.Decs[id], rec.Decision)
				}
			}
		}
	}
	for id, ok := range ph.OK {
		if ok && !seen[id] {
			return fmt.Errorf("job %d has a verdict but no shard recorded it", id)
		}
	}
	if recorded < ph.Decided {
		return fmt.Errorf("%d jobs recorded, %d verdicts received", recorded, ph.Decided)
	}
	if got, want := st.acceptedMass(), ph.AcceptedMass; math.Abs(got-want) > 1e-9*math.Max(1, want) {
		return fmt.Errorf("services hold accepted mass %.6f, client saw %.6f accepted", got, want)
	}
	return nil
}

// walBatchJobs is the batch size walDirs writes a decision stream in.
const walBatchJobs = 4096

// walDirs returns one WAL directory per verdict-path service of the
// closed stack. A durable stack's is the one it served from. An in-memory
// stack has none, so each service's decision stream is written, shard by
// shard and in order, through a durable service of the same shape into a
// directory under dir; hash-by-id routing puts every job on the shard
// that decided it, so the log holds the same decisions.
func (st *stack) walDirs(dir string) ([]string, error) {
	if st.dir != "" {
		return []string{st.dir}, nil
	}
	var dirs []string
	for i, svc := range st.svcs {
		d := filepath.Join(dir, fmt.Sprintf("wal-%d", i))
		w, err := serve.New(st.w.Shards, st.w.Machines, st.w.Eps, serve.WithDurability(d), serve.WithAdmissionPolicy(st.builder))
		if err != nil {
			return nil, err
		}
		var batch []job.Job
		for sh := 0; sh < svc.Shards(); sh++ {
			recs := svc.ShardStream(sh)
			for k := 0; k < len(recs); k += walBatchJobs {
				batch = batch[:0]
				for _, rec := range recs[k:min(k+walBatchJobs, len(recs))] {
					batch = append(batch, rec.Job)
				}
				for _, r := range w.SubmitBatch(batch) {
					if r.Err != nil {
						w.Close()
						return nil, r.Err
					}
				}
			}
		}
		// Close waits for the shard goroutines, which publish the mass.
		if err := w.Close(); err != nil {
			return nil, err
		}
		got := w.AcceptedMass()
		if want := svc.AcceptedMass(); got != want {
			return nil, fmt.Errorf("service %d: its WAL holds accepted mass %v, the service held %v", i, got, want)
		}
		dirs = append(dirs, d)
	}
	return dirs, nil
}

// restore times serve.Restore of every directory in dirs, which must
// bring back the accepted mass the stopped verdict-path services held.
func (st *stack) restore(dirs []string) (time.Duration, error) {
	want := st.acceptedMass()
	opts := []serve.Option{serve.WithAdmissionPolicy(st.builder)}
	if st.traceSet != nil {
		opts = append(opts, serve.WithMetrics(st.restoreReg))
	}
	var total time.Duration
	var got float64
	for _, dir := range dirs {
		start := time.Now()
		svc, err := serve.Restore(dir, opts...)
		if err != nil {
			return 0, err
		}
		total += time.Since(start)
		got += svc.AcceptedMass()
		if err := svc.Close(); err != nil {
			return 0, err
		}
	}
	if st.traceSet != nil {
		st.tr.restoreTime += total
	}
	if math.Abs(got-want) > 1e-9*math.Max(1, want) {
		return 0, fmt.Errorf("restored services hold accepted mass %v, stopped services held %v", got, want)
	}
	return total, nil
}
