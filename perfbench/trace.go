package main

// Tracing for the per-layer run. Every span is recorded from outside the
// program, around a call into one layer's public API: the wire client's
// Submit/SubmitBatch, the netserve.Admitter the server dispatches into
// (a gateway or a serve.Service), and AdmissionPolicy.Submit through a
// wrapping policy.Builder. Spans stay in memory and are written out once
// the run has been measured.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/netserve"
	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/policy"
	"loadmax/internal/serve"
)

// layer tags a span with the boundary it was recorded at.
type layer uint8

const (
	layerClient  layer = iota // netserve.Client call: one wire round trip
	layerGateway              // gateway.Gateway behind the client-facing server
	layerServe                // serve.Service on the verdict path (daemon or group primary)
	layerMirror               // serve.Service of a warm standby (mirror applies)
	layerPolicy               // one AdmissionPolicy.Submit on the verdict path
	numLayers
)

var layerNames = [numLayers]string{"client", "gateway", "serve", "mirror", "policy"}

// span is one timed call. id is the job ID (the first job's for a batch
// frame), so the spans of one request share it across layers.
type span struct {
	id    int64
	start int64 // ns since the tracer's epoch
	dur   int64 // ns
	jobs  int32
	layer layer
}

// tracer collects the spans of the traced stacks of one phase.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	accepted int64 // accepts of harvested policy instances

	restoreTime time.Duration // spent in serve.Restore, for its per-record rate

	pmu      sync.Mutex
	policies []*timedPolicy // instances built since the last harvest
	timing   bool           // whether the timed builder wraps new instances
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), timing: true} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed records fn as one span of layer l; a nil tracer just calls fn.
func (t *tracer) timed(l layer, id int64, jobs int, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := t.now()
	fn()
	t.add(span{id: id, start: start, dur: t.now() - start, jobs: int32(jobs), layer: l})
}

// harvest moves the spans and accept counts of every policy instance
// built since the last harvest into the tracer, and stops timing new
// instances until resume: the replay checks build policies through the
// same builder, and their decisions are not the stack's. Call it once the
// stack is closed; Close is what orders the shard goroutines' unlocked
// span writes before this read.
func (t *tracer) harvest() {
	t.pmu.Lock()
	ps := t.policies
	t.policies, t.timing = nil, false
	t.pmu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range ps {
		t.spans = append(t.spans, p.spans...)
		t.accepted += p.accepted
	}
}

// resume makes the timed builder wrap new instances again.
func (t *tracer) resume() {
	t.pmu.Lock()
	t.timing = true
	t.pmu.Unlock()
}

// writeCSV writes the spans as "layer,job_id,start_ns,dur_ns,jobs" lines.
func writeCSV(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "layer,job_id,start_ns,dur_ns,jobs")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", layerNames[s.layer], s.id, s.start, s.dur, s.jobs)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedPolicy times every decision of the policy it wraps. It is owned by
// one shard goroutine, like the policy itself, so it appends unlocked.
type timedPolicy struct {
	policy.AdmissionPolicy
	tr       *tracer
	spans    []span
	accepted int64
}

func (p *timedPolicy) Submit(j job.Job) online.Decision {
	start := p.tr.now()
	dec := p.AdmissionPolicy.Submit(j)
	p.spans = append(p.spans, span{id: int64(j.ID), start: start, dur: p.tr.now() - start, jobs: 1, layer: layerPolicy})
	if dec.Accepted {
		p.accepted++
	}
	return dec
}

// timedBuilder wraps b so every instance it builds while tr is timing is
// a timedPolicy registered with tr. The spec is unchanged, so manifests,
// HELLO acks and replays see the same policy.
func timedBuilder(b policy.Builder, tr *tracer) policy.Builder {
	return policy.Builder{Spec: b.Spec, New: func(m int, eps float64) (policy.AdmissionPolicy, error) {
		inner, err := b.New(m, eps)
		if err != nil {
			return nil, err
		}
		tr.pmu.Lock()
		defer tr.pmu.Unlock()
		if !tr.timing {
			return inner, nil
		}
		p := &timedPolicy{AdmissionPolicy: inner, tr: tr}
		tr.policies = append(tr.policies, p)
		return p, nil
	}}
}

// timedAdmitter times every call a netserve.Server makes into the
// Admitter it serves.
type timedAdmitter struct {
	netserve.Admitter
	tr    *tracer
	layer layer
}

func (a timedAdmitter) SubmitSpan(j job.Job, sp *obs.Span) (dec online.Decision, err error) {
	a.tr.timed(a.layer, int64(j.ID), 1, func() { dec, err = a.Admitter.SubmitSpan(j, sp) })
	return dec, err
}

func (a timedAdmitter) SubmitBatchSpan(jobs []job.Job, sp *obs.Span) (out []serve.BatchResult) {
	id := int64(-1)
	if len(jobs) > 0 {
		id = int64(jobs[0].ID)
	}
	a.tr.timed(a.layer, id, len(jobs), func() { out = a.Admitter.SubmitBatchSpan(jobs, sp) })
	return out
}
