package main

import (
	"sync"
	"testing"

	"loadmax/internal/online"
	"loadmax/internal/policy"
)

// TestTimedPolicyKeepsDecisions feeds one job stream, in order, to a
// plain and a timed policy: every decision must be identical, and the
// timed one must account for every decision once.
func TestTimedPolicyKeepsDecisions(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			jobs, err := w.jobs(5000, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := policy.Parse(w.Policy)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := b.New(w.Machines, w.Eps)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			timed, err := timedBuilder(b, tr).New(w.Machines, w.Eps)
			if err != nil {
				t.Fatal(err)
			}
			accepted := 0
			for _, j := range jobs {
				want, got := plain.Submit(j), timed.Submit(j)
				if !online.SameDecision(want, got) {
					t.Fatalf("job %d: plain %v, timed %v", j.ID, want, got)
				}
				if want.Accepted {
					accepted++
				}
			}
			tr.harvest()
			if len(tr.spans) != len(jobs) || tr.accepted != int64(accepted) {
				t.Fatalf("tracer holds %d spans and %d accepts, want %d and %d", len(tr.spans), tr.accepted, len(jobs), accepted)
			}
			// The replay checks build policies after the harvest; those
			// must not be timed.
			if p, _ := timedBuilder(b, tr).New(w.Machines, w.Eps); p != nil {
				if _, ok := p.(*timedPolicy); ok {
					t.Fatal("harvested tracer still hands out timed instances")
				}
			}
		})
	}
}

// TestTimedStackKeepsDecisions submits the same frames one at a time to
// an untraced and a traced stack of every workload. The traced stack has
// a timed policy on every verdict-path shard and a timed Admitter behind
// every server; the verdict streams must be identical, and both stacks
// must pass every correctness check.
func TestTimedStackKeepsDecisions(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			jobs, err := w.jobs(8*w.FrameJobs+512, 11)
			if err != nil {
				t.Fatal(err)
			}
			b, err := policy.Parse(w.Policy)
			if err != nil {
				t.Fatal(err)
			}
			var streams [2][]online.Decision
			for i, ts := range []*traceSet{nil, newTraceSet()} {
				st, _, err := newStack(w, b, t.TempDir(), ts)
				if err != nil {
					t.Fatal(err)
				}
				ph := newPhase(len(jobs))
				var mu sync.Mutex
				d := driver{st.client, st.tracer()}
				for k := 0; k+w.FrameJobs <= len(jobs); k += w.FrameJobs {
					if n := d.send(ph, &mu, jobs[k:k+w.FrameJobs]); n != 0 {
						t.Fatalf("%d jobs failed: %s", n, ph.FirstErr)
					}
				}
				if err := st.close(); err != nil {
					t.Fatal(err)
				}
				ph.finish(jobs, len(jobs), 0)
				if ts != nil {
					ts.tr.harvest()
				}
				if err := st.verify(jobs, ph); err != nil {
					t.Fatal(err)
				}
				dirs, err := st.walDirs(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := st.restore(dirs); err != nil {
					t.Fatal(err)
				}
				if ts != nil {
					policies := 0
					for _, s := range ts.tr.spans {
						if s.layer == layerPolicy {
							policies++
						}
					}
					if policies != len(jobs) {
						t.Fatalf("%d policy spans for %d jobs", policies, len(jobs))
					}
				}
				streams[i] = ph.Decs
			}
			for id := range jobs {
				if !online.SameDecision(streams[0][id], streams[1][id]) {
					t.Fatalf("job %d: untraced %v, traced %v", id, streams[0][id], streams[1][id])
				}
			}
		})
	}
}
