package policy

import (
	"bytes"
	"encoding/json"
	"testing"

	"loadmax/internal/job"
	"loadmax/internal/online"
	"loadmax/internal/workload"
)

// The fuzzed policies: one per implementation, each built for fuzzM
// machines at slack fuzzEps.
var fuzzSpecs = []string{"threshold", "greedy", "delta-commit:delta=0.5"}

const (
	fuzzM   = 3
	fuzzEps = 0.25
)

// FuzzImportState feeds arbitrary snapshot documents — the State JSON a
// durable shard reads back from its snapshot file — to the ImportState
// of threshold, greedy and delta-commit:delta=0.5. The committed corpus
// under testdata/fuzz holds a valid export of each, and exports of the
// wrong m, δ and horizon count, NaN and out-of-range numbers, negative
// times, overlapping and inverted δ-commitment slots, and states stamped
// with a foreign or unknown policy. The invariants:
//
//   - importing never panics;
//   - an accepted state exports, and that export imports into a fresh
//     policy and exports again to the same bytes;
//   - the imported and the re-imported policy decide a probe stream
//     identically.
func FuzzImportState(f *testing.F) {
	for _, spec := range fuzzSpecs {
		p := fuzzPolicy(f, spec)
		for _, j := range workload.Poisson(workload.Spec{N: 40, Eps: fuzzEps, M: fuzzM, Load: 2, Seed: 3}) {
			p.Submit(j)
		}
		st, err := p.ExportState()
		if err != nil {
			f.Fatal(err)
		}
		doc, err := json.Marshal(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var st State
		if json.Unmarshal(doc, &st) != nil {
			return
		}
		for _, spec := range fuzzSpecs {
			p := fuzzPolicy(t, spec)
			if p.ImportState(st) != nil {
				continue
			}
			exp := exportJSON(t, p)
			q := fuzzPolicy(t, spec)
			var again State
			if err := json.Unmarshal(exp, &again); err != nil {
				t.Fatalf("%s: export does not decode: %v", spec, err)
			}
			if err := q.ImportState(again); err != nil {
				t.Fatalf("%s: refused its own export %s: %v", spec, exp, err)
			}
			if exp2 := exportJSON(t, q); !bytes.Equal(exp, exp2) {
				t.Fatalf("%s: export %s re-imports and exports as %s", spec, exp, exp2)
			}
			for _, j := range probeStream(p.Now()) {
				if dp, dq := p.Submit(j), q.Submit(j); !online.SameDecision(dp, dq) {
					t.Fatalf("%s: probe job %d decided %v after import, %v after re-import", spec, j.ID, dp, dq)
				}
			}
		}
	})
}

func fuzzPolicy(tb testing.TB, spec string) AdmissionPolicy {
	tb.Helper()
	b, err := Parse(spec)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := b.New(fuzzM, fuzzEps)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func exportJSON(t *testing.T, p AdmissionPolicy) []byte {
	t.Helper()
	st, err := p.ExportState()
	if err != nil {
		t.Fatalf("export after a successful import: %v", err)
	}
	doc, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// probeStream is a short mix of tight and loose jobs released from now
// on, so every policy both accepts and rejects some of it.
func probeStream(now float64) job.Instance {
	var inst job.Instance
	for i := 0; i < 12; i++ {
		r := now + float64(i/3)*0.5
		p := 0.5 + float64(i%4)
		slack := fuzzEps
		if i%3 == 0 {
			slack = 3
		}
		inst = append(inst, job.Job{ID: i, Release: r, Proc: p, Deadline: r + (1+slack)*p})
	}
	return inst
}
