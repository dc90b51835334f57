package online

import (
	"fmt"

	"loadmax/internal/job"
)

// Divergence describes the first submission at which two schedulers
// disagreed during a Lockstep replay.
type Divergence struct {
	Index int // position in the replayed instance
	Job   job.Job
	A, B  Decision
}

func (d *Divergence) String() string {
	return fmt.Sprintf("submission %d (%v): %v vs %v", d.Index, d.Job, d.A, d.B)
}

// SameDecision reports whether two decisions are identical: same job,
// same verdict, and — for acceptances — the same machine and the
// bit-identical committed start time. Float equality is deliberate: the
// differential-equivalence harness demands that two engines make the
// *same* commitments, not merely commitments within tolerance of each
// other.
func SameDecision(a, b Decision) bool {
	if a.JobID != b.JobID || a.Accepted != b.Accepted {
		return false
	}
	if !a.Accepted {
		return true
	}
	return a.Machine == b.Machine && a.Start == b.Start
}

// Lockstep replays an instance through two schedulers submission by
// submission and returns the first divergence, or nil if every decision
// matched. Both schedulers are Reset first so the replay starts from
// clean state. It is the spine of the differential-equivalence harness
// (naive vs incremental core), of BenchmarkSubmit's m = 4096 check and
// of the arena's determinism check.
func Lockstep(a, b Scheduler, inst job.Instance) *Divergence {
	a.Reset()
	b.Reset()
	for idx, j := range inst {
		da := a.Submit(j)
		db := b.Submit(j)
		if !SameDecision(da, db) {
			return &Divergence{Index: idx, Job: j, A: da, B: db}
		}
	}
	return nil
}
