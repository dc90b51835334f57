package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"loadmax/internal/online"
	"loadmax/internal/wal"
	"loadmax/internal/workload"
)

// crashScenario is one deterministic process-death experiment. The plan
// fires at a chosen kill-point; corrupt (optional) then damages the
// on-disk state the way a dying disk cache would — but only in the
// unsynced tail region, since durable acknowledged records are exactly
// what the WAL contract promises to keep.
type crashScenario struct {
	name            string
	shards          int
	plan            *wal.CrashPlan                 // stateful: owned by exactly one scenario run
	checkpointEvery int                            // 0 = never checkpoint
	corrupt         func(t *testing.T, dir string) // post-crash file surgery
}

// runCrashScenario executes the full recovery-equivalence experiment —
// the acceptance criteria verbatim:
//
//	(a) every acceptance whose Submit returned is preserved by Restore
//	    and matches an uninterrupted run, and
//	(b) the recovered service decides the remaining stream bit-identically
//	    to that uninterrupted run.
//
// The reference is a same-topology service that never crashes; with one
// submitter and batch size 1, both services see identical per-shard
// effective streams, so every decision is comparable index by index.
func runCrashScenario(t *testing.T, sc crashScenario) {
	const n, m, eps = 300, 3, 0.25
	jobs := workload.Poisson(workload.Spec{N: n, Eps: eps, M: sc.shards * m, Load: 2.5, Seed: 11})

	ref, err := New(sc.shards, m, eps, WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	refDecs := make([]online.Decision, n)
	for i, j := range jobs {
		if refDecs[i], err = ref.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	ref.Close()

	dir := t.TempDir()
	svc, err := New(sc.shards, m, eps, WithDurability(dir), withCrashPlan(sc.plan), WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[int]online.Decision)
	for i, j := range jobs {
		if sc.checkpointEvery > 0 && i > 0 && i%sc.checkpointEvery == 0 {
			// Checkpoint errors after the crash fires are expected: the
			// process is dead; we keep feeding to model queued traffic.
			_ = svc.Checkpoint()
		}
		if dec, err := svc.Submit(j); err == nil {
			acked[i] = dec
		}
	}
	if !sc.plan.Crashed() {
		t.Fatalf("crash plan %s/after=%d never fired — the scenario exercised nothing", sc.plan.Point, sc.plan.After)
	}
	svc.Close()
	if sc.corrupt != nil {
		sc.corrupt(t, dir)
	}

	rec, err := Restore(dir, WithDecisionLog(), WithBatchSize(1))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	// Replicate the router to learn each job's per-shard position: with a
	// single submitter the durable records form a per-shard prefix, so
	// job i survived iff its position is below its shard's recovered count.
	shardOf := make([]int, n)
	pos := make([]int, n)
	counts := make([]int, sc.shards)
	for i, j := range jobs {
		s := HashByID().Route(j, sc.shards)
		shardOf[i], pos[i] = s, counts[s]
		counts[s]++
	}
	recovered := make([]int64, sc.shards)
	for s, snap := range rec.Snapshot() {
		recovered[s] = snap.Submitted
	}
	isRecovered := func(i int) bool { return int64(pos[i]) < recovered[shardOf[i]] }

	// (a) acknowledged verdicts are durable and bit-identical to the
	// uninterrupted reference.
	for i, dec := range acked {
		if !isRecovered(i) {
			t.Fatalf("acked decision for job %d (shard %d pos %d) lost by recovery", i, shardOf[i], pos[i])
		}
		if !online.SameDecision(dec, refDecs[i]) {
			t.Fatalf("acked job %d decided %+v, reference %+v", i, dec, refDecs[i])
		}
	}
	// (b) the non-recovered remainder, resubmitted in order, decides
	// bit-identically to the reference.
	for i := 0; i < n; i++ {
		if isRecovered(i) {
			continue
		}
		dec, err := rec.Submit(jobs[i])
		if err != nil {
			t.Fatalf("resubmit job %d: %v", i, err)
		}
		if !online.SameDecision(dec, refDecs[i]) {
			t.Fatalf("post-recovery job %d decided %+v, reference %+v", i, dec, refDecs[i])
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.VerifyReplay(); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.AcceptedMass(), ref.AcceptedMass(); got != want {
		t.Fatalf("accepted mass %g after recovery, reference %g", got, want)
	}
}

// TestCrashFaultMatrix sweeps every kill-point across early/late firing,
// with and without checkpoints, plus torn-write sizes and a multi-shard
// whole-process death. Everything is deterministic: fixed seed, fixed
// kill schedules, single submitter.
func TestCrashFaultMatrix(t *testing.T) {
	var scs []crashScenario
	for _, pt := range []wal.KillPoint{wal.KillBeforeAppend, wal.KillBeforeSync, wal.KillMidSync, wal.KillAfterSync} {
		for _, after := range []int{0, 7, 153} {
			for _, ckpt := range []int{0, 50} {
				torn := 0
				if pt == wal.KillMidSync {
					torn = (after * 13) % 66 // 0, 25, 9 bytes of the group reach disk
				}
				scs = append(scs, crashScenario{
					name:            fmt.Sprintf("%s/after=%d/ckpt=%d", pt, after, ckpt),
					shards:          1,
					plan:            &wal.CrashPlan{Point: pt, After: after, TornBytes: torn},
					checkpointEvery: ckpt,
				})
			}
		}
	}
	// Checkpoint-path kill points need checkpoints scheduled to fire.
	for _, pt := range []wal.KillPoint{wal.KillBeforeSnapshotRename, wal.KillAfterSnapshotRename} {
		for _, after := range []int{0, 2} {
			scs = append(scs, crashScenario{
				name:            fmt.Sprintf("%s/after=%d/ckpt=40", pt, after),
				shards:          1,
				plan:            &wal.CrashPlan{Point: pt, After: after},
				checkpointEvery: 40,
			})
		}
	}
	// Whole-process death across shards: one shared plan kills all three
	// mid-stream; each shard must recover its own prefix.
	scs = append(scs,
		crashScenario{
			name:            "multi-shard/after-sync",
			shards:          3,
			plan:            &wal.CrashPlan{Point: wal.KillAfterSync, After: 120},
			checkpointEvery: 60,
		},
		crashScenario{
			name:   "multi-shard/mid-sync-torn",
			shards: 3,
			plan:   &wal.CrashPlan{Point: wal.KillMidSync, After: 77, TornBytes: 30},
		},
	)
	for _, sc := range scs {
		sc := sc
		t.Run(sc.name, func(t *testing.T) { runCrashScenario(t, sc) })
	}
}

// TestCrashCorruptedTail layers post-crash media damage on top of a
// kill: the last record of the log — beyond the last acknowledged one —
// is truncated mid-record or bit-flipped, or garbage lands after it,
// either just past it inside the preallocated space or at the end of
// the file. Recovery must shrug it off: those bytes belong to a decision
// nobody was ever promised.
//
// With KillAfterSync the final group is durable but unacknowledged (the
// crash hit between fsync and reply), so the last record on disk is
// exactly the sacrificial region. Every damage is placed relative to the
// end of that record as wal.ReadLog reports it, not to the end of the
// file, which preallocation pads with zeros; the scenario checks that
// the damage destroyed exactly the records it aimed at.
func TestCrashCorruptedTail(t *testing.T) {
	garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}
	damage := map[string]struct {
		lost int                              // records the damage destroys
		hit  func(b []byte, end int64) []byte // end: offset just past the last record
	}{
		"truncate-mid-record": {1, func(b []byte, end int64) []byte { return b[:end-5] }},
		"bit-flip-in-tail": {1, func(b []byte, end int64) []byte {
			b[end-10] ^= 0xff
			return b
		}},
		"garbage-past-last-record": {0, func(b []byte, end int64) []byte {
			if n := copy(b[end:], garbage); n < len(garbage) {
				b = append(b, garbage[n:]...)
			}
			return b
		}},
		"garbage-appended": {0, func(b []byte, end int64) []byte { return append(b, garbage...) }},
	}
	for name, d := range damage {
		corrupt := func(t *testing.T, dir string) {
			p := filepath.Join(dir, "shard-0000", "wal.log")
			before, tail, err := wal.ReadLog(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(before) == 0 || !tail.Clean {
				t.Fatalf("log before damage: %d records, tail %+v", len(before), tail)
			}
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, d.hit(b, tail.Offset), 0o644); err != nil {
				t.Fatal(err)
			}
			after, tail, err := wal.ReadLog(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(after) != len(before)-d.lost || tail.Clean {
				t.Fatalf("%s: %d of %d records left, tail %+v; want %d lost and a torn tail",
					name, len(after), len(before), tail, d.lost)
			}
		}
		for _, ckpt := range []int{0, 30} {
			t.Run(fmt.Sprintf("%s/ckpt=%d", name, ckpt), func(t *testing.T) {
				runCrashScenario(t, crashScenario{
					shards:          1,
					plan:            &wal.CrashPlan{Point: wal.KillAfterSync, After: 100},
					checkpointEvery: ckpt,
					corrupt:         corrupt,
				})
			})
		}
	}
}
