package wal

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// withProcs runs the test under GOMAXPROCS n.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestSyncSlotLimitFollowsGOMAXPROCS pins the limit: one P stays free of
// blocking syncs, and a single-P process still gets one slot.
func TestSyncSlotLimitFollowsGOMAXPROCS(t *testing.T) {
	for procs, want := range map[int]int{1: 1, 2: 1, 3: 2, 8: 7} {
		withProcs(t, procs)
		if got := syncLimit(); got != want {
			t.Fatalf("GOMAXPROCS=%d: limit %d, want %d", procs, got, want)
		}
	}
}

// TestSyncSlotEveryBlockingOp holds the only slot (GOMAXPROCS=2) and runs
// each blocking operation in turn: each must park in the limiter until
// the slot is released. Deterministic: the test waits for the operation
// to be counted as waiting, or fails if it finishes first.
func TestSyncSlotEveryBlockingOp(t *testing.T) {
	withProcs(t, 2)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "wal.log")
	w, err := Create(logPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ops := []struct {
		name string
		run  func() error
	}{
		{"Commit", func() error {
			r := rec(w.NextSeq(), true)
			if _, err := w.Append(r.Job, r.Decision); err != nil {
				return err
			}
			return w.Commit()
		}},
		{"Rotate", w.Rotate},
		{"OpenAppend", func() error {
			w2, err := OpenAppend(filepath.Join(dir, "other.log"), 0, 1, Options{})
			if err == nil {
				err = w2.Close()
			}
			return err
		}},
		{"WriteFileAtomic", func() error { return WriteFileAtomic(filepath.Join(dir, "snap"), []byte("x"), nil) }},
		{"Create", func() error {
			w2, err := Create(filepath.Join(dir, "third.log"), Options{})
			if err == nil {
				err = w2.Close()
			}
			return err
		}},
	}
	for _, op := range ops {
		syncSlots.acquire()
		done := make(chan error, 1)
		go func() { done <- op.run() }()
		for waiting := 0; waiting == 0; {
			select {
			case err := <-done:
				syncSlots.release()
				t.Fatalf("%s finished (err %v) while the only sync slot was held", op.name, err)
			case <-time.After(time.Millisecond):
			}
			syncSlots.mu.Lock()
			waiting = syncSlots.waiting
			syncSlots.mu.Unlock()
		}
		syncSlots.release()
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
	}
}

// TestSyncSlotFlushWaitHoldsNone pins that a Commit waiting out its
// FlushInterval does so before taking a slot: another writer commits
// while it waits, under a limit of one slot.
func TestSyncSlotFlushWaitHoldsNone(t *testing.T) {
	withProcs(t, 2)
	dir := t.TempDir()
	slow, err := Create(filepath.Join(dir, "slow.log"), Options{FlushInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fast, err := Create(filepath.Join(dir, "fast.log"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	commitRecords(t, slow, 1) // sets the interval's start
	r := rec(slow.NextSeq(), true)
	if _, err := slow.Append(r.Job, r.Decision); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- slow.Commit() }()
	// Give slow time to reach its interval wait. Were it still short of
	// it, the check below would pass without testing anything, never fail.
	time.Sleep(20 * time.Millisecond)
	commitRecords(t, fast, 1)
	select {
	case err := <-done:
		t.Fatalf("the interval-waiting commit finished (err %v) before the other writer's commit", err)
	default:
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
