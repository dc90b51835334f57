package serve

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/workload"
)

// TestDurableRoundTrip is the clean-shutdown recovery contract: serve
// half the stream durably, close, Restore, serve the rest — and every
// decision on both sides of the outage must match an uninterrupted
// non-durable reference service bit for bit.
func TestDurableRoundTrip(t *testing.T) {
	const n, cut, shards, m, eps = 600, 337, 3, 4, 0.3
	jobs := workload.Poisson(workload.Spec{N: n, Eps: eps, M: shards * m, Load: 2.2, Seed: 42})

	ref, err := New(shards, m, eps, WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	refDecs := make([]online.Decision, n)
	for i, j := range jobs {
		if refDecs[i], err = ref.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	svc, err := New(shards, m, eps, WithDurability(dir), WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		dec, err := svc.Submit(jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !online.SameDecision(dec, refDecs[i]) {
			t.Fatalf("pre-outage job %d: %+v, reference %+v", i, dec, refDecs[i])
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Restore(dir, WithDecisionLog(), WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	var recovered int64
	for _, snap := range rec.Snapshot() {
		recovered += snap.Submitted
	}
	if recovered != cut {
		t.Fatalf("recovered %d decisions, want %d", recovered, cut)
	}
	for i := cut; i < n; i++ {
		dec, err := rec.Submit(jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !online.SameDecision(dec, refDecs[i]) {
			t.Fatalf("post-outage job %d: %+v, reference %+v", i, dec, refDecs[i])
		}
	}
	if got, want := rec.AcceptedMass(), ref.AcceptedMass(); got != want {
		t.Fatalf("accepted mass %g, reference %g", got, want)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.VerifyReplay(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointBoundsLogAndRecovers pins the checkpoint protocol: the
// log truncates, the snapshot appears, and a restore from
// snapshot+tail continues bit-identically. A second restore of the same
// directory (after a clean close) must also work — recovery is
// repeatable.
func TestCheckpointBoundsLogAndRecovers(t *testing.T) {
	const n, m, eps = 500, 3, 0.25
	jobs := workload.Uniform(workload.Spec{N: n, Eps: eps, M: m, Load: 2, Seed: 7})

	ref, err := New(1, m, eps, WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	refDecs := make([]online.Decision, n)
	for i, j := range jobs {
		refDecs[i], _ = ref.Submit(j)
	}
	ref.Close()

	dir := t.TempDir()
	svc, err := New(1, m, eps, WithDurability(dir), WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "shard-0000", "wal.log")
	snapPath := filepath.Join(dir, "shard-0000", "snapshot.json")
	for i := 0; i < 300; i++ {
		if _, err := svc.Submit(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	preSize := fileSize(t, walPath)
	if preSize == 0 {
		t.Fatal("log empty after 300 durable decisions")
	}
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, walPath); got != 0 {
		t.Fatalf("log holds %d bytes after checkpoint, want 0", got)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("snapshot missing after checkpoint: %v", err)
	}
	for i := 300; i < 400; i++ {
		if _, err := svc.Submit(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		rec, err := Restore(dir, WithDecisionLog(), WithBatchSize(1))
		if err != nil {
			t.Fatalf("restore round %d: %v", round, err)
		}
		if got := rec.Snapshot()[0].Submitted; got != 400 {
			t.Fatalf("restore round %d: recovered %d decisions, want 400", round, got)
		}
		if round == 0 {
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		for i := 400; i < n; i++ {
			dec, err := rec.Submit(jobs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !online.SameDecision(dec, refDecs[i]) {
				t.Fatalf("post-restore job %d: %+v, reference %+v", i, dec, refDecs[i])
			}
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		if err := rec.VerifyReplay(); err != nil {
			t.Fatal(err)
		}
		if got, want := rec.AcceptedMass(), ref.AcceptedMass(); got != want {
			t.Fatalf("accepted mass %g, reference %g", got, want)
		}
	}
}

// TestDurabilityMetrics wires the observability contract: WAL and
// recovery metrics must report real work.
func TestDurabilityMetrics(t *testing.T) {
	const n, m, eps = 200, 2, 0.4
	jobs := workload.Poisson(workload.Spec{N: n, Eps: eps, M: m, Load: 2, Seed: 3})
	dir := t.TempDir()
	reg := obs.NewRegistry()
	svc, err := New(1, m, eps, WithDurability(dir), WithMetrics(reg), WithBatchSize(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := svc.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("serve_wal_records_total").Value(); got != n {
		t.Fatalf("serve_wal_records_total = %d, want %d", got, n)
	}
	if reg.Counter("serve_wal_bytes_total").Value() == 0 {
		t.Fatal("serve_wal_bytes_total stayed 0")
	}
	syncs := reg.Histogram("serve_wal_fsync_seconds", nil).Count()
	if syncs == 0 {
		t.Fatal("serve_wal_fsync_seconds observed nothing")
	}
	// One group-size sample per sync, and the groups add up to every record.
	groups := reg.Histogram("serve_wal_group_records", nil)
	if groups.Count() != syncs || groups.Sum() != n {
		t.Fatalf("serve_wal_group_records: %d groups of %v records in all, want %d groups of %d",
			groups.Count(), groups.Sum(), syncs, n)
	}

	reg2 := obs.NewRegistry()
	rec, err := Restore(dir, WithMetrics(reg2))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := reg2.Counter("serve_recovery_records_replayed").Value(); got != n {
		t.Fatalf("serve_recovery_records_replayed = %d, want %d", got, n)
	}
	if reg2.Gauge("serve_recovery_seconds").Value() <= 0 {
		t.Fatal("serve_recovery_seconds not set")
	}
}

// TestDurableFlushInterval exercises the fsync-rate cap end to end:
// concurrent submitters against a shard whose commits coalesce. The
// assertions are functional (everything acked, replay clean), never
// timing-based.
func TestDurableFlushInterval(t *testing.T) {
	const n, m, eps = 300, 3, 0.3
	jobs := workload.Poisson(workload.Spec{N: n, Eps: eps, M: m, Load: 2, Seed: 9})
	dir := t.TempDir()
	svc, err := New(1, m, eps, WithDurability(dir), WithDecisionLog(),
		WithFlushInterval(200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := w; i < n; i += 4 {
				if _, err := svc.Submit(jobs[i]); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.VerifyReplay(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableDirRefusedWhenInitialized pins the New/Restore split: New
// must never clobber an existing durable directory.
func TestDurableDirRefusedWhenInitialized(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(1, 2, 0.5, WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(1, 2, 0.5, WithDurability(dir)); err == nil {
		t.Fatal("New re-initialized an existing durable directory")
	}
}

// TestRestoreRequiresManifest pins the inverse: Restore on a directory
// New never initialized fails loudly.
func TestRestoreRequiresManifest(t *testing.T) {
	if _, err := Restore(t.TempDir()); err == nil {
		t.Fatal("Restore succeeded without a manifest")
	}
}

// TestCheckpointWithoutDurability pins ErrNotDurable.
func TestCheckpointWithoutDurability(t *testing.T) {
	svc, err := New(1, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint = %v, want ErrNotDurable", err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
