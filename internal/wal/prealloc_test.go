package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// commitRecords appends records next..next+n-1 as one group and commits.
func commitRecords(t *testing.T, w *Writer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		r := rec(w.NextSeq(), i%2 == 0)
		if _, err := w.Append(r.Job, r.Decision); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

func sizeOf(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestPreallocatedLog pins the preallocated layout: Create and OpenAppend
// leave the file at the log's length, the first Commit that needs room
// grows it by whole 64 KiB steps, and the zero-filled space after the
// last record reads as a clean end.
func TestPreallocatedLog(t *testing.T) {
	if !canPrealloc {
		t.Skip("no fallocate on this platform: Commit appends")
	}
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sizeOf(t, path); got != 0 {
		t.Fatalf("fresh log is %d bytes, want 0", got)
	}
	commitRecords(t, w, 3)
	if !w.prealloc {
		t.Skip("the file system under the test directory refuses fallocate")
	}
	if got := sizeOf(t, path); got != preallocStep {
		t.Fatalf("after one group the file is %d bytes, want one %d-byte step", got, preallocStep)
	}
	// A group bigger than a step grows the file by as many steps as it needs.
	big := 2*preallocStep/recordLen + 1
	commitRecords(t, w, big)
	end := int64((3 + big) * recordLen)
	if got, want := sizeOf(t, path), int64(3*preallocStep); got != want {
		t.Fatalf("after %d bytes of records the file is %d bytes, want %d", end, got, want)
	}
	if w.SyncedBytes() != end {
		t.Fatalf("synced %d bytes, want %d", w.SyncedBytes(), end)
	}
	// What a crash leaves: the records, then zeros up to the file size.
	recs, tail, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tail.Clean || tail.Offset != end || len(recs) != 3+big {
		t.Fatalf("read %d records, tail %+v; want %d records ending cleanly at %d", len(recs), tail, 3+big, end)
	}
	// A clean Close cuts the zeros off.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sizeOf(t, path); got != end {
		t.Fatalf("closed log is %d bytes, want %d", got, end)
	}

	// OpenAppend preallocates only when it commits.
	w, err = OpenAppend(path, tail.Offset, recs[len(recs)-1].Seq+1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	commitRecords(t, w, 1)
	if got, want := sizeOf(t, path), end+preallocStep; got != want {
		t.Fatalf("after a reopened commit the file is %d bytes, want %d", got, want)
	}
	// Rotate empties the file; the next group preallocates again.
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if got := sizeOf(t, path); got != 0 {
		t.Fatalf("rotated log is %d bytes, want 0", got)
	}
	commitRecords(t, w, 2)
	recs, tail, err = ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tail.Clean || tail.Offset != 2*recordLen || len(recs) != 2 || sizeOf(t, path) != preallocStep {
		t.Fatalf("rotated then extended: %d records, tail %+v, %d bytes", len(recs), tail, sizeOf(t, path))
	}
}

// TestCrashedWriterKeepsZeroTail pins the other side of Close: after an
// injected crash the file stays as the crash left it, zeros included,
// and still reads cleanly up to the last synced record.
func TestCrashedWriterKeepsZeroTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, Options{Crash: &CrashPlan{Point: KillAfterSync, After: 1}})
	if err != nil {
		t.Fatal(err)
	}
	commitRecords(t, w, 2)
	r := rec(w.NextSeq(), true)
	if _, err := w.Append(r.Job, r.Decision); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err == nil {
		t.Fatal("crash plan did not fire")
	}
	size := sizeOf(t, path)
	w.Close()
	if got := sizeOf(t, path); got != size {
		t.Fatalf("crashed writer's Close changed the file from %d to %d bytes", size, got)
	}
	if w.prealloc && size <= 3*recordLen {
		t.Fatalf("file is %d bytes: no preallocated space after the records", size)
	}
	recs, tail, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tail.Clean || len(recs) != 3 {
		t.Fatalf("read %d records, tail %+v; want 3 and a clean end", len(recs), tail)
	}
}

// TestZeroTail pins the reader's rule for the bytes after the last
// record: zeros only are a clean end, of any length; a nonzero byte
// anywhere after a record boundary makes the tail torn at that boundary.
func TestZeroTail(t *testing.T) {
	var log []byte
	for s := int64(1); s <= 3; s++ {
		log = appendRecord(log, rec(s, s != 2))
	}
	end := int64(len(log))
	for _, n := range []int{1, headerLen - 1, headerLen, recordLen, preallocStep} {
		b := append(append([]byte(nil), log...), make([]byte, n)...)
		recs, tail := DecodeAll(b)
		if len(recs) != 3 || !tail.Clean || tail.Offset != end {
			t.Fatalf("%d zero bytes: %d records, tail %+v", n, len(recs), tail)
		}
		for _, pos := range []int{0, headerLen - 1, headerLen, n - 1} {
			if pos < 0 || pos >= n {
				continue
			}
			mut := append([]byte(nil), b...)
			mut[int(end)+pos] = 0x01
			recs, tail := DecodeAll(mut)
			if len(recs) != 3 || tail.Clean || tail.Offset != end {
				t.Fatalf("%d zero bytes, byte %d set: %d records, tail %+v", n, pos, len(recs), tail)
			}
		}
	}
	// A record torn inside preallocated space is a torn tail, not a
	// clean end: its prefix reached the disk, the zeros after it did not.
	torn := appendRecord(nil, rec(4, true))
	for cut := 1; cut < recordLen; cut++ {
		b := append(append([]byte(nil), log...), torn[:cut]...)
		b = append(b, make([]byte, recordLen)...)
		recs, tail := DecodeAll(b)
		if len(recs) != 3 || tail.Clean || tail.Offset != end {
			t.Fatalf("record torn after %d bytes: %d records, tail %+v", cut, len(recs), tail)
		}
	}
}

// BenchmarkCommit times a one-record commit group on the preallocated
// fdatasync path and on the append+fsync path that file systems without
// fallocate take.
func BenchmarkCommit(b *testing.B) {
	for _, mode := range []struct {
		name     string
		prealloc bool
	}{{"preallocated", true}, {"append", false}} {
		b.Run(mode.name, func(b *testing.B) {
			if mode.prealloc && !canPrealloc {
				b.Skip("no fallocate on this platform")
			}
			w, err := Create(filepath.Join(b.TempDir(), "wal.log"), Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			w.prealloc = mode.prealloc
			r := rec(1, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Append(r.Job, r.Decision); err != nil {
					b.Fatal(err)
				}
				if err := w.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
