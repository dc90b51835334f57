// Package wal implements the per-shard write-ahead commitment log that
// makes the serving layer's admission decisions crash-durable.
//
// The paper's model is irrevocable commitment: the moment Algorithm 1
// returns an acceptance, the (machine, start-time) promise must be kept —
// including across a process crash. The WAL enforces the standard
// contract that makes this possible: every decision is appended and
// fsynced *before* its verdict is released to the caller, so any verdict
// a client has observed is durably recorded, and recovery (package serve)
// rebuilds the exact scheduler state by replaying the log through the
// deterministic core.
//
// # On-disk format
//
// A log is a sequence of length-prefixed, checksummed records:
//
//	[4B little-endian payload length][4B CRC32-C of payload][payload]
//
// The payload encodes one decision: a type tag, a strictly increasing
// sequence number, the effective (shard-clamped) job (r, p, d as raw
// float64 bits) and the verdict (a flags byte whose only defined bit is
// "accepted", machine, committed start time). Raw bits round-trip floats
// exactly, so a replayed stream is bit-identical to the served one. The
// reader accepts the longest valid prefix and reports where and why it
// stopped (Tail), which is exactly the crash-recovery contract: a torn
// final write — short header, short payload, or checksum mismatch — only
// ever destroys records whose verdicts were never released.
//
// The file may extend past the last record with zero bytes: the writer
// preallocates (see below), and a zero header can never start a record
// (its length field would be 0). Zeros from a record boundary to the end
// of the file are therefore the clean end of the log; any nonzero byte
// after that boundary makes the tail torn. Logs without a zero tail read
// exactly as before, and a reader that predates preallocation sees the
// zero tail as torn and truncates it, which loses nothing.
//
// # Group commit
//
// Append only buffers; Commit makes everything buffered durable with a
// single write+sync. The serving layer appends a whole drained batch and
// commits once before replying, so the sync cost amortizes over the
// batch. A configurable FlushInterval additionally caps the sync rate:
// when the previous sync is more recent than the interval, Commit waits
// out the remainder, during which the shard's queue backs up and the next
// batch — the next commit group — grows.
//
// Groups only grow if the goroutines that feed the queues get to run
// while a sync is in flight. A goroutine blocked in a file sync keeps its
// P (one of the runtime's GOMAXPROCS scheduler slots) until the runtime's
// monitor thread retakes it, 20 µs to 10 ms later; with as many syncing
// shards as Ps, nothing else runs and every group holds about one record.
// So every blocking sync in this package — Commit's write+sync, Rotate,
// OpenAppend, WriteFileAtomic and the directory syncs — takes one of
// max(1, GOMAXPROCS−1) process-wide sync slots, and waits for one without
// holding a P. One P always stays free to feed the shards. Commit's
// FlushInterval wait happens before it takes a slot.
//
// On Linux each sync is also cheaper: Commit grows the file with
// fallocate in 64 KiB steps when a group needs room, writes the group
// into that zero-filled space and syncs it with fdatasync, which skips
// the inode updates a plain append would force. Where fallocate is
// unsupported, Commit appends and fsyncs.
//
// # Fault injection
//
// CrashPlan models a process crash at a deterministic kill-point: the
// Nth arrival at a chosen site in the append/flush/checkpoint paths,
// optionally with a torn write (a prefix of the pending bytes reaches
// the file, the rest — and the fsync — are lost). After the plan fires,
// every operation on every writer sharing the plan fails with
// ErrCrashed, mimicking whole-process death. The serve crash harness
// drives recovery-equivalence tests through it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/online"
)

// Record is one logged decision: the effective job a shard submitted to
// its core scheduler and the irrevocable verdict it received, tagged with
// the shard-local sequence number.
type Record struct {
	Seq      int64
	Job      job.Job
	Decision online.Decision
}

const (
	recordType     = 1
	payloadLen     = 1 + 8 + 8 + 3*8 + 1 + 8 + 8 // type, seq, id, r/p/d, flags, machine, start
	headerLen      = 8                           // length + CRC
	recordLen      = headerLen + payloadLen
	acceptedFlag   = 1       // the only defined bit of the flags byte
	maxSanePayload = 1 << 20 // corrupt length fields fail fast
	fileMode       = 0o644
	preallocStep   = 64 << 10 // Commit grows the file in steps of this many bytes
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRecord encodes r onto dst.
func appendRecord(dst []byte, r Record) []byte {
	var p [payloadLen]byte
	p[0] = recordType
	binary.LittleEndian.PutUint64(p[1:], uint64(r.Seq))
	binary.LittleEndian.PutUint64(p[9:], uint64(int64(r.Job.ID)))
	binary.LittleEndian.PutUint64(p[17:], math.Float64bits(r.Job.Release))
	binary.LittleEndian.PutUint64(p[25:], math.Float64bits(r.Job.Proc))
	binary.LittleEndian.PutUint64(p[33:], math.Float64bits(r.Job.Deadline))
	if r.Decision.Accepted {
		p[41] = acceptedFlag
	}
	binary.LittleEndian.PutUint64(p[42:], uint64(int64(r.Decision.Machine)))
	binary.LittleEndian.PutUint64(p[50:], math.Float64bits(r.Decision.Start))

	var h [headerLen]byte
	binary.LittleEndian.PutUint32(h[0:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(h[4:], crc32.Checksum(p[:], castagnoli))
	dst = append(dst, h[:]...)
	return append(dst, p[:]...)
}

// decodePayload decodes one checksummed payload.
func decodePayload(p []byte) (Record, error) {
	if len(p) != payloadLen {
		return Record{}, fmt.Errorf("wal: payload length %d, want %d", len(p), payloadLen)
	}
	if p[0] != recordType {
		return Record{}, fmt.Errorf("wal: unknown record type %d", p[0])
	}
	var r Record
	r.Seq = int64(binary.LittleEndian.Uint64(p[1:]))
	r.Job.ID = int(int64(binary.LittleEndian.Uint64(p[9:])))
	r.Job.Release = math.Float64frombits(binary.LittleEndian.Uint64(p[17:]))
	r.Job.Proc = math.Float64frombits(binary.LittleEndian.Uint64(p[25:]))
	r.Job.Deadline = math.Float64frombits(binary.LittleEndian.Uint64(p[33:]))
	if p[41]&^acceptedFlag != 0 {
		return Record{}, fmt.Errorf("wal: unknown flags %#x", p[41])
	}
	r.Decision.JobID = r.Job.ID
	r.Decision.Accepted = p[41]&acceptedFlag != 0
	r.Decision.Machine = int(int64(binary.LittleEndian.Uint64(p[42:])))
	r.Decision.Start = math.Float64frombits(binary.LittleEndian.Uint64(p[50:]))
	return r, nil
}

// Tail describes where a log's valid prefix ends.
type Tail struct {
	// Offset is the byte offset just past the last valid record — the
	// truncation point for reopening the log in append mode.
	Offset int64
	// Clean is true when the log ends at a record boundary, possibly
	// followed by zero bytes only (preallocated space).
	Clean bool
	// Reason explains a non-clean tail (torn header, torn payload,
	// checksum mismatch, bad length, sequence gap).
	Reason string
}

// DecodeAll decodes the longest valid record prefix of b. Records must
// carry strictly consecutive sequence numbers; the first violation — like
// any torn or corrupt data — ends the valid prefix. A record boundary
// followed only by zero bytes is the clean end of the log. A non-clean
// tail is not an error: it is the expected shape of a log cut by a crash.
func DecodeAll(b []byte) ([]Record, Tail) {
	var recs []Record
	off := int64(0)
	for {
		rest := b[off:]
		if allZero(rest) {
			return recs, Tail{Offset: off, Clean: true}
		}
		if len(rest) < headerLen {
			return recs, Tail{Offset: off, Reason: "torn header"}
		}
		n := binary.LittleEndian.Uint32(rest[0:])
		if n != payloadLen || n > maxSanePayload {
			return recs, Tail{Offset: off, Reason: fmt.Sprintf("bad length %d", n)}
		}
		if len(rest) < headerLen+int(n) {
			return recs, Tail{Offset: off, Reason: "torn payload"}
		}
		p := rest[headerLen : headerLen+int(n)]
		if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			return recs, Tail{Offset: off, Reason: "checksum mismatch"}
		}
		rec, err := decodePayload(p)
		if err != nil {
			return recs, Tail{Offset: off, Reason: err.Error()}
		}
		if len(recs) > 0 && rec.Seq != recs[len(recs)-1].Seq+1 {
			return recs, Tail{Offset: off, Reason: fmt.Sprintf("sequence gap: %d after %d",
				rec.Seq, recs[len(recs)-1].Seq)}
		}
		recs = append(recs, rec)
		off += int64(headerLen + int(n))
	}
}

// allZero reports whether every byte of b is zero. It stops at the first
// nonzero word, so the check costs one load at each record boundary.
func allZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// ReadLog reads and decodes the log at path. A missing file is not an
// error: it returns no records and a clean tail at offset 0, the genesis
// state of a shard that never committed anything.
func ReadLog(path string) ([]Record, Tail, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, Tail{Clean: true}, nil
	}
	if err != nil {
		return nil, Tail{}, fmt.Errorf("wal: read %s: %w", path, err)
	}
	recs, tail := DecodeAll(b)
	return recs, tail, nil
}

// --- Fault injection -----------------------------------------------------

// KillPoint names a deterministic crash-injection site.
type KillPoint int

const (
	// KillBeforeAppend crashes in the submit path, before the decision
	// is buffered: the core has decided, nothing reaches the log.
	KillBeforeAppend KillPoint = iota + 1
	// KillBeforeSync crashes in the flush path before any byte of the
	// pending group reaches the file.
	KillBeforeSync
	// KillMidSync models a torn write: TornBytes of the pending group
	// reach the file, the fsync never happens.
	KillMidSync
	// KillAfterSync crashes after the group is durable but before the
	// verdicts are released: recovery sees decisions no caller ever did.
	KillAfterSync
	// KillBeforeSnapshotRename crashes a checkpoint after the temp
	// snapshot is written but before it is atomically installed.
	KillBeforeSnapshotRename
	// KillAfterSnapshotRename crashes a checkpoint after the snapshot is
	// installed but before the log is rotated: the log still holds
	// records the snapshot already covers.
	KillAfterSnapshotRename
)

func (p KillPoint) String() string {
	switch p {
	case KillBeforeAppend:
		return "before-append"
	case KillBeforeSync:
		return "before-sync"
	case KillMidSync:
		return "mid-sync"
	case KillAfterSync:
		return "after-sync"
	case KillBeforeSnapshotRename:
		return "before-snapshot-rename"
	case KillAfterSnapshotRename:
		return "after-snapshot-rename"
	default:
		return fmt.Sprintf("KillPoint(%d)", int(p))
	}
}

// ErrCrashed is returned by every operation after an injected crash
// fired: the process is modeled as dead, nothing durable happens anymore.
var ErrCrashed = errors.New("wal: injected crash")

// CrashPlan is a deterministic fault-injection schedule: the plan fires
// on the (After+1)-th arrival at Point, and from then on every writer
// and checkpoint sharing the plan is dead (whole-process semantics).
// A nil plan never fires. Safe for concurrent use.
type CrashPlan struct {
	Point KillPoint
	// After is the number of arrivals at Point to survive before firing.
	After int
	// TornBytes is, for KillMidSync, how many bytes of the pending group
	// reach the file before the crash.
	TornBytes int

	mu      sync.Mutex
	hits    int
	crashed bool
}

// Fire records an arrival at point and reports whether the plan (now)
// fires. Once fired, Fire returns true for every point: a crashed
// process performs no further durable work.
func (p *CrashPlan) Fire(point KillPoint) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return true
	}
	if point != p.Point {
		return false
	}
	p.hits++
	if p.hits > p.After {
		p.crashed = true
		return true
	}
	return false
}

// Crashed reports whether the plan has fired.
func (p *CrashPlan) Crashed() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed
}

// --- Writer --------------------------------------------------------------

// Options configures a Writer.
type Options struct {
	// FlushInterval caps the sync rate (see the package comment).
	// 0 syncs on every Commit.
	FlushInterval time.Duration
	// OnSync observes every completed Commit sync: the records and bytes
	// made durable and the write+sync wall time, excluding the wait for a
	// sync slot. Used by the serving layer's WAL metrics. May be nil.
	OnSync func(records, bytes int, d time.Duration)
	// SyncHook runs inside the sync slot at the start of every Commit
	// sync. Test hook: it lets a test count the goroutines inside a sync
	// or hold one open. nil in production.
	SyncHook func()
	// Crash is the fault-injection schedule. nil runs normally.
	Crash *CrashPlan
}

// Writer is a single-writer append log. Exactly one goroutine — the
// owning shard — may call Append/Commit/Rotate/Close; that is the same
// single-writer discipline the shard already imposes on its scheduler.
type Writer struct {
	f       *os.File
	opt     Options
	buf     []byte // encoded records not yet durable
	records int    // records in buf
	nextSeq int64
	synced  int64 // bytes durably written and synced: the end of the log
	// size is the file size: synced plus the zero-filled preallocated
	// space after it. Only tracked while prealloc is on.
	size     int64
	prealloc bool // grow with fallocate and sync with fdatasync
	last     time.Time
	err      error // sticky: after any failure the writer refuses all work
}

// Create creates (or truncates) a fresh log at path and fsyncs the
// parent directory so the file itself survives a crash.
func Create(path string, opt Options) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, fileMode)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, opt: opt, nextSeq: 1, prealloc: canPrealloc}, nil
}

// OpenAppend reopens a recovered log for appending: it truncates the
// torn tail (or the preallocated zeros) at validLen — dropping bytes no
// verdict was ever released for — and continues the sequence at nextSeq.
func OpenAppend(path string, validLen, nextSeq int64, opt Options) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, fileMode)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	err = withSyncSlot(func() error {
		if err := f.Truncate(validLen); err != nil {
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("wal: sync after truncate: %w", err)
		}
		return nil
	})
	if err == nil {
		_, err = f.Seek(validLen, 0)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, opt: opt, nextSeq: nextSeq, synced: validLen, size: validLen, prealloc: canPrealloc}, nil
}

// NextSeq returns the sequence number the next Append will use.
func (w *Writer) NextSeq() int64 { return w.nextSeq }

// SyncedBytes returns how many bytes of the log are durably on disk
// (torn mid-sync bytes excluded).
func (w *Writer) SyncedBytes() int64 { return w.synced }

// Err returns the sticky error, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return err
}

// Append buffers one decision record and returns its sequence number.
// Nothing is durable until Commit returns nil.
func (w *Writer) Append(j job.Job, dec online.Decision) (int64, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.opt.Crash.Fire(KillBeforeAppend) {
		return 0, w.fail(ErrCrashed)
	}
	seq := w.nextSeq
	w.buf = appendRecord(w.buf, Record{Seq: seq, Job: j, Decision: dec})
	w.records++
	w.nextSeq++
	return seq, nil
}

// Commit makes every buffered record durable: one write, one sync, in
// one of the process-wide sync slots. Under a FlushInterval it first
// waits out the remainder of the interval since the previous sync,
// growing the next group instead of syncing per tiny batch. On return
// with nil, every previously appended record will survive a crash; on
// error, none of the still-buffered records were promised to anyone and
// the writer is poisoned.
func (w *Writer) Commit() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	if w.opt.Crash.Fire(KillBeforeSync) {
		return w.fail(ErrCrashed)
	}
	if iv := w.opt.FlushInterval; iv > 0 && !w.last.IsZero() {
		if wait := iv - time.Since(w.last); wait > 0 {
			time.Sleep(wait)
		}
	}
	d, err := w.writeBuf()
	if err != nil {
		return w.fail(err)
	}
	records, n := w.records, len(w.buf)
	w.synced += int64(n)
	w.buf = w.buf[:0]
	w.records = 0
	w.last = time.Now()
	if w.opt.OnSync != nil {
		w.opt.OnSync(records, n, d)
	}
	if w.opt.Crash.Fire(KillAfterSync) {
		return w.fail(ErrCrashed)
	}
	return nil
}

// writeBuf writes the buffered records at the end of the log and syncs
// them in a sync slot, returning the time the write and sync took.
func (w *Writer) writeBuf() (time.Duration, error) {
	syncSlots.acquire()
	defer syncSlots.release()
	if w.opt.SyncHook != nil {
		w.opt.SyncHook()
	}
	start := time.Now()
	if err := w.reserve(int64(len(w.buf))); err != nil {
		return 0, err
	}
	if w.opt.Crash.Fire(KillMidSync) {
		if n := min(w.opt.Crash.TornBytes, len(w.buf)); n > 0 {
			w.f.Write(w.buf[:n]) // torn write: reaches the file, never synced
		}
		return 0, ErrCrashed
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return 0, fmt.Errorf("wal: write: %w", err)
	}
	sync := (*os.File).Sync
	if w.prealloc {
		sync = fdatasync
	}
	if err := sync(w.f); err != nil {
		return 0, fmt.Errorf("wal: sync: %w", err)
	}
	return time.Since(start), nil
}

// reserve makes room for n more bytes after the log, growing the file
// by whole preallocStep steps of zeros when the preallocated space is
// short. The first fdatasync after the growth makes the new size
// durable. A file system without fallocate turns preallocation off for
// the writer: Commit then appends and fsyncs.
func (w *Writer) reserve(n int64) error {
	short := w.synced + n - w.size
	if !w.prealloc || short <= 0 {
		return nil
	}
	grow := (short + preallocStep - 1) / preallocStep * preallocStep
	err := fallocate(w.f, w.size, grow)
	if errors.Is(err, errors.ErrUnsupported) {
		w.prealloc = false
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: preallocate: %w", err)
	}
	w.size += grow
	return nil
}

// Rotate truncates the log after a checkpoint: every record is covered
// by the freshly installed snapshot, so the file restarts empty while
// the sequence keeps counting (recovery matches snapshot.LastSeq against
// record sequences, so a crash between snapshot install and rotation is
// harmless — covered records are skipped, not replayed twice). The
// rotated file is empty; the next Commit preallocates again.
func (w *Writer) Rotate() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) != 0 {
		return w.fail(errors.New("wal: rotate with uncommitted records"))
	}
	err := withSyncSlot(func() error {
		if err := w.f.Truncate(0); err != nil {
			return fmt.Errorf("wal: rotate: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal: rotate fsync: %w", err)
		}
		return nil
	})
	if err != nil {
		return w.fail(err)
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return w.fail(fmt.Errorf("wal: rotate seek: %w", err))
	}
	w.synced, w.size = 0, 0
	return nil
}

// Close closes the underlying file. Buffered but uncommitted records are
// deliberately dropped: no verdict was ever released for them. A healthy
// writer first cuts the preallocated zeros off, so a cleanly closed log
// ends at its last record, as logs written without preallocation do and
// as Restore reads fastest. The cut is not synced: if it is lost, the
// zeros still read as a clean end. After a crash (of this writer or of
// its CrashPlan) the file stays as the crash left it.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	var err error
	if w.err == nil && !w.opt.Crash.Crashed() && w.size > w.synced {
		err = w.f.Truncate(w.synced)
	}
	err = errors.Join(err, w.f.Close())
	w.f = nil
	return err
}

// WriteFileAtomic writes blob to path via a temp file, fsync and rename,
// then fsyncs the directory — the standard crash-safe file install used
// for shard snapshots and the service manifest. The crash plan's
// KillBeforeSnapshotRename point sits between the durable temp write and
// the rename; a crash there leaves the previous file (or none) installed
// plus a stray temp file, exactly like a real process death would.
func WriteFileAtomic(path string, blob []byte, plan *CrashPlan) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = withSyncSlot(func() error {
		if _, err := tmp.Write(blob); err != nil {
			return err
		}
		return tmp.Sync()
	})
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if plan.Fire(KillBeforeSnapshotRename) {
		return ErrCrashed // the stray temp file stays, as after a real crash
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return withSyncSlot(d.Sync)
}
