package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"loadmax/internal/online"
	"loadmax/internal/policy"
	"loadmax/internal/wal"
)

// On-disk layout of a durable service:
//
//	dir/
//	  manifest.json          topology: shard count, machines, ε
//	  shard-0000/
//	    snapshot.json        latest checkpoint (absent before the first)
//	    wal.log              commitment log tail since that checkpoint
//	  shard-0001/ ...
const (
	manifestSchema = 1
	// snapshotSchema 2 replaced the raw core.State snapshot with the
	// policy-stamped envelope (schema 1 predates pluggable admission).
	snapshotSchema = 2
	manifestName   = "manifest.json"
	snapshotName   = "snapshot.json"
	walName        = "wal.log"
	dirMode        = 0o755
)

// manifest records the service topology so Restore needs nothing but the
// directory. Topology — the admission policy included — is immutable for
// the life of a durable directory: decisions are only replayable onto
// the exact (shards, m, ε, policy) that made them.
type manifest struct {
	Schema int     `json:"schema_version"`
	Shards int     `json:"shards"`
	M      int     `json:"machines"`
	Eps    float64 `json:"eps"`
	// Policy is the canonical admission-policy spec; empty in manifests
	// written before pluggable admission, which always meant Threshold.
	Policy string `json:"policy,omitempty"`
}

// shardCheckpoint is one shard's snapshot file: the scheduler state —
// stamped with the policy spec that produced it — plus the serving
// counters, and the log sequence it covers. Records with Seq ≤ LastSeq
// are already folded into State; recovery replays only the rest.
type shardCheckpoint struct {
	Schema       int          `json:"schema_version"`
	Shard        int          `json:"shard"`
	LastSeq      int64        `json:"last_seq"`
	State        policy.State `json:"policy_state"`
	Submitted    int64        `json:"submitted"`
	Accepted     int64        `json:"accepted"`
	Rejected     int64        `json:"rejected"`
	Batches      int64        `json:"batches"`
	AcceptedMass float64      `json:"accepted_mass"`
}

func shardDir(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d", id))
}

// walOptions builds the per-shard WAL configuration, routing sync
// telemetry into the service metrics.
func (s *Service) walOptions(cfg *config) wal.Options {
	return wal.Options{
		FlushInterval: cfg.flushInterval,
		Crash:         cfg.crash,
		SyncHook:      cfg.syncHook,
		OnSync: func(records, bytes int, d time.Duration) {
			s.fsyncHist.Observe(d.Seconds())
			s.groupHist.Observe(float64(records))
			s.walBytes.Add(int64(bytes))
		},
	}
}

// initDurable initializes a fresh durable directory: manifest plus one
// empty commitment log per shard. A directory that already holds a
// manifest belongs to a previous service and is refused — overwriting it
// would orphan that service's commitments; Restore is the way back in.
func (s *Service) initDurable(cfg *config) error {
	if err := os.MkdirAll(cfg.durDir, dirMode); err != nil {
		return fmt.Errorf("serve: durability dir: %w", err)
	}
	mfPath := filepath.Join(cfg.durDir, manifestName)
	if _, err := os.Stat(mfPath); err == nil {
		return fmt.Errorf("serve: %s already holds a durable service (manifest present); use Restore", cfg.durDir)
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("serve: durability dir: %w", err)
	}
	blob, err := json.Marshal(manifest{
		Schema: manifestSchema, Shards: len(s.shards), M: s.m, Eps: s.eps,
		Policy: s.admission.Spec,
	})
	if err != nil {
		return err
	}
	if err := wal.WriteFileAtomic(mfPath, blob, nil); err != nil {
		return fmt.Errorf("serve: write manifest: %w", err)
	}
	opts := s.walOptions(cfg)
	for _, sh := range s.shards {
		d := shardDir(cfg.durDir, sh.id)
		if err := os.MkdirAll(d, dirMode); err != nil {
			return fmt.Errorf("serve: shard %d dir: %w", sh.id, err)
		}
		sh.snapPath = filepath.Join(d, snapshotName)
		sh.plan = cfg.crash
		w, err := wal.Create(filepath.Join(d, walName), opts)
		if err != nil {
			return fmt.Errorf("serve: shard %d: %w", sh.id, err)
		}
		sh.wal = w
	}
	return nil
}

// checkpoint writes the shard's snapshot atomically and truncates its
// log. Only the shard goroutine calls it, with the WAL fully committed
// and the counters published (see process). The crash-ordering
// obligations are carried by the building blocks: WriteFileAtomic
// installs the snapshot atomically, and a crash between install and
// Rotate merely leaves covered records in the log, which recovery skips
// by sequence number.
func (sh *shard) checkpoint() error {
	if sh.wal == nil {
		return ErrNotDurable
	}
	if sh.walErr != nil {
		return sh.walErr
	}
	st, err := sh.th.ExportState()
	if err != nil {
		sh.walErr = fmt.Errorf("serve: shard %d checkpoint: %w", sh.id, err)
		return sh.walErr
	}
	ck := shardCheckpoint{
		Schema:       snapshotSchema,
		Shard:        sh.id,
		LastSeq:      sh.wal.NextSeq() - 1,
		State:        st,
		Submitted:    sh.submitted.Load(),
		Accepted:     sh.accepted.Load(),
		Rejected:     sh.rejected.Load(),
		Batches:      sh.batches.Load(),
		AcceptedMass: math.Float64frombits(sh.acceptedMassBits.Load()),
	}
	blob, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	if err := wal.WriteFileAtomic(sh.snapPath, blob, sh.plan); err != nil {
		sh.walErr = fmt.Errorf("serve: shard %d checkpoint: %w", sh.id, err)
		return sh.walErr
	}
	if sh.plan.Fire(wal.KillAfterSnapshotRename) {
		sh.walErr = fmt.Errorf("serve: shard %d checkpoint: %w", sh.id, wal.ErrCrashed)
		return sh.walErr
	}
	if err := sh.wal.Rotate(); err != nil {
		sh.walErr = fmt.Errorf("serve: shard %d checkpoint: %w", sh.id, err)
		return sh.walErr
	}
	return nil
}

// Restore rebuilds a durable Service from dir: per shard, the latest
// snapshot (if any) is imported into a fresh scheduler and the log tail
// is replayed through it, with every replayed decision verified against
// the logged one — the deterministic core recomputes exactly what it
// decided before, so any mismatch means the files are corrupt or
// mismatched and recovery refuses to continue. Torn trailing bytes (a
// crash mid-write) are truncated; they can only belong to decisions
// whose verdicts were never released.
//
// Topology (shards, machines, ε) and the admission policy come from the
// manifest; opts carries the rest of the configuration (routing,
// batching, metrics, decision log, flush interval). Passing
// WithAdmissionPolicy is allowed only as an assertion: a builder whose
// spec differs from the manifest's fails loudly, because replaying one
// policy's commitment log through another would silently re-decide it.
// The restored service resumes appending to the recovered logs.
func Restore(dir string, opts ...Option) (*Service, error) {
	start := time.Now()
	blob, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("serve: restore %s: %w", dir, err)
	}
	var mf manifest
	if err := json.Unmarshal(blob, &mf); err != nil {
		return nil, fmt.Errorf("serve: restore %s: manifest: %w", dir, err)
	}
	if mf.Schema != manifestSchema {
		return nil, fmt.Errorf("serve: restore %s: manifest schema %d, want %d", dir, mf.Schema, manifestSchema)
	}
	if mf.Policy == "" {
		mf.Policy = policy.SpecThreshold // pre-arena manifests were always Threshold
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.admission.New != nil && cfg.admission.Spec != mf.Policy {
		return nil, fmt.Errorf("serve: restore %s: directory was written under policy %q, caller asked for %q",
			dir, mf.Policy, cfg.admission.Spec)
	}
	if cfg.admission.New == nil {
		b, err := policy.Parse(mf.Policy)
		if err != nil {
			return nil, fmt.Errorf("serve: restore %s: manifest policy: %w", dir, err)
		}
		cfg.admission = b
	}
	cfg.durDir = dir
	s, err := build(mf.Shards, mf.M, mf.Eps, &cfg)
	if err != nil {
		return nil, err
	}
	var replayed int64
	for _, sh := range s.shards {
		n, err := s.recoverShard(sh, &cfg)
		if err != nil {
			return nil, err
		}
		replayed += n
	}
	cfg.reg.Counter("serve_recovery_records_replayed").Add(replayed)
	cfg.reg.Gauge("serve_recovery_seconds").Set(time.Since(start).Seconds())
	s.start()
	return s, nil
}

// recoverShard rebuilds one shard: snapshot import, verified log replay,
// counter restoration, and a writer reopened past the valid tail. It
// runs before the shard goroutine starts, so plain stores are safe.
func (s *Service) recoverShard(sh *shard, cfg *config) (replayed int64, err error) {
	d := shardDir(cfg.durDir, sh.id)
	sh.snapPath = filepath.Join(d, snapshotName)
	sh.plan = cfg.crash
	walPath := filepath.Join(d, walName)

	var lastSeq int64 // highest sequence folded into the snapshot
	blob, err := os.ReadFile(sh.snapPath)
	switch {
	case err == nil:
		var ck shardCheckpoint
		if err := json.Unmarshal(blob, &ck); err != nil {
			return 0, fmt.Errorf("serve: shard %d snapshot: %w", sh.id, err)
		}
		if ck.Schema != snapshotSchema {
			return 0, fmt.Errorf("serve: shard %d snapshot schema %d, want %d", sh.id, ck.Schema, snapshotSchema)
		}
		if ck.Shard != sh.id {
			return 0, fmt.Errorf("serve: shard %d snapshot claims shard %d", sh.id, ck.Shard)
		}
		if err := sh.th.ImportState(ck.State); err != nil {
			return 0, fmt.Errorf("serve: shard %d snapshot: %w", sh.id, err)
		}
		st := ck.State
		sh.base = &st
		sh.baseMass = ck.AcceptedMass
		sh.submitted.Store(ck.Submitted)
		sh.accepted.Store(ck.Accepted)
		sh.rejected.Store(ck.Rejected)
		sh.batches.Store(ck.Batches)
		sh.acceptedMassBits.Store(math.Float64bits(ck.AcceptedMass))
		lastSeq = ck.LastSeq
	case errors.Is(err, os.ErrNotExist):
		// No checkpoint yet: the log tells the whole story.
	default:
		return 0, fmt.Errorf("serve: shard %d snapshot: %w", sh.id, err)
	}

	recs, tail, err := wal.ReadLog(walPath)
	if err != nil {
		return 0, fmt.Errorf("serve: shard %d: %w", sh.id, err)
	}
	mass := math.Float64frombits(sh.acceptedMassBits.Load())
	var submitted, accepted, rejected int64
	expect := lastSeq + 1
	maxSeq := lastSeq
	for _, rec := range recs {
		if rec.Seq <= lastSeq {
			// Covered by the snapshot: a crash landed between snapshot
			// install and log rotation. Skip, never replay twice.
			continue
		}
		if rec.Seq != expect {
			return 0, fmt.Errorf("serve: shard %d log jumps from seq %d to %d: records missing",
				sh.id, expect-1, rec.Seq)
		}
		expect++
		maxSeq = rec.Seq
		dec := sh.th.Submit(rec.Job)
		if !online.SameDecision(dec, rec.Decision) {
			return 0, fmt.Errorf("serve: shard %d replay diverged at seq %d (%+v): logged %+v, recomputed %+v — log and snapshot are inconsistent",
				sh.id, rec.Seq, rec.Job, rec.Decision, dec)
		}
		submitted++
		if dec.Accepted {
			accepted++
			mass += rec.Job.Proc
		} else {
			rejected++
		}
		if sh.log != nil {
			sh.log.append(rec.Job, rec.Decision)
		}
		replayed++
	}
	sh.submitted.Add(submitted)
	sh.accepted.Add(accepted)
	sh.rejected.Add(rejected)
	sh.acceptedMassBits.Store(math.Float64bits(mass))
	sh.outstandingBits.Store(math.Float64bits(sh.th.TotalLoad()))

	w, err := wal.OpenAppend(walPath, tail.Offset, maxSeq+1, s.walOptions(cfg))
	if err != nil {
		return 0, fmt.Errorf("serve: shard %d: %w", sh.id, err)
	}
	sh.wal = w
	sh.walSeq.Store(maxSeq)
	return replayed, nil
}
