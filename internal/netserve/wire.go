// Package netserve puts a network front door on the serving stack: a
// length-prefixed binary wire protocol, a TCP server fronting
// serve.Service, and a pipelining client. It is the layer that turns the
// paper's immediate-commitment model into an admission RPC — a client
// submits (r, p, d) and receives an irrevocable accept-with-placement or
// reject over the wire.
//
// The network verdict is the binding commitment point: the server only
// writes a verdict after the service has decided, which under
// WithDurability means after the decision is fsynced to the shard's
// write-ahead commitment log. A client that has read an accept therefore
// holds a promise that survives a server crash.
//
// # Wire format
//
// Every frame is length-prefixed and checksummed, reusing the WAL's
// encoding discipline (little-endian fixed-width fields, raw float64
// bits for bit-exact round-trips):
//
//	[4B LE payload length][4B LE CRC32-C of payload][payload]
//
// payload[0] is the frame type. A connection opens with a version
// handshake — the client sends HELLO (magic, protocol version), the
// server answers HELLO-ACK (negotiated version, per-connection in-flight
// window, service topology) — and then carries pipelined SUBMIT-BATCH
// frames upstream and VERDICT-BATCH frames downstream, matched by
// request id, in whatever order decisions complete.
//
// Protocol version 3 has one submit frame and one verdict frame: a job
// is a batch of one. SUBMIT-BATCH packs 1 to MaxBatchJobs jobs behind a
// single header and CRC; the server answers with one VERDICT-BATCH
// echoing the request id, verdict i deciding job i positionally.
// Batching amortizes framing, shard handoff, fsync, and trace emission —
// but it is transport-only: the jobs are still decided one at a time in
// batch order, so the decision stream is bit-identical to the same jobs
// sent one per frame in that order (VerifyReplay holds with batching
// on). Version 2's one-job SUBMIT (type 3) and VERDICT (type 4) frames
// are gone; they are protocol errors like any unknown type, and a v2
// peer fails at HELLO.
//
// # Verdicts are not all equal
//
// A verdict carries one of four statuses, and the distinction matters:
//
//   - accept / reject are *algorithmic* answers from Algorithm 1 — both
//     irrevocable, both durable under WithDurability (rejects advance
//     the shard clock).
//   - shed is *overload protection*, not an algorithmic answer: the
//     server refused to even ask the scheduler (global in-flight cap hit
//     or the connection exceeded its window). The job was never
//     submitted, nothing was committed, and the client may retry.
//   - error reports a server-side failure (service closed, WAL
//     poisoned); the request was not decided.
//
// The client maps these onto (Decision, error) so algorithmic rejection
// (Accepted=false, err=nil) is never confused with transport or overload
// failure (ErrShed, ErrTimeout, *RemoteError, *TransportError).
package netserve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"loadmax/internal/job"
)

// ProtocolVersion is the wire protocol version this package speaks. The
// handshake fails closed on a mismatch: a v2 endpoint never guesses at
// v3 frames. Version 2 added the admission-policy spec to the HELLO ack
// so `loadmaxd -policy` and its clients can never silently disagree
// about which algorithm is deciding; version 3 dropped the one-job
// SUBMIT and VERDICT frames, leaving one submit and one verdict frame.
const ProtocolVersion = 3

// protocolMagic opens every HELLO frame ("LMX1"): a TCP client that is
// not speaking this protocol is rejected at the first frame.
const protocolMagic = 0x4C4D5831

// Frame types (payload[0]). Types 3 and 4 were version 2's one-job
// frames and are retired.
const (
	frameHello        = 1 // client → server: magic, version
	frameHelloAck     = 2 // server → client: version, window, topology
	frameSubmitBatch  = 5 // client → server: request id + N jobs (one header + CRC for all)
	frameVerdictBatch = 6 // server → client: request id + N verdicts, positional
)

// Verdict statuses.
const (
	statusAccept = 1 // algorithmic accept: machine + start committed
	statusReject = 2 // algorithmic reject: the scheduler said no
	statusShed   = 3 // overload: never submitted, retry later
	statusError  = 4 // server failure: message attached
)

const (
	wireHeaderLen = 8 // 4B length + 4B CRC32-C

	helloLen = 1 + 4 + 2 // type, magic, version
	// The hello-ack is the one variable-size handshake frame: the fixed
	// fields are followed by a length-prefixed policy spec string.
	helloAckMin  = 1 + 2 + 4 + 4 + 4 + 8 + 2 // type, version, window, shards, machines, eps, policy len
	maxPolicyLen = 1 << 8                    // policy specs are short by construction
	maxMsgLen    = 1 << 10                   // error messages are short by construction

	// Batch frames: one length-prefix + one CRC covers the whole batch.
	// Entries are positional — the verdict batch echoes the request id
	// and answers entry i of the submit batch with entry i, so per-job
	// ids are unnecessary on the wire.
	batchHdrLen      = 1 + 8 + 4     // type, request id, count
	batchSubEntryLen = 8 + 3*8       // job id, r/p/d
	batchVerEntryLen = 1 + 8 + 8 + 2 // status, machine, start, msg len

	// MaxBatchJobs caps the jobs one batch frame may carry; the client
	// chunks larger batches transparently. It bounds frame size (and the
	// allocation a corrupt length field can force) at ~1 MiB.
	MaxBatchJobs = 1024

	maxPayload = batchHdrLen + MaxBatchJobs*(batchVerEntryLen+maxMsgLen) // corrupt length fields fail fast
)

var wireCRC = crc32.MakeTable(crc32.Castagnoli)

// helloAck is the server's half of the handshake: the negotiated
// protocol version, the per-connection in-flight window the server will
// enforce, and the service topology — admission-policy spec included —
// so clients can introspect what they are talking to.
type helloAck struct {
	Version  uint16
	Window   uint32
	Shards   uint32
	Machines uint32
	Eps      float64
	Policy   string // canonical admission-policy spec (policy.Parse syntax)
}

// appendFrame wraps payload in the length+CRC header and appends the
// whole frame to dst. It suits the small fixed-size HELLO, whose payload
// already lives in a stack array; variable-size encoders build their
// payload directly in dst via beginFrame/sealFrame instead, so no
// intermediate payload slice is ever allocated.
func appendFrame(dst, payload []byte) []byte {
	var h [wireHeaderLen]byte
	binary.LittleEndian.PutUint32(h[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:], crc32.Checksum(payload, wireCRC))
	dst = append(dst, h[:]...)
	return append(dst, payload...)
}

// beginFrame reserves the 8-byte frame header at the end of dst and
// returns its offset. The caller appends the payload bytes directly to
// dst and then calls sealFrame with the same offset — encode-in-place,
// one buffer, zero intermediate allocations.
func beginFrame(dst []byte) ([]byte, int) {
	off := len(dst)
	var h [wireHeaderLen]byte
	return append(dst, h[:]...), off
}

// sealFrame backfills the length and CRC of everything appended after
// beginFrame's reservation at off.
func sealFrame(dst []byte, off int) []byte {
	payload := dst[off+wireHeaderLen:]
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[off+4:], crc32.Checksum(payload, wireCRC))
	return dst
}

// frameBuf is a pooled frame-encode scratch buffer for the reply and
// request hot paths, where per-frame `make([]byte)` churn used to
// dominate allocation profiles.
//
// Ownership rules (the whole contract, enforced by review and the
// 0-alloc guards in wire_bench_test.go):
//
//  1. Whoever gets a frameBuf owns it exclusively and encodes into b.
//  2. Ownership travels WITH the encoded bytes — e.g. from a worker
//     through the response queue to the connection writer.
//  3. The final writer releases the buffer only after the bytes are
//     handed to the socket/bufio layer (bufio.Writer copies on Write,
//     so release-after-write is safe even before the flush lands).
//  4. Nothing long-lived may retain b or a sub-slice of it — spans,
//     logs, and error values must copy what they need. A released
//     buffer is re-filled by an unrelated frame.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{
	New: func() any { return &frameBuf{b: make([]byte, 0, 512)} },
}

// getFrameBuf hands out an empty pooled buffer.
func getFrameBuf() *frameBuf { return framePool.Get().(*frameBuf) }

// release returns the buffer to the pool; the caller must not touch fb
// afterwards. Nil-safe so error paths can release unconditionally.
func (fb *frameBuf) release() {
	if fb == nil {
		return
	}
	fb.b = fb.b[:0]
	framePool.Put(fb)
}

// verdictSlices pools the client's verdict-batch decode slices at full
// MaxBatchJobs capacity, so decodeVerdictBatchInto never reallocates in
// steady state. The pool stores array pointers rather than boxed
// slices: putting a pointer into a sync.Pool is allocation-free, where
// re-boxing a slice header would cost one alloc per release. Same
// ownership discipline as frameBuf: the slice travels with the decoded
// frame, and whoever consumes the frame returns it via putVerdicts.
var verdictSlices = sync.Pool{
	New: func() any { return new([MaxBatchJobs]batchVerdict) },
}

func getVerdicts() []batchVerdict {
	return verdictSlices.Get().(*[MaxBatchJobs]batchVerdict)[:0]
}

// putVerdicts returns a verdict slice to the pool, clearing it first so
// pooled entries don't pin Msg strings and the next user finds zeroed
// entries. Only s[:len(s)] is cleared — a one-job reply must not pay for
// zeroing 1024 entries — so the caller hands the slice back at the
// length it wrote; entries past it are still zero from their last
// release. Slices that did not come from the pool (including nil) are
// dropped for the GC.
func putVerdicts(s []batchVerdict) {
	if cap(s) != MaxBatchJobs {
		return
	}
	clear(s)
	verdictSlices.Put((*[MaxBatchJobs]batchVerdict)(s[:MaxBatchJobs]))
}

// readFrame reads one frame and returns its verified payload. The
// returned slice is freshly allocated and safe to retain.
func readFrame(br *bufio.Reader) ([]byte, error) {
	// The header is read in place from the reader's buffer: a stack array
	// handed to io.ReadFull escapes through the io.Reader interface and
	// would cost an allocation per frame.
	h, err := br.Peek(wireHeaderLen)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(h[0:])
	sum := binary.LittleEndian.Uint32(h[4:])
	br.Discard(wireHeaderLen) //nolint:errcheck // the bytes are buffered: Peek just returned them
	if n == 0 || n > maxPayload {
		return nil, fmt.Errorf("netserve: frame length %d out of range", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, err
	}
	if crc32.Checksum(payload, wireCRC) != sum {
		return nil, fmt.Errorf("netserve: frame checksum mismatch")
	}
	return payload, nil
}

func appendHello(dst []byte) []byte {
	var p [helloLen]byte
	p[0] = frameHello
	binary.LittleEndian.PutUint32(p[1:], protocolMagic)
	binary.LittleEndian.PutUint16(p[5:], ProtocolVersion)
	return appendFrame(dst, p[:])
}

func decodeHello(p []byte) error {
	if len(p) != helloLen || p[0] != frameHello {
		return fmt.Errorf("netserve: malformed hello")
	}
	if m := binary.LittleEndian.Uint32(p[1:]); m != protocolMagic {
		return fmt.Errorf("netserve: bad magic %#x (not a loadmax client?)", m)
	}
	if v := binary.LittleEndian.Uint16(p[5:]); v != ProtocolVersion {
		return fmt.Errorf("netserve: protocol version %d, server speaks %d", v, ProtocolVersion)
	}
	return nil
}

func appendHelloAck(dst []byte, a helloAck) []byte {
	spec := a.Policy
	if len(spec) > maxPolicyLen {
		spec = spec[:maxPolicyLen]
	}
	dst, off := beginFrame(dst)
	var p [helloAckMin]byte
	p[0] = frameHelloAck
	binary.LittleEndian.PutUint16(p[1:], a.Version)
	binary.LittleEndian.PutUint32(p[3:], a.Window)
	binary.LittleEndian.PutUint32(p[7:], a.Shards)
	binary.LittleEndian.PutUint32(p[11:], a.Machines)
	binary.LittleEndian.PutUint64(p[15:], math.Float64bits(a.Eps))
	binary.LittleEndian.PutUint16(p[23:], uint16(len(spec)))
	dst = append(dst, p[:]...)
	dst = append(dst, spec...)
	return sealFrame(dst, off)
}

func decodeHelloAck(p []byte) (helloAck, error) {
	if len(p) < helloAckMin || p[0] != frameHelloAck {
		return helloAck{}, fmt.Errorf("netserve: malformed hello-ack")
	}
	a := helloAck{
		Version:  binary.LittleEndian.Uint16(p[1:]),
		Window:   binary.LittleEndian.Uint32(p[3:]),
		Shards:   binary.LittleEndian.Uint32(p[7:]),
		Machines: binary.LittleEndian.Uint32(p[11:]),
		Eps:      math.Float64frombits(binary.LittleEndian.Uint64(p[15:])),
	}
	if a.Version != ProtocolVersion {
		return helloAck{}, fmt.Errorf("netserve: server protocol version %d, client speaks %d", a.Version, ProtocolVersion)
	}
	n := int(binary.LittleEndian.Uint16(p[23:]))
	if n > maxPolicyLen || len(p) != helloAckMin+n {
		return helloAck{}, fmt.Errorf("netserve: hello-ack policy length %d does not match frame", n)
	}
	a.Policy = string(p[helloAckMin:])
	return a, nil
}

// submitBatchFrame is one admission request: 1..MaxBatchJobs jobs
// sharing a single frame header, CRC, and (server-side) shard handoff +
// fsync. Batching is transport-only — the server still decides the jobs
// one at a time in batch order, so the decision stream is bit-identical
// to the same jobs sent one per frame in that order.
type submitBatchFrame struct {
	ID   uint64 // request id, echoed by the verdict batch
	Jobs []job.Job
}

// verdictBatchFrame answers a submit batch: Verdicts[i] decides Jobs[i]
// (the match is positional under the request id).
type verdictBatchFrame struct {
	ID       uint64
	Verdicts []batchVerdict
}

// batchVerdict is one positional verdict inside a verdict batch.
type batchVerdict struct {
	Status  byte
	Machine int64
	Start   float64
	Msg     string // only for statusError
}

func appendSubmitBatch(dst []byte, f submitBatchFrame) []byte {
	dst, off := beginFrame(dst)
	var h [batchHdrLen]byte
	h[0] = frameSubmitBatch
	binary.LittleEndian.PutUint64(h[1:], f.ID)
	binary.LittleEndian.PutUint32(h[9:], uint32(len(f.Jobs)))
	dst = append(dst, h[:]...)
	var e [batchSubEntryLen]byte
	for _, j := range f.Jobs {
		binary.LittleEndian.PutUint64(e[0:], uint64(int64(j.ID)))
		binary.LittleEndian.PutUint64(e[8:], math.Float64bits(j.Release))
		binary.LittleEndian.PutUint64(e[16:], math.Float64bits(j.Proc))
		binary.LittleEndian.PutUint64(e[24:], math.Float64bits(j.Deadline))
		dst = append(dst, e[:]...)
	}
	return sealFrame(dst, off)
}

func decodeSubmitBatch(p []byte) (submitBatchFrame, error) {
	if len(p) < batchHdrLen || p[0] != frameSubmitBatch {
		return submitBatchFrame{}, fmt.Errorf("netserve: malformed submit-batch frame")
	}
	var f submitBatchFrame
	f.ID = binary.LittleEndian.Uint64(p[1:])
	n := int(binary.LittleEndian.Uint32(p[9:]))
	if n < 1 || n > MaxBatchJobs {
		return submitBatchFrame{}, fmt.Errorf("netserve: submit-batch count %d out of range", n)
	}
	if len(p) != batchHdrLen+n*batchSubEntryLen {
		return submitBatchFrame{}, fmt.Errorf("netserve: submit-batch length %d does not match count %d", len(p), n)
	}
	f.Jobs = make([]job.Job, n)
	for i := range f.Jobs {
		e := p[batchHdrLen+i*batchSubEntryLen:]
		f.Jobs[i] = job.Job{
			ID:       int(int64(binary.LittleEndian.Uint64(e[0:]))),
			Release:  math.Float64frombits(binary.LittleEndian.Uint64(e[8:])),
			Proc:     math.Float64frombits(binary.LittleEndian.Uint64(e[16:])),
			Deadline: math.Float64frombits(binary.LittleEndian.Uint64(e[24:])),
		}
	}
	return f, nil
}

func appendVerdictBatch(dst []byte, f verdictBatchFrame) []byte {
	dst, off := beginFrame(dst)
	var h [batchHdrLen]byte
	h[0] = frameVerdictBatch
	binary.LittleEndian.PutUint64(h[1:], f.ID)
	binary.LittleEndian.PutUint32(h[9:], uint32(len(f.Verdicts)))
	dst = append(dst, h[:]...)
	var e [batchVerEntryLen]byte
	for _, v := range f.Verdicts {
		msg := v.Msg
		if len(msg) > maxMsgLen {
			msg = msg[:maxMsgLen]
		}
		e[0] = v.Status
		binary.LittleEndian.PutUint64(e[1:], uint64(v.Machine))
		binary.LittleEndian.PutUint64(e[9:], math.Float64bits(v.Start))
		binary.LittleEndian.PutUint16(e[17:], uint16(len(msg)))
		dst = append(dst, e[:]...)
		dst = append(dst, msg...)
	}
	return sealFrame(dst, off)
}

func decodeVerdictBatch(p []byte) (verdictBatchFrame, error) {
	return decodeVerdictBatchInto(p, nil)
}

// decodeVerdictBatchInto decodes a verdict batch reusing scratch as the
// verdict slice when it has the capacity — the client's read loop feeds
// it pooled slices so steady-state batch decode allocates only the Msg
// strings (none on the happy path). Passing nil scratch allocates, and
// is exactly decodeVerdictBatch.
func decodeVerdictBatchInto(p []byte, scratch []batchVerdict) (verdictBatchFrame, error) {
	if len(p) < batchHdrLen || p[0] != frameVerdictBatch {
		return verdictBatchFrame{}, fmt.Errorf("netserve: malformed verdict-batch frame")
	}
	var f verdictBatchFrame
	f.ID = binary.LittleEndian.Uint64(p[1:])
	n := int(binary.LittleEndian.Uint32(p[9:]))
	if n < 1 || n > MaxBatchJobs {
		return verdictBatchFrame{}, fmt.Errorf("netserve: verdict-batch count %d out of range", n)
	}
	if cap(scratch) >= n {
		f.Verdicts = scratch[:n]
	} else {
		f.Verdicts = make([]batchVerdict, n)
	}
	off := batchHdrLen
	for i := range f.Verdicts {
		if len(p) < off+batchVerEntryLen {
			return verdictBatchFrame{}, fmt.Errorf("netserve: verdict-batch entry %d truncated", i)
		}
		e := p[off:]
		v := batchVerdict{
			Status:  e[0],
			Machine: int64(binary.LittleEndian.Uint64(e[1:])),
			Start:   math.Float64frombits(binary.LittleEndian.Uint64(e[9:])),
		}
		m := int(binary.LittleEndian.Uint16(e[17:]))
		off += batchVerEntryLen
		if m > maxMsgLen {
			// The encoder truncates at maxMsgLen; a longer message is not
			// a frame this protocol writes.
			return verdictBatchFrame{}, fmt.Errorf("netserve: verdict-batch entry %d message length %d over %d", i, m, maxMsgLen)
		}
		if len(p) < off+m {
			return verdictBatchFrame{}, fmt.Errorf("netserve: verdict-batch entry %d message truncated", i)
		}
		v.Msg = string(p[off : off+m])
		off += m
		if v.Status < statusAccept || v.Status > statusError {
			return verdictBatchFrame{}, fmt.Errorf("netserve: verdict-batch entry %d unknown status %d", i, v.Status)
		}
		f.Verdicts[i] = v
	}
	if off != len(p) {
		return verdictBatchFrame{}, fmt.Errorf("netserve: verdict-batch length %d does not match entries", len(p))
	}
	return f, nil
}
