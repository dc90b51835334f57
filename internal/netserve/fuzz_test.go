package netserve

import (
	"bufio"
	"bytes"
	"testing"

	"loadmax/internal/job"
)

// FuzzDecodeFrame feeds arbitrary bytes to every decoder that reads
// bytes from a peer: the frame header (readFrame) and the four frames
// protocol v3 has — HELLO, HELLO-ACK, SUBMIT-BATCH and VERDICT-BATCH.
// Both ends are untrusted: the server reads submits from clients, and
// the client (a gateway, too) reads verdicts from backends. Each input is
// tried as a framed stream and, so that mutations need not forge a CRC,
// its bytes past the frame header as a bare payload. The committed
// corpus under testdata/fuzz holds valid frames of each type, the
// retired types 3 and 4, counts 0 and 1025, torn entries, a bad CRC and
// an over-long message. The invariants:
//
//   - decoding never panics;
//   - a decoded count never exceeds MaxBatchJobs or what the payload
//     holds;
//   - every payload a decoder accepts re-encodes to the same bytes;
//   - a payload of any other type is refused by every decoder.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(appendHello(nil))
	f.Add(appendHelloAck(nil, helloAck{Version: ProtocolVersion, Window: 8, Shards: 2, Machines: 4, Eps: 0.5, Policy: "threshold"}))
	f.Add(appendSubmitBatch(nil, submitBatchFrame{ID: 1, Jobs: []job.Job{{ID: 7, Release: 1, Proc: 2, Deadline: 9}}}))
	f.Add(appendVerdictBatch(nil, verdictBatchFrame{ID: 1, Verdicts: []batchVerdict{{Status: statusAccept, Machine: 3, Start: 1.5}, {Status: statusError, Msg: "wal poisoned"}}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		if p, err := readFrame(bufio.NewReader(bytes.NewReader(b))); err == nil {
			checkPayload(t, p)
		}
		if len(b) > wireHeaderLen {
			checkPayload(t, b[wireHeaderLen:])
		}
	})
}

// checkPayload runs every decoder over p and checks the invariants of
// the one that claims its type.
func checkPayload(t *testing.T, p []byte) {
	t.Helper()
	helloErr := decodeHello(p)
	ack, ackErr := decodeHelloAck(p)
	sub, subErr := decodeSubmitBatch(p)
	ver, verErr := decodeVerdictBatchInto(p, nil)
	reencode := func(name string, frame []byte) {
		t.Helper()
		if !bytes.Equal(frame[wireHeaderLen:], p) {
			t.Fatalf("%s payload of %d bytes re-encodes to %d different bytes", name, len(p), len(frame)-wireHeaderLen)
		}
	}
	if helloErr == nil {
		reencode("hello", appendHello(nil))
	}
	if ackErr == nil {
		reencode("hello-ack", appendHelloAck(nil, ack))
	}
	if subErr == nil {
		if n := len(sub.Jobs); n > MaxBatchJobs || batchHdrLen+n*batchSubEntryLen > len(p) {
			t.Fatalf("submit batch of %d jobs decoded from %d bytes", n, len(p))
		}
		reencode("submit-batch", appendSubmitBatch(nil, sub))
	}
	if verErr == nil {
		if n := len(ver.Verdicts); n > MaxBatchJobs || batchHdrLen+n*batchVerEntryLen > len(p) {
			t.Fatalf("verdict batch of %d verdicts decoded from %d bytes", n, len(p))
		}
		reencode("verdict-batch", appendVerdictBatch(nil, ver))
	}
	if len(p) > 0 {
		switch p[0] {
		case frameHello, frameHelloAck, frameSubmitBatch, frameVerdictBatch:
		default:
			if helloErr == nil || ackErr == nil || subErr == nil || verErr == nil {
				t.Fatalf("frame type %d decoded", p[0])
			}
		}
	}
}
