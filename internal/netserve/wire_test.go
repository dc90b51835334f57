package netserve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"loadmax/internal/job"
)

// TestWireRoundTrip proves every frame of a one-job exchange decodes
// back bit-identically — handshake, a one-job SUBMIT-BATCH, and accept
// and error verdicts — including floats that have no short decimal form,
// the reason the wire uses raw float64 bits like the WAL does.
func TestWireRoundTrip(t *testing.T) {
	awkward := math.Nextafter(1.0/3.0, 1) // no exact decimal representation

	ackIn := helloAck{Version: ProtocolVersion, Window: 128, Shards: 7, Machines: 64, Eps: awkward, Policy: "threshold"}
	sub := submitBatchFrame{ID: 42, Jobs: []job.Job{{ID: 9, Release: awkward, Proc: math.Pi, Deadline: 4.75}}}
	ver := verdictBatchFrame{ID: 42, Verdicts: []batchVerdict{{Status: statusAccept, Machine: 3, Start: awkward * 2}}}
	errVer := verdictBatchFrame{ID: 43, Verdicts: []batchVerdict{{Status: statusError, Msg: "wal poisoned"}}}

	var buf []byte
	buf = appendHello(buf)
	buf = appendHelloAck(buf, ackIn)
	buf = appendSubmitBatch(buf, sub)
	buf = appendVerdictBatch(buf, ver)
	buf = appendVerdictBatch(buf, errVer)

	br := bufio.NewReader(bytes.NewReader(buf))
	next := func() []byte {
		t.Helper()
		p, err := readFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	if err := decodeHello(next()); err != nil {
		t.Fatalf("hello round-trip: %v", err)
	}
	ack, err := decodeHelloAck(next())
	if err != nil {
		t.Fatal(err)
	}
	if ack != ackIn {
		t.Fatalf("hello-ack mangled: %+v != %+v", ack, ackIn)
	}
	gotSub, err := decodeSubmitBatch(next())
	if err != nil {
		t.Fatal(err)
	}
	if gotSub.ID != sub.ID || len(gotSub.Jobs) != 1 || gotSub.Jobs[0] != sub.Jobs[0] {
		t.Fatalf("submit mangled: %+v != %+v", gotSub, sub)
	}
	for _, want := range []verdictBatchFrame{ver, errVer} {
		got, err := decodeVerdictBatch(next())
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != want.ID || len(got.Verdicts) != 1 || got.Verdicts[0] != want.Verdicts[0] {
			t.Fatalf("verdict mangled: %+v != %+v", got, want)
		}
	}
}

// TestWireBatchRoundTrip proves the batch frames decode back
// bit-identically: a submit batch carrying awkward floats and a verdict
// batch mixing all four statuses, including a truncatable error message.
func TestWireBatchRoundTrip(t *testing.T) {
	awkward := math.Nextafter(1.0/3.0, 1)

	sub := submitBatchFrame{ID: 77, Jobs: []job.Job{
		{ID: 1, Release: awkward, Proc: math.Pi, Deadline: 4.75},
		{ID: 2, Release: 0, Proc: 1, Deadline: 100},
		{ID: 3, Release: awkward * 3, Proc: awkward / 7, Deadline: math.Nextafter(8, 9)},
	}}
	ver := verdictBatchFrame{ID: 77, Verdicts: []batchVerdict{
		{Status: statusAccept, Machine: 5, Start: awkward * 2},
		{Status: statusReject},
		{Status: statusShed},
		{Status: statusError, Msg: "wal poisoned"},
	}}

	var buf []byte
	buf = appendSubmitBatch(buf, sub)
	buf = appendVerdictBatch(buf, ver)
	br := bufio.NewReader(bytes.NewReader(buf))

	p, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	gotSub, err := decodeSubmitBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	if gotSub.ID != sub.ID || len(gotSub.Jobs) != len(sub.Jobs) {
		t.Fatalf("submit batch mangled: %+v", gotSub)
	}
	for i := range sub.Jobs {
		if gotSub.Jobs[i] != sub.Jobs[i] {
			t.Fatalf("job %d mangled: %+v != %+v", i, gotSub.Jobs[i], sub.Jobs[i])
		}
	}
	p, err = readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	gotVer, err := decodeVerdictBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	if gotVer.ID != ver.ID || len(gotVer.Verdicts) != len(ver.Verdicts) {
		t.Fatalf("verdict batch mangled: %+v", gotVer)
	}
	for i := range ver.Verdicts {
		if gotVer.Verdicts[i] != ver.Verdicts[i] {
			t.Fatalf("verdict %d mangled: %+v != %+v", i, gotVer.Verdicts[i], ver.Verdicts[i])
		}
	}
}

// TestWireBatchTornFrame covers the torn-write failure modes of a batch
// frame: a stream cut mid-frame at every possible byte must surface an
// error from readFrame, never a short decode.
func TestWireBatchTornFrame(t *testing.T) {
	buf := appendSubmitBatch(nil, submitBatchFrame{ID: 9, Jobs: []job.Job{
		{ID: 1, Release: 0, Proc: 1, Deadline: 10},
		{ID: 2, Release: 1, Proc: 2, Deadline: 20},
	}})
	for cut := 0; cut < len(buf); cut++ {
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(buf[:cut]))); err == nil {
			t.Fatalf("frame torn at byte %d decoded cleanly", cut)
		}
	}
}

// TestWireBatchRejectsMalformed covers payload-level validation: a count
// that disagrees with the payload length, counts outside 1..MaxBatchJobs,
// a truncated verdict entry and an out-of-range status must all fail.
func TestWireBatchRejectsMalformed(t *testing.T) {
	sub := appendSubmitBatch(nil, submitBatchFrame{ID: 1, Jobs: []job.Job{{ID: 1, Proc: 1, Deadline: 2}}})
	payload := append([]byte(nil), sub[wireHeaderLen:]...)

	lying := append([]byte(nil), payload...)
	lying[9]++ // count says 2 jobs, payload holds 1
	if _, err := decodeSubmitBatch(lying); err == nil {
		t.Fatal("count/length mismatch accepted")
	}
	empty := append([]byte(nil), payload[:batchHdrLen]...)
	empty[9] = 0
	if _, err := decodeSubmitBatch(empty); err == nil {
		t.Fatal("empty batch accepted")
	}
	huge := append([]byte(nil), payload...)
	huge[9] = 0xFF
	huge[10] = 0xFF // count way past MaxBatchJobs
	if _, err := decodeSubmitBatch(huge); err == nil {
		t.Fatal("oversized batch count accepted")
	}

	ver := appendVerdictBatch(nil, verdictBatchFrame{ID: 1, Verdicts: []batchVerdict{
		{Status: statusAccept, Machine: 1, Start: 0.5},
	}})
	vp := append([]byte(nil), ver[wireHeaderLen:]...)
	if _, err := decodeVerdictBatch(vp[:len(vp)-1]); err == nil {
		t.Fatal("truncated verdict entry accepted")
	}
	badStatus := append([]byte(nil), vp...)
	badStatus[batchHdrLen] = statusError + 1
	if _, err := decodeVerdictBatch(badStatus); err == nil {
		t.Fatal("out-of-range batch verdict status accepted")
	}
	crossType := append([]byte(nil), vp...)
	crossType[0] = frameSubmitBatch
	if _, err := decodeSubmitBatch(crossType); err == nil {
		t.Fatal("verdict batch decoded as submit batch")
	}

	// A message longer than the encoder ever writes: it would decode and
	// re-encode truncated, so the decoder refuses it.
	long := appendVerdictBatch(nil, verdictBatchFrame{ID: 1, Verdicts: []batchVerdict{{Status: statusError, Msg: "x"}}})
	lp := append([]byte(nil), long[wireHeaderLen:len(long)-1]...)
	binary.LittleEndian.PutUint16(lp[batchHdrLen+17:], maxMsgLen+100)
	lp = append(lp, bytes.Repeat([]byte("x"), maxMsgLen+100)...)
	if _, err := decodeVerdictBatch(lp); err == nil {
		t.Fatalf("%d-byte message accepted, encoder caps at %d", maxMsgLen+100, maxMsgLen)
	}
}

// TestWireRejectsRetiredFrames: version 2's one-job SUBMIT (3) and
// VERDICT (4) frames are protocol errors to both decoders, like any
// unknown type.
func TestWireRejectsRetiredFrames(t *testing.T) {
	sub := appendSubmitBatch(nil, submitBatchFrame{ID: 1, Jobs: []job.Job{testJob(1)}})
	ver := appendVerdictBatch(nil, verdictBatchFrame{ID: 1, Verdicts: []batchVerdict{{Status: statusReject}}})
	for _, typ := range []byte{3, 4} {
		sp := append([]byte(nil), sub[wireHeaderLen:]...)
		sp[0] = typ
		if _, err := decodeSubmitBatch(sp); err == nil {
			t.Fatalf("frame type %d decoded as a submit batch", typ)
		}
		vp := append([]byte(nil), ver[wireHeaderLen:]...)
		vp[0] = typ
		if _, err := decodeVerdictBatch(vp); err == nil {
			t.Fatalf("frame type %d decoded as a verdict batch", typ)
		}
	}
}

// TestWireBatchRejectsCorruption flips one byte of a valid batch frame
// and expects the single batch-wide CRC to catch it.
func TestWireBatchRejectsCorruption(t *testing.T) {
	buf := appendSubmitBatch(nil, submitBatchFrame{ID: 3, Jobs: []job.Job{
		{ID: 1, Release: 0, Proc: 1, Deadline: 2},
		{ID: 2, Release: 1, Proc: 1, Deadline: 3},
	}})
	for i := wireHeaderLen; i < len(buf); i++ {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x40
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(mut))); err == nil {
			t.Fatalf("corrupt batch byte %d went undetected", i)
		}
	}
}

// TestWireRejectsCorruption flips one byte of a valid one-job frame and
// expects the CRC to catch it.
func TestWireRejectsCorruption(t *testing.T) {
	buf := appendSubmitBatch(nil, submitBatchFrame{ID: 1, Jobs: []job.Job{{ID: 1, Release: 0, Proc: 1, Deadline: 2}}})
	for i := wireHeaderLen; i < len(buf); i++ {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x40
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(mut))); err == nil {
			t.Fatalf("corrupt byte %d went undetected", i)
		}
	}
}

// TestWireRejectsBadHello covers the handshake failure modes: wrong
// magic and wrong version must both fail closed.
func TestWireRejectsBadHello(t *testing.T) {
	good := appendHello(nil)
	payload := append([]byte(nil), good[wireHeaderLen:]...)

	wrongMagic := append([]byte(nil), payload...)
	wrongMagic[1] ^= 0xFF
	if err := decodeHello(wrongMagic); err == nil {
		t.Fatal("bad magic accepted")
	}
	wrongVersion := append([]byte(nil), payload...)
	wrongVersion[5]++
	if err := decodeHello(wrongVersion); err == nil {
		t.Fatal("future protocol version accepted")
	}
	v2 := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint16(v2[5:], 2)
	if err := decodeHello(v2); err == nil {
		t.Fatal("protocol v2 hello accepted: its one-job frames are gone")
	}
	if _, err := decodeHelloAck(payload); err == nil {
		t.Fatal("hello decoded as hello-ack")
	}
}

// TestWireVerdictStatuses rejects statuses outside the defined range so
// a corrupted-but-CRC-colliding frame cannot smuggle a fake verdict.
func TestWireVerdictStatuses(t *testing.T) {
	buf := appendVerdictBatch(nil, verdictBatchFrame{ID: 1, Verdicts: []batchVerdict{{Status: statusReject}}})
	payload := append([]byte(nil), buf[wireHeaderLen:]...)
	payload[batchHdrLen] = 0
	if _, err := decodeVerdictBatch(payload); err == nil {
		t.Fatal("status 0 accepted")
	}
	payload[batchHdrLen] = statusError + 1
	if _, err := decodeVerdictBatch(payload); err == nil {
		t.Fatal("out-of-range status accepted")
	}
}
