package netserve

import (
	"bufio"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/online"
)

// fakeHandshake plays the server half of the protocol handshake on a raw
// connection and returns the buffered reader for the rest of the stream.
// It runs in a goroutine, so failures are t.Error, not t.Fatal.
func fakeHandshake(t *testing.T, nc net.Conn, window int) *bufio.Reader {
	t.Helper()
	br := bufio.NewReader(nc)
	p, err := readFrame(br)
	if err != nil {
		t.Errorf("fake server: read hello: %v", err)
		return nil
	}
	if err := decodeHello(p); err != nil {
		t.Errorf("fake server: %v", err)
		return nil
	}
	ack := helloAck{Version: ProtocolVersion, Window: uint32(window), Shards: 1, Machines: 1, Eps: 0.5}
	if _, err := nc.Write(appendHelloAck(nil, ack)); err != nil {
		t.Errorf("fake server: write hello-ack: %v", err)
		return nil
	}
	return br
}

// pipeClient wires a Client to a fake in-memory server end. The returned
// reader has consumed the handshake; whatever the client sends next is
// the caller's to read (net.Pipe is synchronous, so something must).
func pipeClient(t *testing.T, window int) (*Client, *clientConn, net.Conn, *bufio.Reader) {
	t.Helper()
	cliSide, srvSide := net.Pipe()
	brCh := make(chan *bufio.Reader, 1)
	go func() { brCh <- fakeHandshake(t, srvSide, window) }()
	cfg := defaultDialConfig()
	cc, ack, err := setupConn(cliSide, cfg)
	if err != nil {
		t.Fatalf("setupConn: %v", err)
	}
	br := <-brCh
	if br == nil {
		t.Fatal("fake handshake failed")
	}
	c := newClientWith(cfg, ack, cc)
	return c, cc, srvSide, br
}

// claimPending emulates the read loop's claim step: remove the single
// pending entry under pmu, exactly as routing a verdict does, and return
// its reply channel. After this, the entry is "claimed" — the send into
// the 1-buffered channel is committed from the caller's point of view.
func claimPending(t *testing.T, cc *clientConn) chan verdictBatchFrame {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cc.pmu.Lock()
		for id, ch := range cc.pending {
			delete(cc.pending, id)
			cc.pmu.Unlock()
			return ch
		}
		cc.pmu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("submit never registered")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitTimeoutVerdictRace is the regression test for the
// timeout/verdict select race: once the read loop has claimed the
// pending id, the verdict's delivery is committed, and SubmitTimeout
// must return that verdict even when the timer has already fired —
// never a fabricated "outcome unknown". The test claims the id exactly
// as the read loop does, lets the timer fire, then delivers the
// one-entry verdict batch: before the fix this deterministically
// returned ErrTimeout.
func TestSubmitTimeoutVerdictRace(t *testing.T) {
	c, cc, _, br := pipeClient(t, 8)
	defer c.Close()
	go func() {
		// Drain the submit frame so the synchronous pipe write completes.
		if _, err := readFrame(br); err != nil {
			t.Errorf("fake server: read submit: %v", err)
		}
	}()

	type result struct {
		dec online.Decision
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		dec, err := c.SubmitTimeout(testJob(1), 50*time.Millisecond)
		resCh <- result{dec, err}
	}()

	ch := claimPending(t, cc)
	time.Sleep(200 * time.Millisecond) // the 50ms timer has long fired
	ch <- verdictBatchFrame{Verdicts: []batchVerdict{{Status: statusAccept, Machine: 3, Start: 2.5}}}

	r := <-resCh
	if r.err != nil {
		t.Fatalf("delivered verdict reported as %v, want the verdict", r.err)
	}
	if !r.dec.Accepted || r.dec.Machine != 3 || r.dec.Start != 2.5 {
		t.Fatalf("decision %+v, want accept on machine 3 at 2.5", r.dec)
	}
}

// TestSubmitBatchTimeoutVerdictRace is the same regression for the
// batched path: a claimed verdict batch must be returned, not replaced
// by ErrTimeout, when the timer loses the race.
func TestSubmitBatchTimeoutVerdictRace(t *testing.T) {
	c, cc, _, br := pipeClient(t, 8)
	defer c.Close()
	go func() {
		if _, err := readFrame(br); err != nil {
			t.Errorf("fake server: read submit batch: %v", err)
		}
	}()

	jobs := []job.Job{testJob(1), testJob(2)}
	type result struct {
		res []BatchResult
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		res, err := c.SubmitBatchTimeout(jobs, 50*time.Millisecond)
		resCh <- result{res, err}
	}()

	ch := claimPending(t, cc)
	time.Sleep(200 * time.Millisecond)
	ch <- verdictBatchFrame{Verdicts: []batchVerdict{
		{Status: statusAccept, Machine: 1, Start: 0.5},
		{Status: statusReject},
	}}

	r := <-resCh
	if r.err != nil {
		t.Fatalf("delivered verdict batch reported as %v, want results", r.err)
	}
	if len(r.res) != 2 || !r.res[0].Dec.Accepted || r.res[1].Dec.Accepted || r.res[1].Err != nil {
		t.Fatalf("batch results %+v, want [accept, reject]", r.res)
	}
}

// TestSubmitTimeoutStillTimesOut pins the other side of the fix: when no
// verdict was claimed, the timer must still surface ErrTimeout (the
// recheck must not turn every timeout into a hang).
func TestSubmitTimeoutStillTimesOut(t *testing.T) {
	c, _, _, br := pipeClient(t, 8)
	defer c.Close()
	go func() {
		if _, err := readFrame(br); err != nil {
			t.Errorf("fake server: read submit: %v", err)
		}
		// ...and never answer.
	}()
	start := time.Now()
	_, err := c.SubmitTimeout(testJob(1), 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("unanswered submit returned %v, want ErrTimeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout path hung")
	}
}

// TestPickWraparound is the regression test for the round-robin index:
// once the shared counter passes the int range (immediately on 32-bit
// platforms, after wraparound anywhere), a plain int conversion yields a
// negative start and (start+i)%n panics with a negative index. pick must
// keep returning live connections across both the int and uint64
// boundaries.
func TestPickWraparound(t *testing.T) {
	ccs := []*clientConn{
		{dead: make(chan struct{})},
		{dead: make(chan struct{})},
		{dead: make(chan struct{})},
	}
	c := newClientWith(defaultDialConfig(), helloAck{}, ccs...)
	defer c.Close()
	c.rr.Store(math.MaxInt64) // next Add(1) is 2^63: negative as int
	for i := 0; i < 2*len(ccs); i++ {
		if cc, _ := c.pick(); cc == nil {
			t.Fatal("pick returned nil with every connection live")
		}
	}
	c.rr.Store(math.MaxUint64) // next Add(1) wraps the counter itself
	if cc, _ := c.pick(); cc == nil {
		t.Fatal("pick failed across uint64 wraparound")
	}
	// Dead connections are still skipped, whatever the counter says.
	ccs[0].deadOnce.Do(func() { close(ccs[0].dead) })
	c.rr.Store(math.MaxInt64)
	for i := 0; i < 2*len(ccs); i++ {
		cc, _ := c.pick()
		if cc == nil {
			t.Fatal("pick returned nil with two live connections")
		}
		if cc == ccs[0] {
			t.Fatal("pick returned a dead connection")
		}
	}
}

// deadlineErrConn injects SetDeadline failures around a real connection.
type deadlineErrConn struct {
	net.Conn
	failSet, failClear bool
}

func (c *deadlineErrConn) SetDeadline(t time.Time) error {
	if t.IsZero() {
		if c.failClear {
			return errors.New("injected clear failure")
		}
	} else if c.failSet {
		return errors.New("injected set failure")
	}
	return c.Conn.SetDeadline(t)
}

// TestSetupConnDeadlineErrors proves both SetDeadline calls in the
// handshake are checked: failing to arm the deadline (a silent peer
// could pin the handshake forever) and failing to clear it (every later
// read would spuriously time out) must each surface as a
// *TransportError, not be shrugged off.
func TestSetupConnDeadlineErrors(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	_, _, err := setupConn(&deadlineErrConn{Conn: cli, failSet: true}, defaultDialConfig())
	var te *TransportError
	if !errors.As(err, &te) || te.Op != "handshake deadline" {
		t.Fatalf("arming failure returned %v, want handshake-deadline TransportError", err)
	}

	cli2, srv2 := net.Pipe()
	defer srv2.Close()
	go fakeHandshake(t, srv2, 4)
	_, _, err = setupConn(&deadlineErrConn{Conn: cli2, failClear: true}, defaultDialConfig())
	if !errors.As(err, &te) || te.Op != "handshake deadline" {
		t.Fatalf("clearing failure returned %v, want handshake-deadline TransportError", err)
	}
}
