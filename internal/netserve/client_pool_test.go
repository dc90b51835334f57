package netserve

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"loadmax/internal/job"
)

// echoServer is a minimal fake server end: handshake, then accept every
// submitted job at machine 0, start 0. It stops on the first read error
// (the test killing the connection).
func echoServer(t *testing.T, nc net.Conn, window int) {
	t.Helper()
	br := fakeHandshake(t, nc, window)
	if br == nil {
		return
	}
	for {
		p, err := readFrame(br)
		if err != nil {
			return
		}
		f, err := decodeSubmitBatch(p)
		if err != nil {
			t.Errorf("fake server: %v", err)
			return
		}
		vb := verdictBatchFrame{ID: f.ID, Verdicts: make([]batchVerdict, len(f.Jobs))}
		for i := range vb.Verdicts {
			vb.Verdicts[i].Status = statusAccept
		}
		if _, err := nc.Write(appendVerdictBatch(nil, vb)); err != nil {
			return
		}
	}
}

// poolClient builds a Client over n in-memory connections, each backed
// by its own echo server; the returned server ends let the test kill
// individual connections.
func poolClient(t *testing.T, n int) (*Client, []net.Conn) {
	t.Helper()
	cfg := defaultDialConfig()
	cfg.timeout = 5 * time.Second
	srvs := make([]net.Conn, n)
	ccs := make([]*clientConn, n)
	var ack helloAck
	for i := 0; i < n; i++ {
		cliSide, srvSide := net.Pipe()
		go echoServer(t, srvSide, 8)
		cc, a, err := setupConn(cliSide, cfg)
		if err != nil {
			t.Fatalf("setupConn %d: %v", i, err)
		}
		ccs[i] = cc
		ack = a
		srvs[i] = srvSide
	}
	return newClientWith(cfg, ack, ccs...), srvs
}

// waitDead blocks until the connection's read loop has observed the
// failure and poisoned it.
func waitDead(t *testing.T, cc *clientConn) {
	t.Helper()
	select {
	case <-cc.dead:
	case <-time.After(10 * time.Second):
		t.Fatal("connection never marked dead")
	}
}

// TestPoolSkipsDeadConn is the kill-one-conn regression test: when one
// pooled connection dies mid-stream, every later pick must rotate onto
// the surviving connection — round-robin never lands a request on the
// poisoned one — and submissions keep succeeding.
func TestPoolSkipsDeadConn(t *testing.T) {
	c, srvs := poolClient(t, 2)
	defer c.Close()

	j := job.Job{ID: 1, Release: 0, Proc: 1, Deadline: 10}
	if _, err := c.Submit(j); err != nil {
		t.Fatalf("warm-up submit: %v", err)
	}

	srvs[0].Close() // kill connection 0 mid-stream
	waitDead(t, c.slots[0].cur.Load())

	// More submits than the pool size, so round-robin passes the dead
	// slot repeatedly; every one must land on the live connection.
	live := c.slots[1].cur.Load()
	for i := 0; i < 6; i++ {
		if _, err := c.Submit(j); err != nil {
			t.Fatalf("submit %d after kill: %v", i, err)
		}
		if cc, _ := c.pick(); cc != live {
			t.Fatalf("pick %d returned the dead connection", i)
		}
	}
}

// TestPoolAllDeadFailsFast: with every pooled connection poisoned, the
// client fails fast with a *TransportError instead of hanging on (or
// panicking over) a dead connection.
func TestPoolAllDeadFailsFast(t *testing.T) {
	c, srvs := poolClient(t, 2)
	defer c.Close()
	for i, s := range srvs {
		s.Close()
		waitDead(t, c.slots[i].cur.Load())
	}
	j := job.Job{ID: 1, Release: 0, Proc: 1, Deadline: 10}

	start := time.Now()
	_, err := c.Submit(j)
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("Submit on all-dead pool: err = %v, want *TransportError", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("all-dead Submit took %v, want fail-fast", elapsed)
	}
	if _, err := c.SubmitBatch([]job.Job{j}); !errors.As(err, &te) {
		t.Fatalf("SubmitBatch on all-dead pool: err = %v, want *TransportError", err)
	}
}

// TestPickEmptyPool: a client with no connections (a half-constructed
// value kept after a Dial failure) must fail fast, not divide by zero.
func TestPickEmptyPool(t *testing.T) {
	c := &Client{cfg: defaultDialConfig()}
	if cc, _ := c.pick(); cc != nil {
		t.Fatalf("pick on empty pool = %v, want nil", cc)
	}
	var te *TransportError
	if _, err := c.Submit(job.Job{ID: 1, Proc: 1, Deadline: 2}); !errors.As(err, &te) {
		t.Fatalf("Submit on empty pool: err = %v, want *TransportError", err)
	}
}

// TestClientLearnsPolicy: the HELLO ack's policy spec is surfaced by
// Client.Policy.
func TestClientLearnsPolicy(t *testing.T) {
	cliSide, srvSide := net.Pipe()
	go func() {
		br := bufio.NewReader(srvSide)
		p, err := readFrame(br)
		if err != nil || decodeHello(p) != nil {
			t.Error("fake server: bad hello")
			return
		}
		ack := helloAck{Version: ProtocolVersion, Window: 4, Shards: 2, Machines: 3, Eps: 0.5,
			Policy: "delta-commit:delta=0.25"}
		srvSide.Write(appendHelloAck(nil, ack))
	}()
	cc, ack, err := setupConn(cliSide, defaultDialConfig())
	if err != nil {
		t.Fatalf("setupConn: %v", err)
	}
	c := newClientWith(defaultDialConfig(), ack, cc)
	defer c.Close()
	if got := c.Policy(); got != "delta-commit:delta=0.25" {
		t.Fatalf("Policy = %q", got)
	}
}
