package netserve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/serve"
)

// Admitter is what the wire front end serves: anything that can decide
// jobs and describe its serving topology for the HELLO ack.
// serve.Service is the canonical implementation; the gateway implements
// it one level up (its "shards" are backend groups), which is how the
// whole protocol surface — windows, shedding, batching, spans — is
// reused verbatim in front of a cluster. The server dispatches every
// frame, one job or many, through SubmitBatchSpan; SubmitSpan is the
// one-job form for in-process callers. A returned serve.ErrBackpressure
// is answered as a SHED verdict (retryable overload); any other error
// as a server-error verdict.
type Admitter interface {
	Shards() int
	Machines() int
	Eps() float64
	AdmissionPolicy() string
	SubmitSpan(j job.Job, sp *obs.Span) (online.Decision, error)
	SubmitBatchSpan(jobs []job.Job, sp *obs.Span) []serve.BatchResult
}

// ServerOption configures a Server.
type ServerOption func(*serverConfig)

type serverConfig struct {
	window       int
	maxInflight  int
	writeTimeout time.Duration
	helloTimeout time.Duration
	reg          *obs.Registry
	spans        *obs.SpanRecorder
	submitGate   func() // test-only: blocks each worker before Submit
}

func defaultServerConfig() serverConfig {
	return serverConfig{
		window:       256,
		maxInflight:  4096,
		writeTimeout: 10 * time.Second,
		helloTimeout: 10 * time.Second,
	}
}

// WithWindow sets the per-connection in-flight window (default 256): the
// server dispatches at most this many concurrent requests per
// connection and sheds the excess. A submit-batch frame occupies ONE
// window slot — it is one dispatch unit (one worker, one reply frame)
// regardless of how many jobs it carries. The window is advertised in
// the handshake, and the Client self-limits to it, so a conforming
// client only ever sees window sheds from a misbehaving peer sharing
// its id space. Values < 1 are clamped to 1.
func WithWindow(n int) ServerOption { return func(c *serverConfig) { c.window = n } }

// WithMaxInflight caps the server-wide number of requests inside
// serve.Service.Submit at once (default 4096). Beyond the cap the server
// sheds instead of queueing: shedding is overload protection, distinct
// from both algorithmic rejection and the serve layer's backpressure,
// and the client may retry. Values < 1 are clamped to 1.
func WithMaxInflight(n int) ServerOption { return func(c *serverConfig) { c.maxInflight = n } }

// WithWriteTimeout bounds how long a verdict write may block on a slow
// client before the connection is cut (default 10s). A client that
// stops reading would otherwise pin worker results in the writer
// forever; disconnecting it frees the window and lets the client
// re-dial when healthy.
func WithWriteTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.writeTimeout = d }
}

// WithServerMetrics instruments the server through the registry:
//
//	netserve_connections            gauge     open connections
//	netserve_inflight               gauge     requests inside Submit
//	netserve_requests_total{verdict} counter  accept/reject/shed/error
//	netserve_shed_total             counter   shed verdicts (either cause)
//	netserve_slow_disconnects_total counter   write-timeout disconnects
//	netserve_request_seconds        histogram dispatch→verdict latency (one sample per frame, batch included)
//	netserve_rx_frames_total        counter   submit frames read (one job or many)
//
// A nil registry (the default) keeps the hot path metric-free.
func WithServerMetrics(reg *obs.Registry) ServerOption { return func(c *serverConfig) { c.reg = reg } }

// WithServerSpans attaches a span recorder: every dispatched frame gets
// a lifecycle span covering frame decode, shard queue wait, engine
// decide, WAL commit (via the service, which must share the recorder
// through serve.WithSpans), and the reply write, finished when its
// verdict hits the wire. The span's verdict is the frame's outcome from
// its per-job results (serve.SpanVerdict): a one-job frame gets its
// job's accept, reject, shed or error, whatever the Admitter. Shed
// frames are answered before dispatch and carry no span. A nil recorder
// (the default) keeps the path span-free.
func WithServerSpans(rec *obs.SpanRecorder) ServerOption {
	return func(c *serverConfig) { c.spans = rec }
}

// WithHelloTimeout bounds the HELLO handshake read (default 10s): a
// peer that connects and then sends nothing — or trickles a frame
// forever, the classic slow loris — is cut when the deadline expires
// instead of pinning a connection goroutine for the life of the
// process. Values <= 0 keep the default.
func WithHelloTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) {
		if d > 0 {
			c.helloTimeout = d
		}
	}
}

// withSubmitGate is the white-box test hook: f runs in each dispatched
// worker after the in-flight slots are taken and before Submit, letting
// tests hold the server at a chosen occupancy deterministically.
func withSubmitGate(f func()) ServerOption { return func(c *serverConfig) { c.submitGate = f } }

// Server is the TCP admission front end over an Admitter (usually a
// serve.Service; the gateway for a cluster). Construct with Serve or
// ServeListener; Close drains gracefully. The Server does not own the
// Admitter — closing the server leaves it (and its durability state)
// untouched.
type Server struct {
	svc Admitter
	ln  net.Listener
	cfg serverConfig

	inflight chan struct{} // server-wide Submit slots

	mu     sync.Mutex
	closed bool
	conns  map[*srvConn]struct{}
	wg     sync.WaitGroup

	connGauge     *obs.Gauge
	inflightGauge *obs.Gauge
	verdicts      *obs.CounterVec
	shedTotal     *obs.Counter
	slowCuts      *obs.Counter
	latHist       *obs.Histogram
	rxFrames      *obs.Counter

	// Pre-resolved members of the verdicts family: With() takes the
	// family mutex, so the per-request paths resolve each label exactly
	// once here instead of once per verdict.
	vAccept *obs.Counter
	vReject *obs.Counter
	vShed   *obs.Counter
	vError  *obs.Counter

	connSeq atomic.Int64 // stripe-lane assignment for new connections
}

// connStripes is one connection's set of cache-line-padded counter
// lanes, resolved once at accept time: connections hammering the shared
// per-request counters from different cores land on different lanes
// instead of false-sharing one cell, and the verdict-family mutex is
// off the hot path entirely. All handles are nil-safe (no registry →
// nil lanes).
type connStripes struct {
	rx       *obs.CounterStripe
	accept   *obs.CounterStripe
	reject   *obs.CounterStripe
	shed     *obs.CounterStripe
	errs     *obs.CounterStripe
	shedTot  *obs.CounterStripe
	inflight *obs.GaugeStripe
}

func (s *Server) newConnStripes() connStripes {
	lane := int(s.connSeq.Add(1))
	return connStripes{
		rx:       s.rxFrames.Stripe(lane),
		accept:   s.vAccept.Stripe(lane),
		reject:   s.vReject.Stripe(lane),
		shed:     s.vShed.Stripe(lane),
		errs:     s.vError.Stripe(lane),
		shedTot:  s.shedTotal.Stripe(lane),
		inflight: s.inflightGauge.Stripe(lane),
	}
}

// Serve listens on addr ("host:port"; ":0" picks a free port) and
// serves svc until Close. It returns once the listener is live.
func Serve(svc Admitter, addr string, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netserve: listen %s: %w", addr, err)
	}
	return ServeListener(svc, ln, opts...)
}

// ServeListener serves svc on an existing listener — loopback tests,
// socket activation, in-process pipes. The server owns the listener and
// closes it on Close.
func ServeListener(svc Admitter, ln net.Listener, opts ...ServerOption) (*Server, error) {
	cfg := defaultServerConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.window < 1 {
		cfg.window = 1
	}
	if cfg.maxInflight < 1 {
		cfg.maxInflight = 1
	}
	s := &Server{
		svc:      svc,
		ln:       ln,
		cfg:      cfg,
		inflight: make(chan struct{}, cfg.maxInflight),
		conns:    make(map[*srvConn]struct{}),

		connGauge:     cfg.reg.Gauge("netserve_connections"),
		inflightGauge: cfg.reg.Gauge("netserve_inflight"),
		verdicts:      cfg.reg.CounterVec("netserve_requests_total", "verdict"),
		shedTotal:     cfg.reg.Counter("netserve_shed_total"),
		slowCuts:      cfg.reg.Counter("netserve_slow_disconnects_total"),
		latHist:       cfg.reg.Histogram("netserve_request_seconds", obs.ExpBucketsRange(1e-6, 4, 12)),
		rxFrames:      cfg.reg.Counter("netserve_rx_frames_total"),
	}
	s.vAccept = s.verdicts.With("accept")
	s.vReject = s.verdicts.With("reject")
	s.vShed = s.verdicts.With("shed")
	s.vError = s.verdicts.With("error")
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Listener exposes the server's listener so in-process harnesses (the
// gateway tests, the cluster bench) can hold the real net.Listener of a
// backend they plan to kill.
func (s *Server) Listener() net.Listener { return s.ln }

// Abort kills the server without draining: the listener and every
// connection close immediately, so verdicts still in flight never reach
// the wire and clients observe transport errors — the in-process
// equivalent of kill -9 at the wire layer. The underlying Admitter is
// untouched: requests already dispatched into it run to completion
// server-side, they just go unacknowledged, which is exactly the
// "decided but never acked" tail the failover proof reasons about.
// Idempotent, and mutually idempotent with Close.
func (s *Server) Abort() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Close drains the server gracefully: stop accepting, stop reading new
// frames, let every dispatched request finish and its verdict reach the
// wire, then close the connections. Requests written by clients but not
// yet read are lost — the client observes a transport error, never a
// fabricated verdict. Close is idempotent and does not touch the
// underlying serve.Service.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.stopReading()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		c := &srvConn{s: s, nc: nc, resp: make(chan respEntry, s.cfg.window+16), m: s.newConnStripes()}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go c.run()
	}
}

// respEntry is one verdict bound for the wire: the pooled buffer
// holding the encoded frame plus, under tracing, the request's span and
// the recorder-clock mark at which the verdict was queued (the
// reply-write stage runs from that mark to the flush that puts the
// frame on the wire). Ownership of fb travels with the entry: the
// worker that encoded it hands it to the writer, and only the writer
// releases it — after the bytes are copied into the buffered writer,
// or on the discard path when the connection dies. The span never
// retains frame bytes, so releasing fb cannot corrupt a trace.
type respEntry struct {
	fb *frameBuf
	sp *obs.Span
	ns int64
}

// srvConn is one client connection: a reader goroutine that dispatches
// pipelined submits, worker goroutines (one per in-flight request) and
// a writer goroutine that batches verdicts onto the wire.
type srvConn struct {
	s        *Server
	nc       net.Conn
	resp     chan respEntry // encoded verdict frames
	m        connStripes    // this connection's counter lanes
	inflight atomic.Int64
	workers  sync.WaitGroup
}

// stopReading unblocks the reader immediately; in-flight work still
// completes and flushes. (An expired read deadline poisons only reads.)
func (c *srvConn) stopReading() {
	c.nc.SetReadDeadline(time.Now())
}

func (c *srvConn) run() {
	s := c.s
	s.connGauge.Add(1)
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.connGauge.Add(-1)
		s.wg.Done()
	}()

	br := bufio.NewReaderSize(c.nc, 32<<10)
	if err := c.handshake(br); err != nil {
		c.nc.Close()
		return
	}

	writerDone := make(chan struct{})
	go c.writeLoop(writerDone)

	c.readLoop(br)

	// Drain: every dispatched worker posts its verdict, then the writer
	// flushes what is left and exits.
	c.workers.Wait()
	close(c.resp)
	<-writerDone
	c.nc.Close()
}

// handshake performs the version exchange under a deadline, so a silent
// or non-protocol peer cannot pin a connection slot.
func (c *srvConn) handshake(br *bufio.Reader) error {
	c.nc.SetReadDeadline(time.Now().Add(c.s.cfg.helloTimeout))
	payload, err := readFrame(br)
	if err != nil {
		return err
	}
	if err := decodeHello(payload); err != nil {
		return err
	}
	c.nc.SetReadDeadline(time.Time{})
	ack := appendHelloAck(nil, helloAck{
		Version:  ProtocolVersion,
		Window:   uint32(c.s.cfg.window),
		Shards:   uint32(c.s.svc.Shards()),
		Machines: uint32(c.s.svc.Machines()),
		Eps:      c.s.svc.Eps(),
		Policy:   c.s.svc.AdmissionPolicy(),
	})
	c.nc.SetWriteDeadline(time.Now().Add(c.s.cfg.writeTimeout))
	_, err = c.nc.Write(ack)
	return err
}

// readLoop decodes pipelined submit frames and dispatches each to its
// own worker. Admission control happens here, sequentially per
// connection, which makes shedding deterministic: a frame is dispatched
// iff a connection-window slot and a server-wide in-flight slot are both
// free at the moment it is read. After the handshake, anything but a
// SUBMIT-BATCH — the retired one-job types 3 and 4 included — is a
// protocol error that ends the connection.
func (c *srvConn) readLoop(br *bufio.Reader) {
	rec := c.s.cfg.spans
	for {
		payload, err := readFrame(br)
		if err != nil {
			return // EOF, deadline from Close, or protocol garbage
		}
		readNs := rec.Now() // span clock mark; 0 when tracing is off
		f, err := decodeSubmitBatch(payload)
		if err != nil {
			return
		}
		c.m.rx.Inc()
		if !c.admit() {
			c.shed(f.ID, len(f.Jobs))
			continue
		}
		// The span is allocated only for dispatched frames and only under
		// tracing; its decode stage covers frame parse + admission.
		var sp *obs.Span
		if rec != nil {
			sp = &obs.Span{JobID: int64(f.Jobs[0].ID), Start: readNs}
			sp.Stages[obs.StageDecode] = rec.Now() - readNs
		}
		go c.serve(f, sp)
	}
}

// admit takes one connection-window slot and one server-wide in-flight
// slot — a frame is one dispatch unit on both, however many jobs it
// carries, because it occupies one worker goroutine and one reply — or
// reports that the frame must be shed. Admission stays sequential per
// connection (only the reader calls it), which keeps shedding
// deterministic.
func (c *srvConn) admit() bool {
	s := c.s
	if c.inflight.Load() >= int64(s.cfg.window) {
		return false
	}
	select {
	case s.inflight <- struct{}{}:
	default:
		return false
	}
	c.inflight.Add(1)
	c.m.inflight.Add(1)
	c.workers.Add(1)
	return true
}

// shed answers a frame the server refused to dispatch: one verdict
// batch with every entry shed — all or nothing, so a conforming client
// never sees a partially shed frame. The shed counters advance per job:
// a shed frame is n refused admissions, not one. The send blocks if the
// writer is behind, which throttles a flooding client instead of
// buffering unboundedly; the write timeout cuts the connection if the
// client will not drain.
func (c *srvConn) shed(id uint64, n int) {
	c.m.shedTot.Add(int64(n))
	c.m.shed.Add(int64(n))
	vs := getVerdicts()[:n]
	for i := range vs {
		vs[i].Status = statusShed
	}
	c.reply(id, vs, nil)
}

// serve runs one frame's jobs through the service and posts the verdict
// batch. The service decides the jobs one at a time in frame order and
// — under durability — the whole frame shares one group-commit fsync;
// the reply leaves only after every job has its durable verdict, so a
// verdict batch on the wire is n kept promises.
func (c *srvConn) serve(f submitBatchFrame, sp *obs.Span) {
	defer c.workers.Done()
	s := c.s
	if s.cfg.submitGate != nil {
		s.cfg.submitGate()
	}
	start := time.Now()
	results := s.svc.SubmitBatchSpan(f.Jobs, sp)
	s.latHist.Observe(time.Since(start).Seconds())
	<-s.inflight
	c.inflight.Add(-1)
	c.m.inflight.Add(-1)
	if sp != nil {
		// Whatever the Admitter filled in, the span's verdict is the
		// frame's outcome as the client will see it.
		sp.Verdict = serve.SpanVerdict(results)
	}
	c.reply(f.ID, c.verdicts(results), sp)
}

// verdicts maps the Admitter's per-job results onto wire verdicts in a
// pooled slice and counts them. It is kept out of serve so that the
// frame beneath the Admitter call stays small.
func (c *srvConn) verdicts(results []serve.BatchResult) []batchVerdict {
	vs := getVerdicts()[:len(results)]
	for i, r := range results {
		v := &vs[i]
		switch {
		case errors.Is(r.Err, serve.ErrBackpressure):
			// The shard queue itself is full: same overload story, same
			// retryable verdict.
			v.Status = statusShed
			c.m.shedTot.Inc()
			c.m.shed.Inc()
		case r.Err != nil:
			v.Status = statusError
			v.Msg = r.Err.Error()
			c.m.errs.Inc()
		case r.Dec.Accepted:
			v.Status = statusAccept
			v.Machine = int64(r.Dec.Machine)
			v.Start = r.Dec.Start
			c.m.accept.Inc()
		default:
			v.Status = statusReject
			c.m.reject.Inc()
		}
	}
	return vs
}

// reply encodes a verdict batch from the pooled verdict slice vs,
// returns the slice to its pool, and hands the frame to the writer.
func (c *srvConn) reply(id uint64, vs []batchVerdict, sp *obs.Span) {
	fb := getFrameBuf()
	fb.b = appendVerdictBatch(fb.b, verdictBatchFrame{ID: id, Verdicts: vs})
	putVerdicts(vs)
	c.resp <- respEntry{fb: fb, sp: sp, ns: c.s.cfg.spans.Now()}
}

// writeLoop batches verdicts onto the wire: it blocks for one frame,
// then opportunistically coalesces everything already queued into the
// buffered writer and flushes once — the mirror image of the shard
// goroutine's batch draining. A write (or flush) that cannot complete
// within the write timeout marks the client slow and cuts the
// connection; pending verdicts are discarded, which is safe because the
// decisions themselves are already recorded server-side.
func (c *srvConn) writeLoop(done chan struct{}) {
	defer close(done)
	rec := c.s.cfg.spans
	bw := bufio.NewWriterSize(c.nc, 32<<10)
	fail := func(err error) {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			c.s.slowCuts.Inc()
		}
		c.nc.Close() // unblocks the reader; workers still drain into resp
		for e := range c.resp {
			// Discard until the conn goroutine closes the channel; the
			// pooled buffers still go back — losing a frame must not
			// leak its scratch.
			e.fb.release()
		}
	}
	// pending collects the spans of the frames coalesced into the current
	// flush; they finish together once the flush lands on the wire.
	// Spans of frames lost to a write failure are dropped, matching the
	// verdicts themselves.
	var pending []respEntry
	for e := range c.resp {
		c.nc.SetWriteDeadline(time.Now().Add(c.s.cfg.writeTimeout))
		// bufio.Writer copies on Write, so the pooled buffer is free the
		// moment Write returns — no need to hold it across the flush.
		_, err := bw.Write(e.fb.b)
		e.fb.release()
		if err != nil {
			fail(err)
			return
		}
		if e.sp != nil {
			pending = append(pending, e)
		}
	coalesce:
		for {
			select {
			case more, ok := <-c.resp:
				if !ok {
					break coalesce
				}
				_, err := bw.Write(more.fb.b)
				more.fb.release()
				if err != nil {
					fail(err)
					return
				}
				if more.sp != nil {
					pending = append(pending, more)
				}
			default:
				break coalesce
			}
		}
		if err := bw.Flush(); err != nil {
			fail(err)
			return
		}
		if len(pending) > 0 {
			flushedNs := rec.Now()
			for _, p := range pending {
				p.sp.Stages[obs.StageReply] = flushedNs - p.ns
				rec.Finish(p.sp)
			}
			pending = pending[:0]
		}
	}
	bw.Flush()
}
