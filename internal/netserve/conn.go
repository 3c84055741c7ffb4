package netserve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/hix"
	"repro/internal/hixrt"
	"repro/internal/wire"
)

// errDrained reports an idle wait ended by graceful shutdown.
var errDrained = errors.New("netserve: draining")

// errAborted reports a read loop cut short by its executor hitting a
// terminal error.
var errAborted = errors.New("netserve: connection aborted")

// outFrame is one queued frame on a connection's send path: tagged for
// responses and payload chunks, untagged for Error and Goodbye. When
// buf is non-nil the body aliases pooled storage owned by this frame;
// the writer releases it once the frame is written (or dropped).
type outFrame struct {
	op     wire.Opcode
	tag    uint32
	tagged bool
	body   []byte
	buf    *wire.Buf
}

func (f *outFrame) release() {
	if f.buf != nil {
		f.buf.Release()
		f.buf = nil
	}
}

// conn bridges one TCP connection onto one in-process HIX session. The
// handler goroutine owns the read side and feeds a serial executor,
// which owns the session; a dedicated writer goroutine drains the send
// queue so a slow peer backpressures only its own connection.
//
// Shutdown interruption is precise: while the handler idles between
// requests it waits for the next frame header with a non-destructive
// Peek, which Shutdown may cut short at any time (no bytes are lost).
// Once a frame has started arriving the connection is "busy" —
// interruptRead leaves busy reads alone, so a request already in
// flight always completes and flushes its response before Goodbye.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	fr  *wire.FrameReader // pooled destructive reads

	sess *hixrt.Session

	// readMu orders deadline writes between the handler and
	// interruptRead; busy marks a destructive read in progress that
	// drain must not cut short. lastArm is when the read deadline was
	// last pushed out — deadline writes are syscalls, so they are
	// re-armed at most once per quarter of ReadTimeout (a stall is then
	// detected after 0.75x–1x the configured timeout).
	readMu  sync.Mutex
	busy    bool
	lastArm time.Time

	sendQ      chan outFrame
	writerDone chan struct{}
	wfailed    atomic.Bool
	// aborted marks a connection whose executor hit a terminal error;
	// the read loop must stop instead of feeding it more work.
	aborted atomic.Bool
}

func newConn(s *Server, nc net.Conn) *conn {
	br := bufio.NewReaderSize(nc, 64<<10)
	return &conn{
		srv:        s,
		nc:         nc,
		br:         br,
		fr:         wire.NewFrameReader(br),
		sendQ:      make(chan outFrame, s.cfg.SendQueue),
		writerDone: make(chan struct{}),
	}
}

// interruptRead wakes the handler out of an idle wait so a draining
// server doesn't sit out the idle timeout. A busy connection (request
// frame mid-read) is left alone; its handler observes the drain flag
// after the in-flight request completes.
func (c *conn) interruptRead() {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	if !c.busy {
		_ = c.nc.SetReadDeadline(time.Now())
	}
}

func (c *conn) setBusy(b bool) {
	c.readMu.Lock()
	c.busy = b
	c.readMu.Unlock()
}

// waitFrame blocks until a full frame header is buffered (consuming
// nothing), the idle deadline passes, or the server drains. During a
// drain a partially arrived frame gets one idle-timeout grace period to
// finish instead of being cut mid-frame.
func (c *conn) waitFrame() error {
	grace := false
	for {
		c.readMu.Lock()
		if c.aborted.Load() {
			c.readMu.Unlock()
			return errAborted
		}
		c.busy = false
		now := time.Now()
		switch {
		case c.srv.isDraining() && !grace && c.br.Buffered() == 0:
			_ = c.nc.SetReadDeadline(now)
			c.lastArm = time.Time{}
		case c.srv.isDraining():
			// Grace period for a partially arrived frame: always a
			// fresh, full timeout.
			_ = c.nc.SetReadDeadline(now.Add(c.srv.cfg.ReadTimeout))
			c.lastArm = now
		case now.Sub(c.lastArm) > c.srv.cfg.ReadTimeout/4:
			_ = c.nc.SetReadDeadline(now.Add(c.srv.cfg.ReadTimeout))
			c.lastArm = now
		}
		c.readMu.Unlock()
		_, err := c.br.Peek(wire.HeaderSize)
		if err == nil {
			return nil
		}
		if errors.Is(err, os.ErrDeadlineExceeded) && c.srv.isDraining() {
			if c.br.Buffered() == 0 {
				return errDrained
			}
			if !grace {
				grace = true
				continue
			}
			// The grace period expired with the frame still partial:
			// this is a drain abort, not an idle timeout — surface it
			// as errDrained so the client gets a clean Goodbye instead
			// of an "idle timeout" protocol error.
			return errDrained
		}
		return err
	}
}

// armRead pushes the read deadline out under the coarse re-arm policy.
// An aborted connection keeps its cut deadline so in-progress reads
// fail fast instead of waiting out a fresh timeout.
func (c *conn) armRead() {
	now := time.Now()
	c.readMu.Lock()
	if !c.aborted.Load() && now.Sub(c.lastArm) > c.srv.cfg.ReadTimeout/4 {
		_ = c.nc.SetReadDeadline(now.Add(c.srv.cfg.ReadTimeout))
		c.lastArm = now
	}
	c.readMu.Unlock()
}

// readFrame destructively reads one frame of the serving state under a
// fresh deadline; only call with the connection busy. The body comes
// from the frame pool and the caller must Release it exactly once. A
// frame the decoder refuses (oversized, unknown opcode) is a violation
// the peer is told about; a stream that ends or stalls mid-frame has no
// one left to tell.
func (c *conn) readFrame() (wire.Opcode, *wire.Buf, error) {
	c.armRead()
	op, buf, err := c.fr.Next()
	if err != nil && err != io.EOF && !errors.Is(err, wire.ErrShortFrame) {
		err = c.violation(hix.ErrProtocol, "%v", err)
	}
	return op, buf, err
}

// send queues one frame for the writer; it reports false once the write
// side has failed, so handlers stop producing into a dead connection.
func (c *conn) send(op wire.Opcode, body []byte) bool {
	return c.enqueue(outFrame{op: op, body: body})
}

// sendT queues one tagged frame. buf, when non-nil, is the pooled
// storage body aliases; the writer releases it after the write — on a
// false return the frame was dropped and buf has already been
// released.
func (c *conn) sendT(op wire.Opcode, tag uint32, body []byte, buf *wire.Buf) bool {
	return c.enqueue(outFrame{op: op, tag: tag, tagged: true, body: body, buf: buf})
}

func (c *conn) enqueue(f outFrame) bool {
	if c.wfailed.Load() {
		f.release()
		return false
	}
	// Injected overflow targets Data frames only: those are the bulk
	// DtoH stream, and keeping the site request-driven (one decision
	// per queued chunk on the serial handler) keeps the fault schedule
	// deterministic.
	if f.op == wire.OpTData && c.srv.cfg.Faults.Fire(faults.NetSendQueue) {
		c.wfailed.Store(true)
		c.srv.logf("netserve: injected send-queue overflow")
		f.release()
		return false
	}
	c.sendQ <- f
	return true
}

// writer drains the send queue onto the socket through a vectored
// FrameWriter, flushing whenever the queue runs empty. After a write
// failure it keeps consuming (so the handler never blocks on a dead
// peer) until the queue closes; pooled bodies are released either way.
func (c *conn) writer() {
	defer close(c.writerDone)
	defer func() {
		if r := recover(); r != nil {
			c.wfailed.Store(true)
			c.srv.logf("netserve: writer panic: %v", r)
		}
	}()
	fw := wire.NewFrameWriter(c.nc, 64<<10)
	var lastArm time.Time
	for f := range c.sendQ {
		if c.wfailed.Load() {
			f.release()
			continue
		}
		// Coarse re-arm: one write-deadline syscall per quarter-timeout,
		// not per frame (a stalled peer is detected after 0.75x–1x
		// WriteTimeout).
		if now := time.Now(); now.Sub(lastArm) > c.srv.cfg.WriteTimeout/4 {
			_ = c.nc.SetWriteDeadline(now.Add(c.srv.cfg.WriteTimeout))
			lastArm = now
		}
		var err error
		if f.tagged {
			err = fw.WriteTagged(f.op, f.tag, f.body)
		} else {
			err = fw.WriteFrame(f.op, f.body)
		}
		f.release()
		if err != nil {
			c.wfailed.Store(true)
			c.srv.logf("netserve: write: %v", err)
			continue
		}
		if len(c.sendQ) == 0 {
			if err := fw.Flush(); err != nil {
				c.wfailed.Store(true)
				c.srv.logf("netserve: flush: %v", err)
			}
		}
	}
	if !c.wfailed.Load() {
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
		_ = fw.Flush()
	}
}

// sendNow writes one frame directly (handshake replies, before the
// writer goroutine exists).
func (c *conn) sendNow(op wire.Opcode, body []byte) {
	_ = c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
	_ = wire.WriteFrame(c.nc, op, body)
}

// run serves the connection to completion: handshake, request loop,
// drained teardown. The teardown order matters: stop reading, flush
// every queued frame, close the socket, close the session.
func (c *conn) run() {
	defer c.nc.Close()
	// A panic anywhere in this connection's handling (a hostile
	// request tripping a bug, instrumentation hooks, injected faults)
	// must cost only this connection, never the server: the recover
	// runs after the deferred session teardown and writer drain, so
	// even a panicking handler leaves no leaked session behind.
	defer func() {
		if r := recover(); r != nil {
			c.srv.logf("netserve: connection handler panic: %v", r)
		}
	}()
	if !c.handshake() {
		return
	}
	defer c.srv.closeSession(c.sess)
	go c.writer()
	defer func() {
		close(c.sendQ)
		<-c.writerDone
	}()
	c.serve()
}

// handshake reads the Hello, checks its version range, opens the bridged
// session, and answers Welcome. Failures answer a typed Error frame
// directly. Reports whether the connection reached serving state.
func (c *conn) handshake() bool {
	if err := c.waitFrame(); err != nil {
		if err == errDrained {
			c.sendNow(wire.OpGoodbye, nil)
		} else if err != io.EOF {
			c.sendNow(wire.OpError, wire.EncodeError(wire.ECodeProto, err.Error()))
		}
		return false
	}
	c.setBusy(true)
	c.armRead()
	op, buf, err := c.fr.Next()
	if err != nil {
		c.sendNow(wire.OpError, wire.EncodeError(wire.ECodeProto, err.Error()))
		return false
	}
	if op != wire.OpHello {
		buf.Release()
		c.sendNow(wire.OpError, wire.EncodeError(wire.ECodeProto,
			fmt.Sprintf("expected hello, got %v", op)))
		return false
	}
	h, err := wire.DecodeHello(buf.Bytes())
	buf.Release()
	if err != nil {
		code := wire.ECodeProto
		if errors.Is(err, wire.ErrVersion) {
			code = wire.ECodeVersion
		}
		c.sendNow(wire.OpError, wire.EncodeError(code, err.Error()))
		return false
	}
	if err := wire.Negotiate(h.MinVersion, h.MaxVersion); err != nil {
		c.sendNow(wire.OpError, wire.EncodeError(wire.ECodeVersion, err.Error()))
		return false
	}
	if c.srv.isDraining() {
		c.sendNow(wire.OpGoodbye, nil)
		return false
	}
	if !c.srv.authAllow() {
		c.sendNow(wire.OpError, wire.EncodeError(wire.ECodeAuth,
			"authentication circuit breaker open"))
		return false
	}
	// Resumption fast path: a Hello carrying a ticket skips the
	// attested key exchange entirely if the ticket validates. Any
	// refusal is logged by class and falls back — transparently — to
	// the full handshake the client was prepared to pay anyway.
	var sess *hixrt.Session
	resumed := false
	if len(h.Ticket) > 0 {
		st, terr := c.srv.tickets.Open(h.Ticket, h.Measurement)
		if terr == nil {
			sess, terr = c.srv.openSessionResumed(st, c.nc.RemoteAddr().String())
			if terr == nil {
				resumed = true
			}
		}
		if terr != nil {
			c.srv.tickets.fallbacks.Add(1)
			c.srv.logf("netserve: ticket refused, full handshake: %v", terr)
		}
	}
	if sess == nil {
		var err error
		sess, err = c.srv.openSession(h.Measurement, c.nc.RemoteAddr().String())
		if err != nil {
			code := wire.ECodeServer
			if errors.Is(err, hixrt.ErrAttestation) || errors.Is(err, hixrt.ErrAuth) {
				code = wire.ECodeAuth
				c.srv.authResult(false)
			}
			c.sendNow(wire.OpError, wire.EncodeError(code, err.Error()))
			return false
		}
	}
	c.srv.authResult(true)
	c.sess = sess
	w := wire.Welcome{
		Version:     wire.Version,
		SessionID:   sess.ID(),
		SegmentSize: sess.Segment().Size,
		ChunkSize:   uint32(c.srv.m.Cost.CryptoChunk),
		MaxData:     uint32(c.srv.cfg.MaxData),
		MaxInFlight: uint16(c.srv.cfg.MaxInFlight),
		Enclave:     c.srv.ge.Measurement(),
		Resumed:     resumed,
	}
	// Tickets are single-use, so every handshake — full or resumed —
	// hands out the next one.
	if tkt, err := c.srv.mintTicket(sess, h.Measurement); err != nil {
		c.srv.logf("netserve: ticket mint: %v", err)
	} else {
		w.Ticket = tkt
	}
	c.sendNow(wire.OpWelcome, w.Encode())
	return true
}

// tReq is one tagged request handed from the read loop to the
// executor. payload (non-nil for HtoD) is pooled and owned by the
// receiver: the executor releases it after bridging the transfer.
type tReq struct {
	tag     uint32
	req     hix.Request
	payload *wire.Buf
}

func (r *tReq) release() {
	if r.payload != nil {
		r.payload.Release()
		r.payload = nil
	}
}

// serve is the serving state: a read loop dispatches tagged requests
// onto a serial executor through a bounded queue, so up to MaxInFlight
// requests overlap their wire transfer and queueing with execution
// while the session still observes exactly the submission order — the
// ciphertext stream is byte-identical at every window, and a window of
// 1 is lock-step.
func (c *conn) serve() {
	execQ := make(chan *tReq, c.srv.cfg.MaxInFlight)
	execDone := make(chan struct{})
	go c.execute(execQ, execDone)
	sayGoodbye := c.readLoop(execQ)
	// Drain order: stop reading, let the executor finish (and flush
	// replies for) everything already queued, then say Goodbye.
	close(execQ)
	<-execDone
	if sayGoodbye && !c.aborted.Load() {
		c.send(wire.OpGoodbye, nil)
	}
}

// readLoop reads tagged requests (each with its contiguous payload
// frames) and queues them for execution. It reports whether the
// connection should end with a Goodbye (graceful drain); a client
// close ends the loop too, but its Goodbye is the executor's to send
// after the close reply.
func (c *conn) readLoop(execQ chan<- *tReq) (sayGoodbye bool) {
	for {
		if c.wfailed.Load() || c.aborted.Load() {
			return false
		}
		if err := c.waitFrame(); err != nil {
			switch {
			case err == errDrained:
				return true
			case err == errAborted, err == io.EOF:
			case errors.Is(err, os.ErrDeadlineExceeded):
				if c.aborted.Load() {
					return false
				}
				c.send(wire.OpError, wire.EncodeError(wire.ECodeProto, "idle timeout"))
			case errors.Is(err, io.ErrUnexpectedEOF):
				c.srv.logf("netserve: %v", err)
			default:
				c.send(wire.OpError, wire.EncodeError(wire.ECodeProto, err.Error()))
			}
			return false
		}
		// A drop fires as the request arrives: abrupt close, no
		// Goodbye — the client sees the transport die mid-exchange.
		if c.srv.cfg.Faults.Fire(faults.NetDrop) {
			c.srv.logf("netserve: injected connection drop")
			return false
		}
		c.setBusy(true)
		r, err := c.readRequest()
		c.setBusy(false)
		if err != nil {
			if c.aborted.Load() {
				return false
			}
			c.srv.logf("netserve: %v", err)
			return false
		}
		isClose := r.req.Type == hix.ReqClose
		execQ <- r
		if isClose {
			// The client promises no frames after its close request;
			// stop reading so the executor's Goodbye is the last word.
			return false
		}
	}
}

// violation queues the terminal Error frame for a protocol violation
// and returns the same message as a typed error: kind is
// hix.ErrProtocol (framing, tag, desync; ECodeProto on the wire) or
// hixrt.ErrRequest (a length out of range; ECodeRequest). Error frames
// are untagged: they condemn the connection, not one request.
func (c *conn) violation(kind error, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	code := wire.ECodeProto
	if kind == hixrt.ErrRequest {
		code = wire.ECodeRequest
	}
	c.send(wire.OpError, wire.EncodeError(code, msg))
	return fmt.Errorf("%w: %s", kind, msg)
}

// readRequest reads one tagged request frame plus, for HtoD, its
// contiguous same-tag Data frames into a pooled transfer buffer. Any
// protocol violation queues an Error frame (where one applies) and is
// terminal.
func (c *conn) readRequest() (*tReq, error) {
	op, buf, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	defer buf.Release()
	if op != wire.OpTRequest {
		return nil, c.violation(hix.ErrProtocol, "expected tagged request, got %v", op)
	}
	tag, reqBody, err := wire.SplitTag(buf.Bytes())
	if err != nil {
		return nil, c.violation(hix.ErrProtocol, "%v", err)
	}
	req, err := hix.DecodeRequest(reqBody)
	if err != nil {
		return nil, c.violation(hix.ErrProtocol, "%v", err)
	}
	r := &tReq{tag: tag, req: req}
	if req.Type != hix.ReqMemcpyHtoD || req.Flags&gpu.FlagSynthetic != 0 {
		// Synthetic-flagged requests are rejected by the executor
		// before any payload is consumed.
		return r, nil
	}
	if req.Len == 0 || req.Len > c.srv.cfg.MaxTransfer {
		// Reject before consuming payload; the stream is desynced, so
		// this is terminal.
		return nil, c.violation(hixrt.ErrRequest, "HtoD length %d out of range (max %d)", req.Len, c.srv.cfg.MaxTransfer)
	}
	xfer := wire.GetBuf(int(req.Len))
	if err := c.readPayload(tag, xfer.Bytes()); err != nil {
		xfer.Release()
		return nil, err
	}
	r.payload = xfer
	return r, nil
}

// readPayload fills dst from the Data frames that follow an HtoD
// request. Framing is exact: every chunk carries the request's tag and
// exactly min(MaxData, remaining) bytes, or the stream has desynced —
// terminal, before any partial payload reaches the session.
func (c *conn) readPayload(tag uint32, dst []byte) error {
	for got := 0; got < len(dst); {
		op, cb, err := c.readFrame()
		if err != nil {
			return fmt.Errorf("HtoD payload: %w", err)
		}
		if op != wire.OpTData {
			cb.Release()
			return c.violation(hix.ErrProtocol, "expected tagged data, got %v", op)
		}
		ctag, chunk, err := wire.SplitTag(cb.Bytes())
		want := min(c.srv.cfg.MaxData, len(dst)-got)
		switch {
		case err != nil:
			err = c.violation(hix.ErrProtocol, "%v", err)
		case ctag != tag:
			err = c.violation(hix.ErrProtocol, "HtoD payload tag %#x, want %#x", ctag, tag)
		case len(chunk) != want:
			err = c.violation(hix.ErrProtocol, "HtoD payload desync: %d-byte frame at offset %d, want exactly %d",
				len(chunk), got, want)
		}
		if err != nil {
			cb.Release()
			return err
		}
		got += copy(dst[got:], chunk)
		cb.Release()
	}
	return nil
}

// execute runs queued requests serially — the determinism and
// identity contract — and routes tagged replies through the send
// queue. A terminal error aborts the read loop and drains the rest of
// the queue without executing it.
func (c *conn) execute(execQ <-chan *tReq, done chan<- struct{}) {
	defer close(done)
	// cur pins the request being executed so a panic names its tag and
	// peer — without them a multi-connection server's panic log is
	// unattributable.
	var cur *tReq
	defer func() {
		if r := recover(); r != nil {
			if cur != nil {
				c.srv.logf("netserve: executor panic: %v (request tag %#x, remote %s)",
					r, cur.tag, c.nc.RemoteAddr())
			} else {
				c.srv.logf("netserve: executor panic: %v (remote %s)", r, c.nc.RemoteAddr())
			}
			c.abort()
		}
	}()
	failed := false
	var carried *tReq // non-batchable request pulled off the queue by gatherWindow
	for {
		var r *tReq
		if carried != nil {
			r, carried = carried, nil
		} else {
			var ok bool
			if r, ok = <-execQ; !ok {
				break
			}
		}
		if failed || c.wfailed.Load() {
			r.release()
			continue
		}
		if c.batchable(r) {
			var win []*tReq
			win, carried = c.gatherWindow(r, execQ)
			cur = win[0]
			start := time.Now()
			err := c.handleLaunchWindow(win)
			c.srv.observeServe(time.Since(start))
			cur = nil
			for _, wr := range win {
				wr.release()
			}
			if err != nil {
				c.srv.logf("netserve: request: %v", err)
				c.abort()
				failed = true
			}
			continue
		}
		cur = r
		start := time.Now()
		connDone, err := c.handleRequest(r)
		c.srv.observeServe(time.Since(start))
		cur = nil
		r.release()
		if err != nil {
			c.srv.logf("netserve: request: %v", err)
			c.abort()
			failed = true
		}
		if connDone {
			failed = true // drop anything queued behind the close
		}
	}
	if carried != nil {
		carried.release()
	}
}

// batchable reports whether r can ride a windowed launch epoch: the
// session is gated (scheduler mode) and the request is a plain,
// non-synthetic kernel launch. Everything else keeps the one-request
// serve path.
func (c *conn) batchable(r *tReq) bool {
	return c.sess.Gate != nil &&
		r.req.Type == hix.ReqLaunch &&
		r.req.Flags&gpu.FlagSynthetic == 0
}

// windowYields bounds how long gatherWindow waits for a pipelining
// peer's burst to finish landing on the execute queue. Like the
// scheduler's admission window, each yield lets the reader goroutine
// drain frames already in the socket buffer; a sequential client's
// queue stays empty so the window closes immediately.
const windowYields = 4

// gatherWindow greedily drains launch requests already queued behind
// first into one windowed epoch, up to the connection's in-flight
// limit. It returns the window plus the first non-batchable request it
// pulled off the queue (the caller executes that one after the
// window), if any.
func (c *conn) gatherWindow(first *tReq, execQ <-chan *tReq) ([]*tReq, *tReq) {
	win := []*tReq{first}
	maxW := c.srv.cfg.MaxInFlight
	yields := 0
	for len(win) < maxW {
		select {
		case r, ok := <-execQ:
			if !ok {
				return win, nil
			}
			if !c.batchable(r) {
				return win, r
			}
			win = append(win, r)
			continue
		default:
		}
		if yields == windowYields {
			break
		}
		yields++
		runtime.Gosched()
	}
	return win, nil
}

// handleLaunchWindow bridges a gathered window of launches onto the
// session as one serving epoch and routes the per-launch replies in
// tag order. Injected device faults keep their per-launch semantics:
// a fault on the k-th launch serves the first k as a (shorter) window
// and then fails the connection exactly like the single-request path.
func (c *conn) handleLaunchWindow(win []*tReq) error {
	specs := make([]hixrt.LaunchSpec, 0, len(win))
	faultAt := -1
	for i, r := range win {
		if c.srv.cfg.Faults.Fire(faults.GPUDeviceFault) {
			faultAt = i
			break
		}
		specs = append(specs, hixrt.LaunchSpec{Kernel: r.req.Kernel, Params: r.req.Params})
	}
	if len(specs) > 0 {
		errs, terminal := c.sess.LaunchWindow(specs)
		for i := range specs {
			if rerr := c.reply(win[i].tag, errs[i], 0); rerr != nil {
				return rerr
			}
		}
		if terminal != nil {
			return terminal
		}
	}
	if faultAt >= 0 {
		c.send(wire.OpError, wire.EncodeError(wire.ECodeServer, "injected device fault"))
		return errors.New("injected device fault")
	}
	return nil
}

// abort stops the read loop after a terminal executor error: the flag
// makes the loop exit and the deadline write unblocks a read already in
// progress.
func (c *conn) abort() {
	c.readMu.Lock()
	c.aborted.Store(true)
	_ = c.nc.SetReadDeadline(time.Now())
	c.readMu.Unlock()
}

// handleRequest bridges one tagged request onto the session; the
// payload for HtoD was already assembled by the read loop. Reports
// done=true after a client close (Goodbye has been queued).
func (c *conn) handleRequest(r *tReq) (done bool, err error) {
	req := r.req
	if req.Flags&gpu.FlagSynthetic != 0 {
		// Remote sessions are always functional: synthetic (timing-only)
		// transfers carry no bytes and cannot be bridged faithfully.
		return false, c.reply(r.tag, errBadRequest, 0)
	}
	switch req.Type {
	case hix.ReqMemAlloc:
		ptr, err := c.sess.MemAlloc(req.Size)
		return false, c.reply(r.tag, err, uint64(ptr))
	case hix.ReqManagedAlloc:
		ptr, err := c.sess.ManagedAlloc(req.Size)
		return false, c.reply(r.tag, err, uint64(ptr))
	case hix.ReqMemFree, hix.ReqManagedFree:
		return false, c.reply(r.tag, c.sess.MemFree(hixrt.Ptr(req.Ptr)), 0)
	case hix.ReqMemcpyHtoD:
		return false, c.reply(r.tag, c.sess.MemcpyHtoD(hixrt.Ptr(req.Ptr), r.payload.Bytes(), int(req.Len)), 0)
	case hix.ReqMemcpyDtoH:
		return false, c.handleDtoH(r.tag, req)
	case hix.ReqLaunch:
		if c.srv.cfg.Faults.Fire(faults.GPUDeviceFault) {
			c.send(wire.OpError, wire.EncodeError(wire.ECodeServer, "injected device fault"))
			return false, errors.New("injected device fault")
		}
		return false, c.reply(r.tag, c.sess.Launch(req.Kernel, req.Params), 0)
	case hix.ReqClose:
		if err := c.reply(r.tag, c.sess.Close(), 0); err != nil {
			return true, err
		}
		c.send(wire.OpGoodbye, nil)
		return true, nil
	default:
		return false, c.reply(r.tag, errBadRequest, 0)
	}
}

// handleDtoH bridges a download and streams it back as tagged Data
// frames (each a pooled copy the writer releases) after the response.
func (c *conn) handleDtoH(tag uint32, req hix.Request) error {
	if req.Len == 0 || req.Len > c.srv.cfg.MaxTransfer {
		return c.violation(hixrt.ErrRequest, "DtoH length %d out of range (max %d)", req.Len, c.srv.cfg.MaxTransfer)
	}
	xfer := wire.GetBuf(int(req.Len))
	defer xfer.Release()
	buf := xfer.Bytes()
	err := c.sess.MemcpyDtoH(buf, hixrt.Ptr(req.Ptr), len(buf))
	if rerr := c.reply(tag, err, 0); rerr != nil {
		return rerr
	}
	if err != nil {
		return nil // error response sent; no payload follows
	}
	for off := 0; off < len(buf); off += c.srv.cfg.MaxData {
		end := min(off+c.srv.cfg.MaxData, len(buf))
		// Each chunk is copied into its own pooled buffer so the shared
		// xfer buffer can recycle as soon as this handler returns,
		// regardless of how far behind the writer is.
		cb := wire.GetBuf(end - off)
		copy(cb.Bytes(), buf[off:end])
		if !c.sendT(wire.OpTData, tag, cb.Bytes(), cb) {
			return errors.New("DtoH payload: send queue failed")
		}
	}
	return nil
}

// errBadRequest is what handleRequest hands reply for a request the
// bridge refuses without consulting the session.
var errBadRequest = errors.New("netserve: bad request")

// reply answers one request, mapping a session-API error onto the wire
// so it mirrors the in-process error surface: auth failures become
// RespAuthFailed, request refusals RespError; transport-level failures
// (closed session, machine faults) are terminal and answer an Error
// frame instead. The Response is stamped with the session's simulated
// completion instant so remote clients see sim time.
func (c *conn) reply(tag uint32, err error, value uint64) error {
	var resp hix.Response
	switch {
	case err == nil:
		resp.Status, resp.Value = hix.RespOK, value
	case err == errBadRequest:
		resp.Status = hix.RespBadRequest
	case errors.Is(err, hixrt.ErrAuth):
		resp.Status = hix.RespAuthFailed
	case errors.Is(err, hixrt.ErrRequest):
		resp.Status = hix.RespError
	case errors.Is(err, hixrt.ErrClosed):
		c.send(wire.OpError, wire.EncodeError(wire.ECodeRequest, "session closed"))
		return err
	default:
		c.send(wire.OpError, wire.EncodeError(wire.ECodeServer, err.Error()))
		return err
	}
	resp.CompleteNS = int64(c.sess.Now())
	if !c.sendT(wire.OpTResponse, tag, resp.Encode(), nil) {
		return errors.New("netserve: send queue failed")
	}
	return nil
}
