package hixrt

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/gpu"
	"repro/internal/hix"
	"repro/internal/wire"
)

// The async core of a RemoteSession. A connection keeps up to
// MaxInFlight tagged requests outstanding:
// submissions are registered in an in-flight table keyed by tag and
// handed to a writer goroutine, while a reader goroutine routes tagged
// responses (and their DtoH payload chunks) back to their calls in
// whatever order the server completes them. The blocking Session API
// is preserved on top — each public method is submit + wait — and the
// Start* methods expose the window to callers that want overlap.
//
// Ordering: the server executes one connection's requests serially in
// submission order (pipelining overlaps wire transfer and queueing
// with execution, not the execution itself), so a session observes
// exactly the lock-step op sequence and the ciphertext stream is
// byte-identical at every window — the PR 3 identity invariant.

// ErrUnknownTag reports a tagged reply whose tag matches no in-flight
// request: the stream can no longer be trusted to be aligned with the
// in-flight table, so the session is torn down (retryable, like
// ErrDesync).
var ErrUnknownTag = errors.New("hixrt: reply carries unknown tag")

// call is one in-flight pipelined exchange.
type call struct {
	tag      uint32
	req      hix.Request
	payload  []byte // HtoD payload, written as tagged Data frames after the request
	out      []byte // DtoH destination, filled from tagged Data frames after the response
	got      int    // bytes of out filled so far
	haveResp bool
	resp     hix.Response
	err      error
	done     chan struct{}
}

// pipe multiplexes one wire connection between concurrent submitters.
type pipe struct {
	s *RemoteSession

	mu       sync.Mutex
	inflight map[uint32]*call
	nextTag  uint32
	dead     error     // sticky terminal transport failure
	lastArm  time.Time // when the read deadline was last pushed out

	// window holds one slot per allowed in-flight request; submit
	// acquires, completion releases. writeQ has the same capacity, so a
	// submitter holding a slot never blocks handing its call to the
	// writer.
	window chan struct{}
	writeQ chan *call
	deadCh chan struct{} // closed by fail; unblocks submitters

	writerDone chan struct{}
	readerDone chan struct{}
}

func newPipe(s *RemoteSession, maxInFlight int) *pipe {
	p := &pipe{
		s:          s,
		inflight:   make(map[uint32]*call, maxInFlight),
		window:     make(chan struct{}, maxInFlight),
		writeQ:     make(chan *call, maxInFlight),
		deadCh:     make(chan struct{}),
		writerDone: make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	go p.writeLoop()
	go p.readLoop()
	return p
}

// deadErr returns the sticky failure as a retry-classifiable error.
func (p *pipe) deadErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return wrapDead(p.dead)
}

// wrapDead types a terminal pipe failure: a server-initiated drain
// stays plain ErrServerClosed, everything else is ErrBroken-wrapped.
func wrapDead(err error) error {
	if err == nil {
		return fmt.Errorf("%w: pipe closed", ErrBroken)
	}
	if errors.Is(err, ErrServerClosed) || errors.Is(err, ErrBroken) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrBroken, err)
}

// submit registers one exchange and hands it to the writer, blocking
// while the in-flight window is full. The caller keeps ownership of
// payload and out until the returned call completes.
func (p *pipe) submit(req hix.Request, payload, out []byte) (*call, error) {
	select {
	case p.window <- struct{}{}:
	case <-p.deadCh:
		return nil, p.deadErr()
	}
	c := &call{req: req, payload: payload, out: out, done: make(chan struct{})}
	p.mu.Lock()
	if p.dead != nil {
		err := wrapDead(p.dead)
		p.mu.Unlock()
		return nil, err
	}
	p.nextTag++
	c.tag = p.nextTag
	if len(p.inflight) == 0 {
		// First outstanding request: arm the read deadline (the reader
		// sits deadline-free while idle).
		p.armReadLocked()
	}
	p.inflight[c.tag] = c
	p.mu.Unlock()
	p.writeQ <- c
	return c, nil
}

// wait blocks until the call completes.
func (p *pipe) wait(c *call) (hix.Response, error) {
	<-c.done
	if c.err != nil {
		return hix.Response{}, c.err
	}
	return c.resp, nil
}

// roundTrip is the blocking API over the pipelined core.
func (p *pipe) roundTrip(req hix.Request, payload, out []byte) (hix.Response, error) {
	c, err := p.submit(req, payload, out)
	if err != nil {
		return hix.Response{}, err
	}
	return p.wait(c)
}

// writeLoop drains submissions onto the wire. Flushing only when the
// queue is momentarily empty coalesces a burst of submissions into one
// syscall — on a pipelined connection this batching, not overlap, is
// most of the win.
func (p *pipe) writeLoop() {
	defer close(p.writerDone)
	fw := wire.NewFrameWriter(p.s.nc, 64<<10)
	var lastArm time.Time
	for {
		select {
		case c := <-p.writeQ:
			// Same coarse re-arm policy as the read side: one deadline
			// syscall per quarter-timeout, not per call.
			if now := time.Now(); now.Sub(lastArm) > p.s.ioTimeout/4 {
				if err := p.s.nc.SetWriteDeadline(now.Add(p.s.ioTimeout)); err != nil {
					p.fail(fmt.Errorf("hixrt: pipelined write: %w", err))
					return
				}
				lastArm = now
			}
			if err := p.writeCall(fw, c); err != nil {
				p.fail(fmt.Errorf("hixrt: pipelined write: %w", err))
				return
			}
			if len(p.writeQ) == 0 {
				if err := fw.Flush(); err != nil {
					p.fail(fmt.Errorf("hixrt: pipelined write: %w", err))
					return
				}
			}
		case <-p.deadCh:
			return
		}
	}
}

func (p *pipe) writeCall(fw *wire.FrameWriter, c *call) error {
	if err := fw.WriteTagged(wire.OpTRequest, c.tag, c.req.Encode()); err != nil {
		return err
	}
	for off := 0; off < len(c.payload); off += p.s.maxData {
		end := min(off+p.s.maxData, len(c.payload))
		if err := fw.WriteTagged(wire.OpTData, c.tag, c.payload[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// readLoop routes tagged replies to their in-flight calls.
func (p *pipe) readLoop() {
	defer close(p.readerDone)
	fr := wire.NewFrameReader(p.s.br)
	for {
		op, buf, err := fr.Next()
		if err != nil {
			p.fail(fmt.Errorf("hixrt: pipelined read: %w", err))
			return
		}
		body := buf.Bytes()
		switch op {
		case wire.OpTResponse:
			tag, payload, terr := wire.SplitTag(body)
			if terr != nil {
				buf.Release()
				p.fail(terr)
				return
			}
			resp, derr := hix.DecodeResponse(payload)
			buf.Release()
			if derr != nil {
				p.fail(derr)
				return
			}
			if err := p.deliverResp(tag, resp); err != nil {
				p.fail(err)
				return
			}
		case wire.OpTData:
			tag, payload, terr := wire.SplitTag(body)
			if terr != nil {
				buf.Release()
				p.fail(terr)
				return
			}
			err := p.deliverData(tag, payload)
			buf.Release()
			if err != nil {
				p.fail(err)
				return
			}
		case wire.OpError:
			re, derr := wire.DecodeError(body)
			buf.Release()
			if derr != nil {
				p.fail(derr)
			} else {
				p.fail(re)
			}
			return
		case wire.OpGoodbye:
			buf.Release()
			p.fail(ErrServerClosed)
			return
		default:
			buf.Release()
			p.fail(fmt.Errorf("hixrt: %w: unexpected %v on pipelined stream", hix.ErrProtocol, op))
			return
		}
	}
}

// deliverResp hands a response to its call. Calls expecting a DtoH
// payload stay in flight until their Data chunks arrive.
func (p *pipe) deliverResp(tag uint32, resp hix.Response) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.inflight[tag]
	if c == nil {
		return fmt.Errorf("%w: %#x on response", ErrUnknownTag, tag)
	}
	if c.haveResp {
		return fmt.Errorf("hixrt: %w: duplicate response for tag %#x", hix.ErrProtocol, tag)
	}
	c.resp = resp
	c.haveResp = true
	p.s.noteComplete(resp.CompleteNS)
	if resp.Status != hix.RespOK || len(c.out) == 0 {
		p.completeLocked(c, nil)
	}
	p.touchDeadlineLocked()
	return nil
}

// deliverData copies one tagged DtoH chunk into its call's out buffer
// under the exact-framing contract: each frame must carry exactly
// min(MaxData, remaining) bytes, mirroring how the server chunks a DtoH
// payload. Anything else (an over-send, a short non-final frame) would
// misalign every later reply, so it is ErrDesync and the session is
// torn down.
func (p *pipe) deliverData(tag uint32, payload []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.inflight[tag]
	if c == nil {
		return fmt.Errorf("%w: %#x on data", ErrUnknownTag, tag)
	}
	if !c.haveResp || len(c.out) == 0 {
		return fmt.Errorf("hixrt: %w: Data before response for tag %#x", hix.ErrProtocol, tag)
	}
	want := min(p.s.maxData, len(c.out)-c.got)
	if len(payload) != want {
		return fmt.Errorf("%w: Data frame of %d bytes at offset %d, want exactly %d",
			ErrDesync, len(payload), c.got, want)
	}
	copy(c.out[c.got:], payload)
	c.got += len(payload)
	if c.got == len(c.out) {
		p.completeLocked(c, nil)
	}
	p.touchDeadlineLocked()
	return nil
}

// completeLocked resolves a call and releases its window slot.
func (p *pipe) completeLocked(c *call, err error) {
	delete(p.inflight, c.tag)
	c.err = err
	close(c.done)
	<-p.window
}

// touchDeadlineLocked keeps the read deadline tracking progress: armed
// and extended while requests are outstanding, cleared when idle.
func (p *pipe) touchDeadlineLocked() {
	if len(p.inflight) == 0 {
		_ = p.s.nc.SetReadDeadline(time.Time{})
		p.lastArm = time.Time{}
	} else {
		p.armReadLocked()
	}
}

// armReadLocked pushes the read deadline out, but at most once per
// quarter of the timeout: a SetReadDeadline is a syscall, and paying
// one per delivered frame would eat much of the pipelining win. The
// trade is that a stall is detected after between 0.75x and 1x the
// configured timeout instead of exactly 1x.
func (p *pipe) armReadLocked() {
	now := time.Now()
	if now.Sub(p.lastArm) > p.s.ioTimeout/4 {
		_ = p.s.nc.SetReadDeadline(now.Add(p.s.ioTimeout))
		p.lastArm = now
	}
}

// fail marks the pipe dead, closes the transport, and completes every
// in-flight call with a retry-classifiable error. First failure wins.
func (p *pipe) fail(err error) {
	p.mu.Lock()
	if p.dead != nil {
		p.mu.Unlock()
		return
	}
	p.dead = err
	close(p.deadCh)
	_ = p.s.nc.Close()
	typed := wrapDead(err)
	for tag, c := range p.inflight {
		delete(p.inflight, tag)
		c.err = typed
		close(c.done)
	}
	p.mu.Unlock()
}

// Pending is one in-flight pipelined operation started by a Start*
// method. Wait blocks until the server's reply arrives and maps the
// status exactly like the corresponding blocking method.
type Pending struct {
	p   *pipe
	c   *call       // nil for a zero-length no-op or a failed submit
	typ hix.ReqType // hix request type, drives status mapping
	err error       // submit failure
}

// Wait blocks until the operation completes.
func (pd *Pending) Wait() error {
	if pd.c == nil {
		return pd.err
	}
	resp, err := pd.p.wait(pd.c)
	if err != nil {
		return err
	}
	switch resp.Status {
	case hix.RespOK:
		return nil
	case hix.RespAuthFailed:
		switch pd.typ {
		case hix.ReqMemcpyHtoD:
			return fmt.Errorf("%w: HtoD rejected by in-GPU decryption", ErrAuth)
		case hix.ReqMemcpyDtoH:
			return fmt.Errorf("%w: DtoH chunk failed authentication", ErrAuth)
		}
		return fmt.Errorf("%w: request failed authentication", ErrAuth)
	default:
		return fmt.Errorf("%w: request type %d status %d", ErrRequest, pd.typ, resp.Status)
	}
}

// start submits an async exchange.
func (s *RemoteSession) start(req hix.Request, payload, out []byte) *Pending {
	c, err := s.pipe.submit(req, payload, out)
	return &Pending{p: s.pipe, c: c, typ: req.Type, err: err}
}

// StartMemcpyHtoD begins a pipelined host-to-device transfer. The
// caller must not mutate data until Wait returns.
func (s *RemoteSession) StartMemcpyHtoD(dst Ptr, data []byte) *Pending {
	if len(data) == 0 {
		return &Pending{}
	}
	return s.start(hix.Request{Type: hix.ReqMemcpyHtoD, Ptr: uint64(dst), Len: uint64(len(data))}, data, nil)
}

// StartMemcpyDtoH begins a pipelined device-to-host readback. The
// caller must not touch out until Wait returns.
func (s *RemoteSession) StartMemcpyDtoH(out []byte, src Ptr) *Pending {
	if len(out) == 0 {
		return &Pending{}
	}
	return s.start(hix.Request{Type: hix.ReqMemcpyDtoH, Ptr: uint64(src), Len: uint64(len(out))}, nil, out)
}

// StartLaunch begins a pipelined kernel launch.
func (s *RemoteSession) StartLaunch(kernel string, params [gpu.NumKernelParams]uint64) *Pending {
	return s.start(hix.Request{Type: hix.ReqLaunch, Kernel: kernel, Params: params}, nil, nil)
}
