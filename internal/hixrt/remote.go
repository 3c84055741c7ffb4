package hixrt

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attest"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/hix"
	"repro/internal/wire"
)

// Remote sessions: the client half of the network serving layer. Dial
// connects to a hixserve front-end (internal/netserve), performs the
// wire handshake (the client's attestation measurement and an optional
// resumption ticket), and returns a RemoteSession with the same
// MemAlloc/MemcpyHtoD/Launch/MemcpyDtoH/MemFree/Close surface as the
// in-process Session — existing workloads run unmodified over TCP.
//
// The TCP link models the application↔user-enclave boundary: the server
// hosts this client's user enclave, whose identity (MRENCLAVE image) is
// the measurement sent in the handshake, and the full HIX protocol
// (attestation, three-party DH, OCB, single-copy data path) runs
// between that user enclave and the GPU enclave exactly as in process.

// Remote-session errors.
var (
	// ErrServerClosed reports the server draining the connection
	// (graceful shutdown) before or during a request.
	ErrServerClosed = errors.New("hixrt: server closed connection")
	// ErrBroken reports a remote session whose transport failed; no
	// further requests are possible.
	ErrBroken = errors.New("hixrt: remote session broken")
	// ErrDesync reports a response stream that violated the exact
	// payload framing contract (a Data frame that is not the expected
	// byte count): the connection can no longer be trusted to be
	// frame-aligned and is torn down.
	ErrDesync = errors.New("hixrt: response stream desynchronized")
)

// DefaultRemoteMeasurement identifies remote clients that don't present
// their own application measurement.
func DefaultRemoteMeasurement() attest.Measurement {
	return attest.Measure([]byte("hix remote client v1"))
}

// RemoteConfig tunes Dial.
type RemoteConfig struct {
	// Measurement is the client application's attestation measurement,
	// sent in the handshake and used by the server as the measured
	// image of the user enclave it hosts for this connection. Zero
	// means DefaultRemoteMeasurement.
	Measurement attest.Measurement
	// DialTimeout bounds the TCP connect + handshake (default 10s).
	DialTimeout time.Duration
	// IOTimeout bounds each request/response exchange on the wire
	// (default 60s).
	IOTimeout time.Duration
	// Faults optionally wraps the dialed connection with a seeded
	// wire-fault schedule (nil disables injection).
	Faults *faults.Plane
	// MaxInFlight caps this client's pipelining window below the bound
	// the server advertises in its Welcome (0 means use the server's
	// bound unchanged). 1 is lock-step: one exchange on the wire at a
	// time.
	MaxInFlight int
	// Ticket, when non-empty, is a resumption ticket from a previous
	// Welcome: presenting it lets the server re-arm the session with
	// no attested key exchange. A refused ticket silently falls back to
	// the full handshake, so a stale ticket costs nothing.
	Ticket []byte
}

// RemoteSession is an attested HIX session reached over the wire
// protocol. It runs on a pipelined core (see pipe): blocking methods
// submit one tagged exchange and wait, and up to MaxInFlight exchanges
// from concurrent goroutines — or from the async Start* methods — share
// the connection with out-of-order completion; at a window of 1 that is
// lock-step. A RemoteSession is safe for use from multiple goroutines.
type RemoteSession struct {
	mu sync.Mutex // guards closed

	nc net.Conn
	br *bufio.Reader

	sid     uint32
	segSize uint64
	chunk   int
	maxData int
	enclave attest.Measurement
	resumed bool
	ticket  []byte // fresh resumption ticket from the Welcome, if any

	pipe *pipe

	ioTimeout time.Duration

	// lastComplete is the latest server-side simulated completion
	// instant (Response.CompleteNS) observed on this connection.
	lastComplete atomic.Int64

	closed bool
}

// CompleteNS reports the server-side simulated completion instant
// (nanoseconds on the server's virtual clock) carried by the most
// recently completed exchange, monotone across out-of-order
// completions. Deltas across sequential exchanges measure per-request
// simulated service latency — the currency every benchmark reports —
// without needing a client-side timeline.
func (s *RemoteSession) CompleteNS() int64 { return s.lastComplete.Load() }

// noteComplete folds one response's completion instant into the
// monotone high-water mark.
func (s *RemoteSession) noteComplete(ns int64) {
	for {
		old := s.lastComplete.Load()
		if ns <= old || s.lastComplete.CompareAndSwap(old, ns) {
			return
		}
	}
}

// Dial opens a remote session with default configuration.
func Dial(addr string) (*RemoteSession, error) {
	return DialConfig(addr, RemoteConfig{})
}

// DialConfig opens a remote session.
func DialConfig(addr string, cfg RemoteConfig) (*RemoteSession, error) {
	if cfg.Measurement.IsZero() {
		cfg.Measurement = DefaultRemoteMeasurement()
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 60 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	nc = cfg.Faults.WrapConn(nc, "client")
	s := &RemoteSession{
		nc:        nc,
		br:        bufio.NewReaderSize(nc, 64<<10),
		ioTimeout: cfg.IOTimeout,
	}
	window, err := s.handshake(cfg)
	if err != nil {
		nc.Close()
		return nil, err
	}
	// The dial deadline must not linger into the serving phase; the
	// pipe manages read/write deadlines itself.
	if err := s.nc.SetDeadline(time.Time{}); err != nil {
		nc.Close()
		return nil, err
	}
	if cfg.MaxInFlight > 0 && cfg.MaxInFlight < window {
		window = cfg.MaxInFlight
	}
	s.pipe = newPipe(s, window)
	return s, nil
}

// handshake exchanges Hello and Welcome and returns the server's bound
// on in-flight requests.
func (s *RemoteSession) handshake(cfg RemoteConfig) (int, error) {
	deadline := time.Now().Add(cfg.DialTimeout)
	if err := s.nc.SetDeadline(deadline); err != nil {
		return 0, err
	}
	hello := wire.Hello{
		MinVersion:  wire.Version,
		MaxVersion:  wire.Version,
		Measurement: cfg.Measurement,
	}
	if len(cfg.Ticket) > 0 {
		hello.Ticket = cfg.Ticket
		if cfg.Faults.Fire(faults.NetTicket) {
			// Injected ticket corruption: flip a byte in a copy (never
			// the caller's cached ticket) so the server's validation must
			// refuse it and fall back to the full handshake.
			tkt := make([]byte, len(cfg.Ticket))
			copy(tkt, cfg.Ticket)
			tkt[len(tkt)/2] ^= 0x40
			hello.Ticket = tkt
		}
	}
	bw := bufio.NewWriter(s.nc)
	if err := wire.WriteFrame(bw, wire.OpHello, hello.Encode()); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	op, body, err := wire.ReadFrame(s.br)
	if err != nil {
		return 0, fmt.Errorf("hixrt: handshake: %w", err)
	}
	switch op {
	case wire.OpWelcome:
		w, err := wire.DecodeWelcome(body)
		if err != nil {
			return 0, fmt.Errorf("hixrt: handshake: %w", err)
		}
		s.sid = w.SessionID
		s.segSize = w.SegmentSize
		s.chunk = int(w.ChunkSize)
		s.maxData = int(w.MaxData)
		s.enclave = w.Enclave
		s.resumed = w.Resumed
		s.ticket = w.Ticket
		return int(w.MaxInFlight), nil
	case wire.OpError:
		re, err := wire.DecodeError(body)
		if err != nil {
			return 0, fmt.Errorf("hixrt: handshake: %w", err)
		}
		return 0, fmt.Errorf("hixrt: handshake refused: %w", re)
	case wire.OpGoodbye:
		return 0, ErrServerClosed
	default:
		return 0, fmt.Errorf("hixrt: handshake: %w: unexpected %v", hix.ErrProtocol, op)
	}
}

// SessionID returns the server-side HIX session id this connection was
// bridged onto.
func (s *RemoteSession) SessionID() uint32 { return s.sid }

// MaxInFlight returns the effective pipelining window: the server's
// bound capped by RemoteConfig.MaxInFlight.
func (s *RemoteSession) MaxInFlight() int { return cap(s.pipe.window) }

// EnclaveMeasurement returns the GPU enclave's MRENCLAVE as reported in
// the handshake.
func (s *RemoteSession) EnclaveMeasurement() attest.Measurement { return s.enclave }

// Resumed reports whether this session was established through the
// zero-DH ticket fast path (a presented ticket the server accepted).
func (s *RemoteSession) Resumed() bool { return s.resumed }

// Ticket returns the fresh resumption ticket issued in the Welcome
// (nil if the server could not mint one). Tickets are single-use: present it on the next
// dial and cache the replacement from that dial's Welcome.
func (s *RemoteSession) Ticket() []byte { return s.ticket }

// exchange runs one request/response exchange through the pipelined
// core; concurrent exchanges share the connection.
func (s *RemoteSession) exchange(req hix.Request, payload, out []byte) (hix.Response, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return hix.Response{}, ErrClosed
	}
	return s.pipe.roundTrip(req, payload, out)
}

// MemAlloc allocates device memory on the remote session.
func (s *RemoteSession) MemAlloc(size uint64) (Ptr, error) {
	resp, err := s.exchange(hix.Request{Type: hix.ReqMemAlloc, Size: size}, nil, nil)
	if err != nil {
		return 0, err
	}
	if resp.Status != hix.RespOK {
		return 0, fmt.Errorf("%w: alloc status %d", ErrRequest, resp.Status)
	}
	return Ptr(resp.Value), nil
}

// ManagedAlloc allocates demand-paged device memory remotely.
func (s *RemoteSession) ManagedAlloc(size uint64) (Ptr, error) {
	resp, err := s.exchange(hix.Request{Type: hix.ReqManagedAlloc, Size: size}, nil, nil)
	if err != nil {
		return 0, err
	}
	if resp.Status != hix.RespOK {
		return 0, fmt.Errorf("%w: managed alloc status %d", ErrRequest, resp.Status)
	}
	return Ptr(resp.Value), nil
}

// MemFree releases remote device memory (managed pointers included).
func (s *RemoteSession) MemFree(ptr Ptr) error {
	reqType := hix.ReqMemFree
	if uint64(ptr) >= hix.ManagedBase {
		reqType = hix.ReqManagedFree
	}
	resp, err := s.exchange(hix.Request{Type: reqType, Ptr: uint64(ptr)}, nil, nil)
	if err != nil {
		return err
	}
	if resp.Status != hix.RespOK {
		return fmt.Errorf("%w: free status %d", ErrRequest, resp.Status)
	}
	return nil
}

// MemcpyHtoD moves data to remote device memory. Remote sessions are
// always functional (real bytes); logicalLen is accepted for signature
// parity with the in-process session and ignored.
func (s *RemoteSession) MemcpyHtoD(dst Ptr, data []byte, logicalLen int) error {
	if len(data) == 0 {
		return nil
	}
	req := hix.Request{Type: hix.ReqMemcpyHtoD, Ptr: uint64(dst), Len: uint64(len(data))}
	resp, err := s.exchange(req, data, nil)
	if err != nil {
		return err
	}
	switch resp.Status {
	case hix.RespOK:
		return nil
	case hix.RespAuthFailed:
		return fmt.Errorf("%w: HtoD rejected by in-GPU decryption", ErrAuth)
	default:
		return fmt.Errorf("%w: HtoD status %d", ErrRequest, resp.Status)
	}
}

// MemcpyDtoH moves remote device memory back into out.
func (s *RemoteSession) MemcpyDtoH(out []byte, src Ptr, logicalLen int) error {
	if len(out) == 0 {
		return nil
	}
	req := hix.Request{Type: hix.ReqMemcpyDtoH, Ptr: uint64(src), Len: uint64(len(out))}
	resp, err := s.exchange(req, nil, out)
	if err != nil {
		return err
	}
	switch resp.Status {
	case hix.RespOK:
		return nil
	case hix.RespAuthFailed:
		return fmt.Errorf("%w: DtoH chunk failed authentication", ErrAuth)
	default:
		return fmt.Errorf("%w: DtoH status %d", ErrRequest, resp.Status)
	}
}

// Launch runs a kernel on the remote session.
func (s *RemoteSession) Launch(kernel string, params [gpu.NumKernelParams]uint64) error {
	resp, err := s.exchange(hix.Request{Type: hix.ReqLaunch, Kernel: kernel, Params: params}, nil, nil)
	if err != nil {
		return err
	}
	if resp.Status != hix.RespOK {
		return fmt.Errorf("%w: launch status %d", ErrRequest, resp.Status)
	}
	return nil
}

// Close tears the remote session down and closes the connection. The
// close request is one more pipelined exchange (it queues behind any
// in-flight work — the server executes a connection's requests in
// submission order) and the transport goes down once the reply lands.
// Safe to call more than once; after a transport failure it only closes
// the socket.
func (s *RemoteSession) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	resp, err := s.pipe.roundTrip(hix.Request{Type: hix.ReqClose}, nil, nil)
	_ = s.nc.Close()
	if err != nil {
		if errors.Is(err, ErrServerClosed) {
			return nil
		}
		return err
	}
	if resp.Status != hix.RespOK {
		return fmt.Errorf("%w: close status %d", ErrRequest, resp.Status)
	}
	return nil
}
