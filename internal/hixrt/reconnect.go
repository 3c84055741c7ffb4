package hixrt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/attest"
	"repro/internal/gpu"
	"repro/internal/hix"
	"repro/internal/wire"
)

// ReconnectingSession wraps RemoteSession with automatic redial and
// session rebuild, so a workload survives a hostile substrate: dropped
// connections, truncated streams, corrupted frames, even a server-side
// auth failure all trigger a fresh dial, a replay of the session's
// journal onto the new server session, and a re-issue of the
// interrupted request.
//
// Correctness rests on two properties of the serving stack. First, the
// server session dies with its connection (netserve hosts exactly one
// session per connection), so a failed request leaves no partial
// server-side effect that a replay could double-apply — rebuilding
// from the journal is exactly-once at the workload level. Second, HIX
// request effects are replayable from the journal: allocations are
// re-created, HtoD transfers re-issued whole from their recorded
// payloads, launches re-run in order. The journal holds plaintext the
// caller already owns (the application is inside its own TCB), so
// recording it weakens nothing.
//
// Device pointers returned to the caller are virtual: stable handles
// in a reserved range that the wrapper translates to whatever pointer
// the current server session assigned. The caller never observes a
// reconnect through its pointers.
type ReconnectingSession struct {
	mu   sync.Mutex
	addr string
	cfg  ReconnectConfig

	s       *RemoteSession // nil between sessions
	journal []journalOp
	live    map[Ptr]*valloc
	nextV   uint64

	jitter        *attest.SeededRNG
	reconnects    int
	resumes       int
	ticket        []byte // freshest resumption ticket from the current session's Welcome
	everConnected bool
	closed        bool
}

// ReconnectConfig tunes DialReconnecting.
type ReconnectConfig struct {
	// Remote configures each underlying dial.
	Remote RemoteConfig
	// MaxAttempts bounds dial/replay/request attempts per operation
	// (default 8).
	MaxAttempts int
	// BaseBackoff is the first retry delay (default 5ms); it doubles
	// per attempt, capped at MaxBackoff (default 500ms), with seeded
	// jitter in [d/2, d).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterSeed seeds the backoff jitter (default: the address), so a
	// retry schedule is reproducible under test.
	JitterSeed string
	// Sleep waits out a backoff delay (default time.Sleep). The load
	// harness and the reconnect tests inject a virtual sleeper here so
	// reconnect storms don't serialize on the wall clock; the jittered
	// delays are still computed (and observable) either way.
	Sleep func(time.Duration)
	// OnRedial, when set, observes every redial attempt after the first
	// dial: attempt is the 1-based retry number within the current
	// operation, cause the error that forced it. Called with the session
	// lock held — observe, don't call back in.
	OnRedial func(attempt int, cause error)
}

// virtBase is the reserved virtual-pointer range handed to callers
// ("VH" — well above both the device heap and hix.ManagedBase).
const virtBase = 0x5648_0000_0000_0000

// valloc is one live virtual allocation and its current remote pointer.
type valloc struct {
	v      Ptr
	size   uint64
	remote Ptr
}

// journalOp is one replayable session effect.
type journalOp struct {
	kind   byte // 'a' alloc, 'm' managed alloc, 'f' free, 'h' HtoD, 'l' launch
	v      Ptr
	size   uint64
	data   []byte // HtoD payload (caller's plaintext, copied)
	kernel string
	params [gpu.NumKernelParams]uint64 // virtual
}

// DialReconnecting opens a resilient remote session. The initial dial
// goes through the same retry loop as every later operation.
func DialReconnecting(addr string, cfg ReconnectConfig) (*ReconnectingSession, error) {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 5 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 500 * time.Millisecond
	}
	if cfg.JitterSeed == "" {
		cfg.JitterSeed = addr
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	r := &ReconnectingSession{
		addr:   addr,
		cfg:    cfg,
		live:   make(map[Ptr]*valloc),
		nextV:  virtBase,
		jitter: attest.NewSeededRNG([]byte("reconnect-jitter|" + cfg.JitterSeed)),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.doLocked(func(*RemoteSession) error { return nil }); err != nil {
		return nil, err
	}
	return r, nil
}

// Reconnects reports how many times the wrapper rebuilt its session
// after the initial dial.
func (r *ReconnectingSession) Reconnects() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reconnects
}

// Resumes reports how many of those rebuilds (plus the initial dial)
// went through the zero-DH ticket fast path.
func (r *ReconnectingSession) Resumes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resumes
}

// retryable classifies an error: transport-class and server-side
// failures warrant a rebuild + re-issue, while request-level rejections
// (bad arguments, unknown kernel) and attestation refusals are the
// caller's to see. A redial always starts a fresh tag space (the pipe
// and its in-flight table die with the connection), so tag-routing
// failures (ErrUnknownTag) rebuild cleanly like a desync. A data-path auth failure (ErrAuth) IS retried: it
// models substrate tampering with one transfer, and a fresh session
// re-issues the whole transfer under fresh keys — persistent tampering
// exhausts the attempts and surfaces.
func retryable(err error) bool {
	if errors.Is(err, ErrBroken) || errors.Is(err, ErrServerClosed) ||
		errors.Is(err, ErrDesync) || errors.Is(err, ErrAuth) ||
		errors.Is(err, ErrUnknownTag) {
		return true
	}
	if errors.Is(err, ErrRequest) || errors.Is(err, ErrClosed) || errors.Is(err, ErrAttestation) {
		return false
	}
	var re *wire.RemoteError
	if errors.As(err, &re) {
		switch re.Code {
		case wire.ECodeServer, wire.ECodeShutdown, wire.ECodeAuth:
			return true
		}
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	return false
}

// backoff returns the capped exponential delay for attempt i (0-based)
// with seeded jitter in [d/2, d).
func (r *ReconnectingSession) backoff(attempt int) time.Duration {
	d := r.cfg.BaseBackoff << uint(attempt)
	if d > r.cfg.MaxBackoff || d <= 0 {
		d = r.cfg.MaxBackoff
	}
	var b [8]byte
	_, _ = r.jitter.Read(b[:])
	u := binary.LittleEndian.Uint64(b[:])
	half := uint64(d / 2)
	if half == 0 {
		return d
	}
	return time.Duration(half + u%half)
}

// dropLocked discards the current session after a retryable failure.
// The session is never reused: after an auth failure or desync its
// stream position and nonce sequence are unknowable, so only a rebuilt
// session is trustworthy.
func (r *ReconnectingSession) dropLocked() {
	if r.s != nil {
		_ = r.s.nc.Close()
		r.s = nil
	}
}

// redialLocked dials a fresh session and replays the journal onto it,
// rebuilding the virtual→remote pointer map.
func (r *ReconnectingSession) redialLocked() error {
	// Present the cached resumption ticket (nil on the first dial, or
	// when the last Welcome carried none): an accepted ticket re-arms
	// the server session with zero public-key work before the journal
	// replays. Tickets are single-use, so cache the replacement ticket
	// from each successful dial's Welcome.
	cfg := r.cfg.Remote
	cfg.Ticket = r.ticket
	s, err := DialConfig(r.addr, cfg)
	if err != nil {
		return err
	}
	r.ticket = s.Ticket()
	if s.Resumed() {
		r.resumes++
	}
	// Count every re-established connection (a replay may still fail
	// and force another): each one corresponds to one observed
	// disconnect of a live link.
	if r.everConnected {
		r.reconnects++
	}
	r.everConnected = true
	remotes := make(map[Ptr]Ptr)  // virtual → remote, in journal order
	sizes := make(map[Ptr]uint64) // virtual → size, for interior-pointer ranges
	for i := range r.journal {
		op := &r.journal[i]
		switch op.kind {
		case 'a', 'm':
			var p Ptr
			if op.kind == 'a' {
				p, err = s.MemAlloc(op.size)
			} else {
				p, err = s.ManagedAlloc(op.size)
			}
			if err == nil {
				remotes[op.v] = p
				sizes[op.v] = op.size
			}
		case 'f':
			if p, ok := remotes[op.v]; ok {
				err = s.MemFree(p)
				delete(remotes, op.v)
			}
		case 'h':
			base, ok := remotes[op.v]
			if !ok {
				err = fmt.Errorf("hixrt: replay: HtoD against unknown buffer %#x", uint64(op.v))
				break
			}
			err = s.MemcpyHtoD(base+Ptr(op.size), op.data, 0) // op.size is the offset here
		case 'l':
			params := op.params
			for i, p := range params {
				if p >= virtBase {
					rp, ok := remoteForParam(remotes, sizes, Ptr(p))
					if !ok {
						err = fmt.Errorf("hixrt: replay: launch param %d references unknown buffer %#x", i, p)
					} else {
						params[i] = uint64(rp)
					}
				}
			}
			if err == nil {
				err = s.Launch(op.kernel, params)
			}
		}
		if err != nil {
			_ = s.nc.Close()
			return fmt.Errorf("hixrt: journal replay (op %d/%d): %w", i+1, len(r.journal), err)
		}
	}
	// Install the rebuilt pointer map on the live allocations.
	for v, a := range r.live {
		p, ok := remotes[v]
		if !ok {
			_ = s.nc.Close()
			return fmt.Errorf("hixrt: replay left live buffer %#x unmapped", uint64(v))
		}
		a.remote = p
	}
	r.s = s
	return nil
}

// remoteForParam resolves a virtual pointer (possibly interior)
// against the replay state at this point of the journal: only buffers
// still mapped (allocated and not yet freed, in journal order) match.
func remoteForParam(remotes map[Ptr]Ptr, sizes map[Ptr]uint64, p Ptr) (Ptr, bool) {
	for v, base := range remotes {
		if p >= v && uint64(p-v) < sizes[v] {
			return base + (p - v), true
		}
	}
	return 0, false
}

// translateLocked maps a caller-visible virtual pointer to the current
// session's remote pointer.
func (r *ReconnectingSession) translateLocked(p Ptr) (Ptr, *valloc, error) {
	for v, a := range r.live {
		if p >= v && uint64(p-v) < a.size {
			return a.remote + (p - v), a, nil
		}
	}
	return 0, nil, fmt.Errorf("%w: pointer %#x is not a live allocation", ErrRequest, uint64(p))
}

// doLocked runs fn against a healthy session, rebuilding and retrying
// on retryable failures with capped exponential backoff. fn is always
// handed the CURRENT session and must re-derive remote pointers per
// attempt (the pointer map changes on every rebuild).
func (r *ReconnectingSession) doLocked(fn func(*RemoteSession) error) error {
	if r.closed {
		return ErrClosed
	}
	var last error
	for attempt := 0; attempt < r.cfg.MaxAttempts; attempt++ {
		if r.s == nil {
			if attempt > 0 {
				r.cfg.Sleep(r.backoff(attempt - 1))
				if r.cfg.OnRedial != nil {
					r.cfg.OnRedial(attempt, last)
				}
			}
			if err := r.redialLocked(); err != nil {
				last = err
				if !retryableDial(err) {
					return err
				}
				continue
			}
		}
		err := fn(r.s)
		if err == nil {
			return nil
		}
		if !retryable(err) {
			return err
		}
		last = err
		r.dropLocked()
	}
	return fmt.Errorf("hixrt: reconnect attempts exhausted: %w", last)
}

// retryableDial classifies dial/replay errors: handshake refusals
// (attestation) surface immediately; transport failures retry.
func retryableDial(err error) bool {
	if errors.Is(err, ErrAttestation) {
		return false
	}
	var re *wire.RemoteError
	if errors.As(err, &re) && re.Code == wire.ECodeRequest {
		return false
	}
	return true
}

// MemAlloc allocates device memory, returning a stable virtual handle.
func (r *ReconnectingSession) MemAlloc(size uint64) (Ptr, error) {
	return r.alloc(size, false)
}

// ManagedAlloc allocates demand-paged device memory.
func (r *ReconnectingSession) ManagedAlloc(size uint64) (Ptr, error) {
	return r.alloc(size, true)
}

func (r *ReconnectingSession) alloc(size uint64, managed bool) (Ptr, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var remote Ptr
	err := r.doLocked(func(s *RemoteSession) error {
		var err error
		if managed {
			remote, err = s.ManagedAlloc(size)
		} else {
			remote, err = s.MemAlloc(size)
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	// Hand out a virtual handle on a 64KB-aligned bump allocator with a
	// guard gap, so interior pointers stay inside their allocation.
	v := Ptr(r.nextV)
	r.nextV += (size + 0xFFFF + 0x10000) &^ 0xFFFF
	r.live[v] = &valloc{v: v, size: size, remote: remote}
	kind := byte('a')
	if managed {
		kind = 'm'
	}
	r.journal = append(r.journal, journalOp{kind: kind, v: v, size: size})
	return v, nil
}

// MemFree releases a virtual allocation.
func (r *ReconnectingSession) MemFree(ptr Ptr) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.live[ptr]
	if !ok {
		return fmt.Errorf("%w: free of unknown pointer %#x", ErrRequest, uint64(ptr))
	}
	err := r.doLocked(func(s *RemoteSession) error {
		return s.MemFree(a.remote)
	})
	if err != nil {
		return err
	}
	delete(r.live, ptr)
	// The free is journaled (not pruned with its alloc): later launches
	// may depend on state those earlier ops produced.
	r.journal = append(r.journal, journalOp{kind: 'f', v: ptr})
	return nil
}

// MemcpyHtoD re-issues the whole transfer on a rebuilt session: the
// journal records the payload, so a mid-transfer fault never leaves a
// half-written buffer visible.
func (r *ReconnectingSession) MemcpyHtoD(dst Ptr, data []byte, logicalLen int) error {
	if len(data) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, a, err := r.translateLocked(dst)
	if err != nil {
		return err
	}
	off := dst - a.v
	if uint64(off)+uint64(len(data)) > a.size {
		return fmt.Errorf("%w: HtoD of %d bytes overruns allocation %#x", ErrRequest, len(data), uint64(a.v))
	}
	err = r.doLocked(func(s *RemoteSession) error {
		return s.MemcpyHtoD(a.remote+off, data, logicalLen)
	})
	if err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	// journalOp.size doubles as the offset for HtoD records.
	r.journal = append(r.journal, journalOp{kind: 'h', v: a.v, size: uint64(off), data: cp})
	return nil
}

// MemcpyDtoH reads back device memory; a faulted transfer is re-read
// whole from the rebuilt session (reads have no server-side effect, so
// re-issue is trivially safe).
func (r *ReconnectingSession) MemcpyDtoH(out []byte, src Ptr, logicalLen int) error {
	if len(out) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, a, err := r.translateLocked(src)
	if err != nil {
		return err
	}
	off := src - a.v
	if uint64(off)+uint64(len(out)) > a.size {
		return fmt.Errorf("%w: DtoH of %d bytes overruns allocation %#x", ErrRequest, len(out), uint64(a.v))
	}
	return r.doLocked(func(s *RemoteSession) error {
		return s.MemcpyDtoH(out, a.remote+off, logicalLen)
	})
}

// Launch runs a kernel, translating any virtual pointers among the
// params to the current session's remote pointers.
func (r *ReconnectingSession) Launch(kernel string, params [gpu.NumKernelParams]uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.doLocked(func(s *RemoteSession) error {
		tp := params
		for i, p := range tp {
			if p >= virtBase {
				rp, _, err := r.translateLocked(Ptr(p))
				if err != nil {
					return err
				}
				tp[i] = uint64(rp)
			}
		}
		return s.Launch(kernel, tp)
	})
	if err != nil {
		return err
	}
	r.journal = append(r.journal, journalOp{kind: 'l', kernel: kernel, params: params})
	return nil
}

// SessionID reports the CURRENT underlying session's id (it changes
// across rebuilds); 0 when disconnected.
func (r *ReconnectingSession) SessionID() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.s == nil {
		return 0
	}
	return r.s.SessionID()
}

// Close tears down the wrapper. Transport failures during the goodbye
// are swallowed: the server session dies with the connection anyway.
func (r *ReconnectingSession) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if r.s == nil {
		return nil
	}
	err := r.s.Close()
	r.s = nil
	if err != nil && !retryable(err) {
		return err
	}
	return nil
}

func init() {
	// The virtual range must sit above the managed range so MemFree's
	// managed/plain dispatch in the underlying session never misfires
	// on a translated pointer.
	if virtBase <= hix.ManagedBase {
		panic("hixrt: virtual pointer range overlaps managed device range")
	}
}
