// Package netserve is the network serving layer of the HIX
// reproduction: a TCP front-end that owns a simulated machine and its
// GPU enclave and serves remote clients speaking the internal/wire
// protocol (hixrt.Dial).
//
// Each accepted connection is bridged onto a full in-process HIX
// session: the server hosts the client's user enclave (its identity is
// the measurement from the wire handshake), performs the attested
// three-party key exchange with the GPU enclave, and drives the
// OCB-protected request queues and single-copy shared-segment data
// path on the client's behalf. The wire link stands in for the
// application↔user-enclave boundary of a client/server confidential
// offload deployment; every HIX security property holds unchanged
// behind it.
//
// The server is robust by construction:
//
//   - a connection limit with accept backpressure (the listener does
//     not accept beyond MaxConns; excess dials queue in the kernel);
//   - per-connection read and write deadlines, so a stalled peer
//     cannot pin a handler forever;
//   - a per-connection send queue drained by a dedicated writer
//     goroutine, so one slow client blocks only its own connection and
//     never a shared lock or the Serve engine;
//   - graceful shutdown that stops accepting, interrupts idle reads,
//     lets in-flight requests finish and flush their responses, and
//     closes every session deterministically.
package netserve

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/attest"
	"repro/internal/bench/hist"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/hix"
	"repro/internal/hixrt"
	"repro/internal/machine"
	"repro/internal/ocb"
	"repro/internal/part"
	"repro/internal/sched"
	"repro/internal/wire"
)

// QoSParams is one connection's fair-share policy, resolved from its
// handshake measurement by Config.QoS.
type QoSParams struct {
	// Weight is the tenant's fair-share weight (<= 0 means 1).
	Weight int
	// Class is the deadline class (default sched.Latency).
	Class sched.Class
	// Limit rate-limits the tenant in epoch cost units per second (zero
	// = unlimited).
	Limit sched.Limit
}

// Server errors.
var (
	// ErrServerClosed is returned by Serve after Shutdown.
	ErrServerClosed = errors.New("netserve: server closed")
	// ErrNotListening is returned by Serve before Listen.
	ErrNotListening = errors.New("netserve: not listening")
)

// Config assembles a Server.
type Config struct {
	// Machine is the simulated platform. Nil boots a default machine
	// (or MachineConfig if set).
	Machine *machine.Machine
	// MachineConfig configures the machine booted when Machine is nil.
	MachineConfig *machine.Config
	// Enclave is the GPU enclave to serve. Nil launches one on the
	// machine with a fresh vendor authority; non-nil requires Machine
	// and VendorPub.
	Enclave *hix.Enclave
	// VendorPub verifies the GPU enclave's endorsement when creating
	// user enclaves. Required iff Enclave is provided.
	VendorPub ed25519.PublicKey

	// ServeWorkers configures the enclave's serving engine when the
	// server launches it (default 1; ignored with a provided Enclave).
	ServeWorkers int
	// SegmentBytes sizes per-session shared segments when the server
	// launches the enclave (default hix.Launch's 32 MiB).
	SegmentBytes uint64
	// StagingSlots sizes the per-session in-VRAM staging ring when the
	// server launches the enclave.
	StagingSlots int
	// Kernels are registered with the enclave at construction.
	Kernels []*gpu.Kernel

	// MaxConns bounds concurrently served connections (default 8). The
	// accept loop blocks — backpressure — while at the limit.
	MaxConns int
	// ReadTimeout is the per-frame read deadline; an idle or stalled
	// peer is disconnected after it (default 30s).
	ReadTimeout time.Duration
	// WriteTimeout is the per-frame write deadline on the send side
	// (default 10s).
	WriteTimeout time.Duration
	// SendQueue is the per-connection send-queue depth in frames
	// (default 64).
	SendQueue int
	// MaxTransfer bounds one memcpy request's byte count (default
	// 64 MiB); larger requests are a protocol violation.
	MaxTransfer uint64
	// MaxInFlight bounds concurrently outstanding tagged requests per
	// connection and is advertised in the Welcome (default 32); 1 is
	// lock-step.
	MaxInFlight int
	// MaxData bounds one Data frame's payload on this server,
	// advertised in the Welcome (default wire.MaxData, which is also
	// the hard cap). Smaller values trade per-frame overhead for
	// finer-grained streaming — a latency/bench knob.
	MaxData int

	// TicketTTL bounds resumption-ticket life (default
	// DefaultTicketTTL). Tickets are minted on every Welcome and
	// accepted once within the TTL.
	TicketTTL time.Duration
	// TicketNowNanos injects the ticket clock (expiry + anti-replay
	// pruning; default wall clock). Tests pin it to step time
	// deterministically past an expiry.
	TicketNowNanos func() int64

	// SessionWorkers and SessionWindowSlots configure each bridged
	// session's crypto worker pool and request window (defaults: the
	// hixrt defaults).
	SessionWorkers     int
	SessionWindowSlots int
	// OnSession runs after each bridged session opens, before its
	// first request — instrumentation hook (e.g. ciphertext capture).
	OnSession func(*hixrt.Session)

	// Sched enables the cross-connection continuous-batching scheduler
	// (internal/sched): per-connection executors submit serving epochs
	// as tickets instead of waking the GPU enclave themselves, so
	// epochs from all connections coalesce into shared wakeups under
	// the QoS policy. Per-session behavior — ciphertext, per-tenant
	// timelines under sequential load — is identical to the direct
	// path.
	Sched bool
	// SchedQuantum and SchedMaxBatchCost tune the fair-share policy
	// (defaults: sched's). SchedMaxBatchCost is raised to hold at
	// least two SessionWindowSlots windows so a windowed epoch is
	// never an oversized ticket.
	SchedQuantum      int
	SchedMaxBatchCost int
	// SchedNowNanos injects the rate-limiter clock into every device
	// scheduler (default: wall clock). The load harness's replay mode
	// pins it to virtual time so token-bucket defer decisions — and
	// hence the admission trace — are deterministic at a given seed.
	SchedNowNanos func() int64
	// SchedTrace enables the per-scheduler admission trace
	// (sched.Config.Trace): unbounded growth, harness runs only.
	SchedTrace bool
	// QoS resolves a connection's fair-share parameters from its
	// handshake measurement — the server-side policy hook standing in
	// for a deployment's tenant database. Nil means every connection
	// gets weight 1, class Latency, no rate limit.
	QoS func(measure attest.Measurement) QoSParams

	// Logf receives connection-level diagnostics. Nil silences them.
	Logf func(format string, args ...any)

	// Faults optionally injects seeded substrate failures — accepted
	// connections failed or wrapped with wire faults, connections
	// dropped mid-serve, send queues overflowed, attestation
	// mismatches, OCB tag corruption, device faults. Nil disables
	// injection entirely.
	Faults *faults.Plane
	// AuthFailureThreshold trips the auth circuit breaker after this
	// many consecutive authentication/attestation handshake failures
	// (default 4; negative disables the breaker). While open, the
	// breaker refuses handshakes outright — a flood of forged
	// measurements never reaches expensive session setup.
	AuthFailureThreshold int
	// AuthBreakerCooloff is how many handshakes an open breaker
	// refuses before admitting one half-open trial (default 8). The
	// window is counted in connections, not wall time, so breaker
	// behavior is deterministic under the fault plane.
	AuthBreakerCooloff int
}

// Server owns a machine and its GPU-enclave fleet — one enclave per
// attached GPU — and serves remote sessions, placing each onto a
// device partition via the internal/part placer.
type Server struct {
	cfg       Config
	m         *machine.Machine
	ge        *hix.Enclave // primary (fleet device 0) enclave
	ges       []*hix.Enclave
	vendorPub ed25519.PublicKey

	// placer assigns each bridged session a device partition and VRAM
	// reservation; slots remembers the grant for release at teardown
	// (guarded by setupMu). sessDemand is one session's placement
	// demand: its in-VRAM staging-ring footprint.
	placer     *part.Placer
	slots      map[*hixrt.Session]part.Slot
	sessDemand uint64

	// scheds are the cross-connection batching schedulers, one per
	// enclave, index-aligned with ges (nil unless Config.Sched);
	// tenants maps each bridged session to its fair-share principal
	// for teardown (guarded by setupMu).
	scheds  []*sched.Scheduler
	tenants map[*hixrt.Session]*sched.Tenant

	// setupMu serializes session construction and teardown so enclave
	// and OS bookkeeping happen in a deterministic, race-free order.
	setupMu sync.Mutex

	// tickets mints and validates session-resumption tickets.
	tickets *ticketKeeper

	// histMu guards loadHist, the per-request wall service-latency
	// histogram behind the hix.load.hist expvar.
	histMu   sync.Mutex
	loadHist hist.H

	sem chan struct{} // connection-limit semaphore

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool
	drainCh  chan struct{}

	wg        sync.WaitGroup // live connection handlers
	serveDone chan error

	// Auth circuit breaker (see Config.AuthFailureThreshold).
	bkMu          sync.Mutex
	bkOpen        bool
	bkConsecutive int
	bkRejectLeft  int
	bkTrips       int
}

// New assembles a server, booting the machine and launching the GPU
// enclave as needed, and registers cfg.Kernels.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 8
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 30 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.SendQueue <= 0 {
		cfg.SendQueue = 64
	}
	if cfg.MaxTransfer == 0 {
		cfg.MaxTransfer = 64 << 20
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 32
	}
	if cfg.MaxInFlight > 0xFFFF {
		cfg.MaxInFlight = 0xFFFF
	}
	if cfg.MaxData <= 0 || cfg.MaxData > wire.MaxData {
		cfg.MaxData = wire.MaxData
	}
	if cfg.AuthFailureThreshold == 0 {
		cfg.AuthFailureThreshold = 4
	}
	if cfg.AuthBreakerCooloff <= 0 {
		cfg.AuthBreakerCooloff = 8
	}
	m := cfg.Machine
	if m == nil {
		if cfg.Enclave != nil {
			return nil, errors.New("netserve: Enclave provided without its Machine")
		}
		mc := machine.Config{}
		if cfg.MachineConfig != nil {
			mc = *cfg.MachineConfig
		}
		var err error
		m, err = machine.New(mc)
		if err != nil {
			return nil, err
		}
	}
	var ges []*hix.Enclave
	vendorPub := cfg.VendorPub
	if cfg.Enclave == nil {
		// Launch the fleet: one GPU enclave per attached device, all
		// endorsed by the same vendor authority. Identical driver
		// images mean identical measurements, so clients verify one
		// value regardless of where they are placed.
		vendor, err := attest.NewSigningAuthority()
		if err != nil {
			return nil, err
		}
		for i := range m.GPUs {
			ge, err := hix.Launch(hix.Config{
				Machine:             m,
				Vendor:              vendor,
				GPU:                 m.GPUBDFs[i],
				SessionSegmentBytes: cfg.SegmentBytes,
				StagingSlots:        cfg.StagingSlots,
				ServeWorkers:        cfg.ServeWorkers,
			})
			if err != nil {
				return nil, err
			}
			ges = append(ges, ge)
		}
		vendorPub = vendor.PublicKey()
	} else {
		if vendorPub == nil {
			return nil, errors.New("netserve: Enclave provided without VendorPub")
		}
		ges = []*hix.Enclave{cfg.Enclave}
	}
	for _, ge := range ges {
		for _, k := range cfg.Kernels {
			if err := ge.RegisterKernel(k); err != nil {
				return nil, err
			}
		}
	}
	// The placer's topology spans exactly the devices with enclaves:
	// the whole machine in fleet mode, the provided enclave's device
	// otherwise. Slot.Device indexes ges either way.
	topo := part.FromMachine(m)
	if cfg.Enclave != nil {
		topo = part.Topology{Devices: []part.DeviceInfo{{
			Index:      cfg.Enclave.DeviceIndex(),
			Name:       cfg.Enclave.GPUName(),
			Partitions: cfg.Enclave.Partitions(),
		}}}
	}
	var scheds []*sched.Scheduler
	if cfg.Sched {
		mbc := cfg.SchedMaxBatchCost
		if mbc <= 0 {
			mbc = 64 // sched's own default, made explicit to apply the window floor
		}
		// A windowed epoch costs up to SessionWindowSlots units; keep the
		// batch budget at two windows minimum so such an epoch is a
		// normal ticket, never the oversized-admit-alone special case.
		if ws := cfg.SessionWindowSlots; 2*ws > mbc {
			mbc = 2 * ws
		}
		// Same floor for launch windows, which gather up to MaxInFlight
		// pipelined launches into one ticket.
		if 2*cfg.MaxInFlight > mbc {
			mbc = 2 * cfg.MaxInFlight
		}
		for _, ge := range ges {
			scheds = append(scheds, sched.New(sched.Config{
				Batcher:      ge,
				Quantum:      cfg.SchedQuantum,
				MaxBatchCost: mbc,
				NowNanos:     cfg.SchedNowNanos,
				Trace:        cfg.SchedTrace,
			}))
		}
	}
	// One session's placement demand is its in-VRAM staging ring:
	// StagingSlots chunk-sized sealed slots (hix.Launch floors the ring
	// at the classic double buffer).
	slots := cfg.StagingSlots
	if slots < 2 {
		slots = 2
	}
	demand := uint64(slots) * (uint64(m.Cost.CryptoChunk) + ocb.TagSize)
	srv := &Server{
		cfg:        cfg,
		m:          m,
		ge:         ges[0],
		ges:        ges,
		vendorPub:  vendorPub,
		placer:     part.NewPlacer(topo),
		slots:      make(map[*hixrt.Session]part.Slot),
		sessDemand: demand,
		scheds:     scheds,
		tenants:    make(map[*hixrt.Session]*sched.Tenant),
		sem:        make(chan struct{}, cfg.MaxConns),
		conns:      make(map[*conn]struct{}),
		drainCh:    make(chan struct{}),
		serveDone:  make(chan error, 1),
	}
	keeper, err := srv.newKeeper()
	if err != nil {
		return nil, err
	}
	srv.tickets = keeper
	return srv, nil
}

// newKeeper builds the resumption-ticket keeper over this server's
// enclave fleet.
func (s *Server) newKeeper() (*ticketKeeper, error) {
	return newTicketKeeper(func(device int) (attest.Measurement, bool) {
		for _, ge := range s.ges {
			if ge.DeviceIndex() == device {
				return ge.Measurement(), true
			}
		}
		return attest.Measurement{}, false
	}, s.cfg.TicketTTL, s.cfg.TicketNowNanos)
}

// Machine exposes the simulated platform (bench instrumentation).
func (s *Server) Machine() *machine.Machine { return s.m }

// Enclave exposes the primary (fleet device 0) GPU enclave.
func (s *Server) Enclave() *hix.Enclave { return s.ge }

// Enclaves exposes the whole GPU-enclave fleet, device-ordered.
func (s *Server) Enclaves() []*hix.Enclave {
	return append([]*hix.Enclave(nil), s.ges...)
}

// Placer exposes the partition placement scheduler (expvar/bench).
func (s *Server) Placer() *part.Placer { return s.placer }

// Sched exposes the primary device's batching scheduler, nil unless
// Config.Sched (counters for expvar/bench).
func (s *Server) Sched() *sched.Scheduler {
	if len(s.scheds) == 0 {
		return nil
	}
	return s.scheds[0]
}

// Scheds exposes the per-device batching schedulers (device-ordered),
// empty unless Config.Sched. The load harness merges their snapshots
// and admission traces across the fleet.
func (s *Server) Scheds() []*sched.Scheduler {
	return append([]*sched.Scheduler(nil), s.scheds...)
}

// QueueStats is the serving front-end's queue-depth snapshot, the
// overload signal the load harness (and the hix.load expvar) watches:
// admission deferrals accumulate and pending tickets back up before
// latency collapses.
type QueueStats struct {
	Pending    int   `json:"pending"`     // tickets queued across the fleet
	MaxPending int   `json:"max_pending"` // high-water mark
	Deferrals  int64 `json:"deferrals"`   // rate-limiter deferrals
	Conns      int   `json:"conns"`       // live connections
	Sessions   int   `json:"sessions"`    // live hosted sessions
}

// Queue sums the per-device scheduler queue counters (zero when the
// scheduler is off).
func (s *Server) Queue() QueueStats {
	q := QueueStats{Conns: s.ConnCount(), Sessions: s.SessionCount()}
	for _, sc := range s.scheds {
		st := sc.Snapshot()
		q.Pending += st.Pending
		q.MaxPending += st.MaxPending
		q.Deferrals += st.Deferrals
	}
	return q
}

// encIdx maps a placed Slot.Device to its fleet index in ges/scheds.
// Identity in fleet mode; the provided-Enclave topology has one entry
// whose device index may be anything.
func (s *Server) encIdx(dev int) int {
	for i, ge := range s.ges {
		if ge.DeviceIndex() == dev {
			return i
		}
	}
	return 0
}

// VendorPub exposes the vendor endorsement key remote-session user
// enclaves verify against.
func (s *Server) VendorPub() ed25519.PublicKey { return s.vendorPub }

// Listen binds the TCP address (e.g. "127.0.0.1:0").
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		ln.Close()
		return nil, ErrServerClosed
	}
	if s.ln != nil {
		ln.Close()
		return nil, errors.New("netserve: already listening")
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Addr reports the bound address, nil before Listen.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve runs the accept loop until Shutdown (returning ErrServerClosed)
// or a listener failure. A connection slot is acquired before each
// Accept, so the listener applies backpressure at MaxConns instead of
// accepting connections it cannot serve.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return ErrNotListening
	}
	for {
		select {
		case <-s.drainCh:
			return ErrServerClosed
		case s.sem <- struct{}{}:
		}
		if s.isDraining() {
			<-s.sem
			return ErrServerClosed
		}
		nc, err := ln.Accept()
		if err != nil {
			<-s.sem
			if s.isDraining() {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		nc = s.cfg.Faults.WrapConn(nc, "server")
		if s.cfg.Faults.Fire(faults.NetAccept) {
			s.logf("netserve: injected accept failure")
			_ = nc.Close()
			<-s.sem
			continue
		}
		c := newConn(s, nc)
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() { <-s.sem }()
			c.run()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Start is Listen + Serve in the background; the Serve result is
// available via Wait.
func (s *Server) Start(addr string) (net.Addr, error) {
	a, err := s.Listen(addr)
	if err != nil {
		return nil, err
	}
	go func() { s.serveDone <- s.Serve() }()
	return a, nil
}

// Wait blocks until a Serve started with Start returns.
func (s *Server) Wait() error { return <-s.serveDone }

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown gracefully stops the server: the listener closes, idle
// connection reads are interrupted, each handler finishes (and flushes
// the response of) any request already in flight, sends Goodbye, and
// closes its session. Shutdown returns once every handler exited, or
// force-closes the remaining connections when ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	if !already {
		close(s.drainCh)
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		c.interruptRead()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stopSched()
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			_ = c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		s.stopSched()
		return ctx.Err()
	}
}

// stopSched shuts the batching schedulers down once every handler has
// exited (so no epoch can be submitted after the stop). Idempotent.
func (s *Server) stopSched() {
	for _, sc := range s.scheds {
		sc.Stop()
	}
}

// openSession builds the user enclave + attested session for one
// connection (name is the peer address, for scheduler diagnostics).
// Serialized so concurrent handshakes construct enclave and OS state in
// arrival order.
func (s *Server) openSession(measure attest.Measurement, name string) (*hixrt.Session, error) {
	s.setupMu.Lock()
	defer s.setupMu.Unlock()
	if s.cfg.Faults.Fire(faults.AttestMismatch) {
		return nil, fmt.Errorf("%w: injected measurement mismatch", hixrt.ErrAttestation)
	}
	// Resolve the tenant's QoS up front: the placer spreads Latency
	// sessions and packs Bulk ones, and the measurement keys partition
	// affinity so a reconnecting tenant lands back where it ran.
	q := QoSParams{Weight: 1}
	if s.cfg.QoS != nil {
		q = s.cfg.QoS(measure)
	}
	slot, err := s.placer.Place(part.Demand{
		VRAMBytes: s.sessDemand,
		Class:     q.Class,
		Affinity:  fmt.Sprintf("%x", measure[:]),
	})
	if err != nil {
		return nil, err
	}
	idx := s.encIdx(slot.Device)
	client, err := hixrt.NewClient(s.m, s.ges[idx], s.vendorPub, measure[:])
	if err != nil {
		_ = s.placer.Release(slot)
		return nil, err
	}
	client.Partition = slot.Partition + 1
	sess, err := client.OpenSession()
	if err != nil {
		_ = s.placer.Release(slot)
		return nil, err
	}
	s.slots[sess] = slot
	if s.cfg.SessionWorkers > 0 {
		sess.Workers = s.cfg.SessionWorkers
	}
	if s.cfg.SessionWindowSlots > 0 {
		sess.WindowSlots = s.cfg.SessionWindowSlots
	}
	if s.cfg.OnSession != nil {
		s.cfg.OnSession(sess)
	}
	s.installFaultHooks(sess)
	if len(s.scheds) > 0 {
		ten := s.scheds[idx].Join(name, sess.ID(), q.Weight, q.Class, q.Limit)
		sess.Gate = ten
		s.tenants[sess] = ten
	}
	return sess, nil
}

// openSessionResumed is openSession's zero-DH fast path: the sealed
// ticket already authenticated the tenant and carries the session key
// and original session ID, so no attestation and no key exchange run.
// The ticket's placement hint pins the demand to the exact partition
// the session was carved from; if placement cannot land back on the
// ticket's device (session IDs are per-enclave), the resume is
// refused and the caller falls back to the full handshake.
func (s *Server) openSessionResumed(st resumeState, name string) (*hixrt.Session, error) {
	s.setupMu.Lock()
	defer s.setupMu.Unlock()
	q := QoSParams{Weight: 1}
	if s.cfg.QoS != nil {
		q = s.cfg.QoS(st.measure)
	}
	slot, err := s.placer.Place(part.Demand{
		VRAMBytes:       s.sessDemand,
		Class:           q.Class,
		Affinity:        fmt.Sprintf("%x", st.measure[:]),
		Prefer:          true,
		PreferDevice:    int(st.device),
		PreferPartition: int(st.partition),
	})
	if err != nil {
		return nil, err
	}
	if slot.Device != int(st.device) {
		_ = s.placer.Release(slot)
		return nil, errTicketPlacement
	}
	idx := s.encIdx(slot.Device)
	client, err := hixrt.NewClient(s.m, s.ges[idx], s.vendorPub, st.measure[:])
	if err != nil {
		_ = s.placer.Release(slot)
		return nil, err
	}
	client.Partition = slot.Partition + 1
	sess, err := client.OpenResumedSession(st.sid, st.key)
	if err != nil {
		_ = s.placer.Release(slot)
		return nil, err
	}
	s.slots[sess] = slot
	if s.cfg.SessionWorkers > 0 {
		sess.Workers = s.cfg.SessionWorkers
	}
	if s.cfg.SessionWindowSlots > 0 {
		sess.WindowSlots = s.cfg.SessionWindowSlots
	}
	if s.cfg.OnSession != nil {
		s.cfg.OnSession(sess)
	}
	s.installFaultHooks(sess)
	if len(s.scheds) > 0 {
		ten := s.scheds[idx].Join(name, sess.ID(), q.Weight, q.Class, q.Limit)
		sess.Gate = ten
		s.tenants[sess] = ten
	}
	s.tickets.noteAccepted(st.device)
	return sess, nil
}

// mintTicket seals a fresh resumption ticket for the session (called
// on every Welcome, full and resumed alike — tickets are single
// use, so each handshake hands out the next one).
func (s *Server) mintTicket(sess *hixrt.Session, measure attest.Measurement) ([]byte, error) {
	s.setupMu.Lock()
	slot, ok := s.slots[sess]
	s.setupMu.Unlock()
	if !ok {
		return nil, errors.New("netserve: session has no placement slot")
	}
	return s.tickets.Mint(resumeState{
		sid:       sess.ID(),
		key:       sess.ExportKey(),
		measure:   measure,
		device:    uint16(slot.Device),
		partition: uint16(slot.Partition),
		expiryNS:  s.tickets.Expiry(),
	})
}

// RotateTicketKey advances the ticket-key generation: tickets sealed
// under the previous generation stay valid, older ones are refused
// (their holders silently fall back to the full handshake). Returns
// the new generation.
func (s *Server) RotateTicketKey() uint64 { return s.tickets.Rotate() }

// TicketGeneration reports the current ticket-key generation.
func (s *Server) TicketGeneration() uint64 { return s.tickets.Generation() }

// RevokeTicketMeasurement refuses all outstanding tickets bound to
// the tenant measurement — the measurement-registry revocation hook.
func (s *Server) RevokeTicketMeasurement(m attest.Measurement) { s.tickets.Revoke(m) }

// ResumeStats snapshots the resumption counter block (hix.resume).
func (s *Server) ResumeStats() ResumeStats { return s.tickets.Stats() }

// ResumeDeviceStats snapshots the per-device resumption ledger: one
// row per fleet device with the tickets minted for sessions hosted
// there and the resumes it accepted.
func (s *Server) ResumeDeviceStats() []DeviceResumeStats {
	return s.tickets.DeviceStats(len(s.ges))
}

// observeServe records one request's wall service latency into the
// live load histogram.
func (s *Server) observeServe(d time.Duration) {
	s.histMu.Lock()
	s.loadHist.RecordDur(d)
	s.histMu.Unlock()
}

// LoadHist snapshots the per-request wall service-latency histogram
// behind the hix.load.hist expvar.
func (s *Server) LoadHist() hist.Summary {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	return s.loadHist.Summarize()
}

// installFaultHooks chains the GPU-tag corruption site onto the
// session's data-path hooks (composing with any OnSession
// instrumentation). The fault flips one byte of the sealed chunk
// sitting in the inter-enclave shared segment — the classic
// substrate-tampering attack — and the real OCB open then fails, so
// the client must see RespAuthFailed, never silently different bytes.
func (s *Server) installFaultHooks(sess *hixrt.Session) {
	p := s.cfg.Faults
	if p == nil {
		return
	}
	seg := sess.Segment()
	corrupt := func(off, n int) {
		if n == 0 || !p.Fire(faults.GPUTagCorrupt) {
			return
		}
		pos := off + n - 1
		var b [1]byte
		if err := s.m.OS.ShmReadPhys(seg, pos, b[:]); err != nil {
			return
		}
		b[0] ^= 0x41
		_ = s.m.OS.ShmWritePhys(seg, pos, b[:])
		s.logf("netserve: injected tag corruption at segment offset %d", pos)
	}
	prevW, prevR := sess.Hooks.AfterDataWrite, sess.Hooks.AfterDataReady
	sess.Hooks.AfterDataWrite = func(off, n int) {
		if prevW != nil {
			prevW(off, n)
		}
		corrupt(off, n)
	}
	sess.Hooks.AfterDataReady = func(off, n int) {
		if prevR != nil {
			prevR(off, n)
		}
		corrupt(off, n)
	}
}

// authAllow gates a handshake through the auth circuit breaker.
func (s *Server) authAllow() bool {
	if s.cfg.AuthFailureThreshold < 0 {
		return true
	}
	s.bkMu.Lock()
	defer s.bkMu.Unlock()
	if !s.bkOpen {
		return true
	}
	if s.bkRejectLeft > 0 {
		s.bkRejectLeft--
		return false
	}
	// Cooloff spent: admit one half-open trial.
	return true
}

// authResult feeds a handshake's auth outcome back to the breaker.
func (s *Server) authResult(ok bool) {
	if s.cfg.AuthFailureThreshold < 0 {
		return
	}
	s.bkMu.Lock()
	defer s.bkMu.Unlock()
	if ok {
		s.bkOpen = false
		s.bkConsecutive = 0
		return
	}
	s.bkConsecutive++
	if s.bkOpen {
		// The half-open trial failed: re-arm the cooloff.
		s.bkRejectLeft = s.cfg.AuthBreakerCooloff
		return
	}
	if s.bkConsecutive >= s.cfg.AuthFailureThreshold {
		s.bkOpen = true
		s.bkTrips++
		s.bkRejectLeft = s.cfg.AuthBreakerCooloff
	}
}

// BreakerTrips reports how many times the auth circuit breaker opened.
func (s *Server) BreakerTrips() int {
	s.bkMu.Lock()
	defer s.bkMu.Unlock()
	return s.bkTrips
}

// closeSession tears a bridged session down (idempotent if the client
// already sent ReqClose).
func (s *Server) closeSession(sess *hixrt.Session) {
	s.setupMu.Lock()
	defer s.setupMu.Unlock()
	// Close first — the close handshake is itself a gated epoch — then
	// retire the fair-share principal.
	if err := sess.Close(); err != nil {
		s.logf("netserve: session close: %v", err)
	}
	if ten := s.tenants[sess]; ten != nil {
		ten.Leave()
		delete(s.tenants, sess)
	}
	if slot, ok := s.slots[sess]; ok {
		if err := s.placer.Release(slot); err != nil {
			s.logf("netserve: slot release: %v", err)
		}
		delete(s.slots, sess)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// SessionCount reports the fleet's live session count (tests).
func (s *Server) SessionCount() int {
	n := 0
	for _, ge := range s.ges {
		n += ge.SessionCount()
	}
	return n
}

// ConnCount reports currently tracked connections (tests).
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// String describes the server (diagnostics).
func (s *Server) String() string {
	return fmt.Sprintf("netserve.Server(max_conns=%d, sessions=%d)", s.cfg.MaxConns, s.SessionCount())
}
