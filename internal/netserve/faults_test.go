package netserve_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/hixrt"
	"repro/internal/netserve"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// waitDrained polls until the server has no live sessions or tracked
// connections, failing after the deadline.
func waitDrained(t *testing.T, srv *netserve.Server, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if srv.SessionCount() == 0 && srv.ConnCount() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("not drained within %v: %d sessions, %d conns",
				within, srv.SessionCount(), srv.ConnCount())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMidPayloadPeerDeath kills the client between an HtoD request and
// its final Data frame. The hosted session must not leak, the handler
// must not hang past one ReadTimeout, and other connections must be
// unaffected.
func TestMidPayloadPeerDeath(t *testing.T) {
	const readTimeout = 500 * time.Millisecond
	for _, tc := range []struct {
		name  string
		abort func(r *rawConn)
	}{
		// The peer closes cleanly mid-payload: the handler sees EOF at
		// once.
		{"close", func(r *rawConn) { r.nc.Close() }},
		// The peer just stops sending: the handler must give up after
		// one ReadTimeout, not wait for the full payload forever.
		{"abandon", func(r *rawConn) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, netserve.Config{ReadTimeout: readTimeout, MaxConns: 4})

			// A healthy concurrent client the dying peer must not poison.
			healthy, err := hixrt.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer healthy.Close()

			r := dialRaw(t, addr)
			r.hello()
			r.write(htod(2 * wire.MaxData))
			// First chunk arrives whole, then the peer dies before the
			// final Data frame.
			r.write(tframe(wire.OpTData, 1, make([]byte, wire.MaxData)))
			tc.abort(r)

			// The healthy connection serves requests while the dead
			// peer's handler is still stalled mid-payload.
			if err := runMatrixAdd(healthy, 12); err != nil {
				t.Fatalf("concurrent connection poisoned: %v", err)
			}
			if err := healthy.Close(); err != nil {
				t.Fatal(err)
			}
			// The dead peer's handler must give up within one
			// ReadTimeout of its last byte (plus scheduling slack), and
			// its session must not leak.
			waitDrained(t, srv, 2*readTimeout+2*time.Second)
		})
	}
}

// TestDrainAbortSendsGoodbye: a client with a frame partially arrived
// when Shutdown fires gets the grace period, and when the frame never
// completes, a clean Goodbye — not an "idle timeout" protocol error.
func TestDrainAbortSendsGoodbye(t *testing.T) {
	srv, err := netserve.New(netserve.Config{
		Kernels:     []*gpu.Kernel{workloads.MatrixAddKernel()},
		ReadTimeout: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := dialRaw(t, addr.String())
	r.hello()
	// Two bytes of a frame header, never completed.
	r.write([]byte{1, 2})
	time.Sleep(50 * time.Millisecond) // let the bytes reach the handler's buffer
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	op, _, err := wire.ReadFrame(r.nc)
	if err != nil || op != wire.OpGoodbye {
		t.Fatalf("drain-aborted client got op=%v err=%v, want goodbye", op, err)
	}
	if _, _, err := wire.ReadFrame(r.nc); err != io.EOF {
		t.Fatalf("after goodbye: %v, want EOF", err)
	}
	if got := srv.SessionCount(); got != 0 {
		t.Fatalf("%d sessions left", got)
	}
}

// TestAuthCircuitBreaker: consecutive injected attestation failures
// trip the breaker; while open, handshakes are refused without
// touching session setup; after the cooloff a half-open trial succeeds
// and closes it.
func TestAuthCircuitBreaker(t *testing.T) {
	plane := faults.New("breaker-test", faults.Config{
		Rates:  map[string]float64{faults.AttestMismatch: 1},
		Limits: map[string]int{faults.AttestMismatch: 3},
	})
	srv, addr := startServer(t, netserve.Config{
		Faults:               plane,
		AuthFailureThreshold: 3,
		AuthBreakerCooloff:   2,
	})

	dialErr := func() *wire.RemoteError {
		t.Helper()
		_, err := hixrt.Dial(addr)
		if err == nil {
			t.Fatal("dial succeeded, want auth refusal")
		}
		var re *wire.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("refusal not typed: %v", err)
		}
		if re.Code != wire.ECodeAuth {
			t.Fatalf("refusal code %d (%s), want ECodeAuth", re.Code, re.Msg)
		}
		return re
	}

	// Three injected measurement mismatches reach session setup and
	// trip the breaker.
	for i := 0; i < 3; i++ {
		re := dialErr()
		if !strings.Contains(re.Msg, "measurement mismatch") {
			t.Fatalf("dial %d: %q, want injected mismatch", i, re.Msg)
		}
	}
	if got := srv.BreakerTrips(); got != 1 {
		t.Fatalf("BreakerTrips()=%d after threshold, want 1", got)
	}
	// The open breaker refuses the cooloff window outright.
	for i := 0; i < 2; i++ {
		re := dialErr()
		if !strings.Contains(re.Msg, "circuit breaker") {
			t.Fatalf("cooloff dial %d: %q, want breaker refusal", i, re.Msg)
		}
	}
	// Half-open trial: the fault budget is spent, so the handshake
	// succeeds and the breaker closes.
	s, err := hixrt.Dial(addr)
	if err != nil {
		t.Fatalf("half-open trial: %v", err)
	}
	if err := runMatrixAdd(s, 8); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.BreakerTrips(); got != 1 {
		t.Fatalf("BreakerTrips()=%d after recovery, want 1", got)
	}
	// Closed again: the next dial is served straight away.
	s2, err := hixrt.Dial(addr)
	if err != nil {
		t.Fatalf("dial after recovery: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConnectionPanicRecovery: a panic inside one connection's
// handling (here: an instrumentation hook) costs that connection only.
// The server keeps serving, and the panicking connection's session is
// torn down, not leaked.
func TestConnectionPanicRecovery(t *testing.T) {
	var mu sync.Mutex
	sessions := 0
	srv, addr := startServer(t, netserve.Config{
		OnSession: func(s *hixrt.Session) {
			mu.Lock()
			defer mu.Unlock()
			sessions++
			if sessions == 1 {
				s.Hooks.AfterDataWrite = func(off, n int) {
					panic("injected hook panic")
				}
			}
		},
	})
	s, err := hixrt.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := s.MemAlloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	// The upload trips the panicking hook server-side; this client's
	// connection dies with a typed transport error.
	err = s.MemcpyHtoD(ptr, make([]byte, 4096), 4096)
	if err == nil {
		t.Fatal("upload succeeded through a panicking handler")
	}
	if !errors.Is(err, hixrt.ErrBroken) && !errors.Is(err, hixrt.ErrServerClosed) {
		t.Fatalf("panic surfaced as %v, want a typed transport error", err)
	}
	waitDrained(t, srv, 5*time.Second)

	// The server survived: a second client is served normally.
	s2, err := hixrt.Dial(addr)
	if err != nil {
		t.Fatalf("server did not survive handler panic: %v", err)
	}
	if err := runMatrixAdd(s2, 12); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRemoteSessionUse hammers ONE RemoteSession from many
// goroutines (the -race gate for the session mutex): every exchange
// must stay frame-aligned, every round trip byte-correct.
func TestConcurrentRemoteSessionUse(t *testing.T) {
	_, addr := startServer(t, netserve.Config{})
	s, err := hixrt.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 8<<10)
			for j := range buf {
				buf[j] = byte(i*31 + j)
			}
			out := make([]byte, len(buf))
			for round := 0; round < 6; round++ {
				ptr, err := s.MemAlloc(uint64(len(buf)))
				if err != nil {
					errs[i] = err
					return
				}
				if err := s.MemcpyHtoD(ptr, buf, len(buf)); err != nil {
					errs[i] = err
					return
				}
				if err := s.Launch("nop", [gpu.NumKernelParams]uint64{}); err != nil {
					errs[i] = err
					return
				}
				if err := s.MemcpyDtoH(out, ptr, len(out)); err != nil {
					errs[i] = err
					return
				}
				if !bytes.Equal(out, buf) {
					errs[i] = fmt.Errorf("worker %d round %d: round-trip corruption", i, round)
					return
				}
				if err := s.MemFree(ptr); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
}
