package netserve_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/hix"
	"repro/internal/hixrt"
	"repro/internal/machine"
	"repro/internal/netserve"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// startServer boots a server on a loopback port and tears it down with
// the test.
func startServer(t *testing.T, cfg netserve.Config) (*netserve.Server, string) {
	t.Helper()
	if cfg.Kernels == nil {
		cfg.Kernels = []*gpu.Kernel{workloads.MatrixAddKernel(), workloads.MatrixMulKernel()}
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 5 * time.Second
	}
	srv, err := netserve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, addr.String()
}

// runMatrixAdd drives the functional matrix-add workload through a
// remote session and verifies the results client-side.
func runMatrixAdd(s *hixrt.RemoteSession, n int) error {
	wl := workloads.NewMatrixAdd(n)
	if err := wl.Run(workloads.SessionRunner{S: s}); err != nil {
		return err
	}
	return wl.Check()
}

func TestRemoteWorkload(t *testing.T) {
	srv, addr := startServer(t, netserve.Config{})
	s, err := hixrt.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxInFlight() < 1 {
		t.Fatalf("MaxInFlight %d, want >= 1", s.MaxInFlight())
	}
	if s.EnclaveMeasurement() != srv.Enclave().Measurement() {
		t.Fatal("welcome enclave measurement mismatch")
	}
	if err := runMatrixAdd(s, 24); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if got := srv.SessionCount(); got != 0 {
		t.Fatalf("%d sessions left after close", got)
	}
}

func TestRemoteErrorSurface(t *testing.T) {
	_, addr := startServer(t, netserve.Config{})
	s, err := hixrt.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Unknown kernel: refused by the enclave, surfaced as ErrRequest —
	// the same error class the in-process session returns.
	if err := s.Launch("no_such_kernel", [gpu.NumKernelParams]uint64{}); !errors.Is(err, hixrt.ErrRequest) {
		t.Fatalf("launch of unknown kernel: got %v, want ErrRequest", err)
	}
	// Freeing an unallocated pointer is likewise refused, and the
	// session must remain usable afterwards.
	if err := s.MemFree(0xdead000); !errors.Is(err, hixrt.ErrRequest) {
		t.Fatalf("bogus free: got %v, want ErrRequest", err)
	}
	if err := runMatrixAdd(s, 8); err != nil {
		t.Fatalf("session unusable after refused requests: %v", err)
	}
}

// TestConcurrentConnections drives 8 concurrent remote sessions through
// functional workloads (the -race acceptance gate for the serving
// layer).
func TestConcurrentConnections(t *testing.T) {
	const clients = 8
	srv, addr := startServer(t, netserve.Config{MaxConns: clients, ServeWorkers: 2})
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := hixrt.Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer s.Close()
			if err := runMatrixAdd(s, 8+4*(i%3)); err != nil {
				errs[i] = err
				return
			}
			errs[i] = s.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	if got := srv.SessionCount(); got != 0 {
		t.Fatalf("%d sessions left after all clients closed", got)
	}
}

// TestConnectionBackpressure: at MaxConns the accept loop stops
// accepting, so an extra client's handshake times out instead of being
// served; a freed slot lets the next dial through.
func TestConnectionBackpressure(t *testing.T) {
	_, addr := startServer(t, netserve.Config{MaxConns: 2})
	s1, err := hixrt.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := hixrt.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, err = hixrt.DialConfig(addr, hixrt.RemoteConfig{DialTimeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("third connection served beyond MaxConns=2")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := hixrt.Dial(addr)
	if err != nil {
		t.Fatalf("dial after slot freed: %v", err)
	}
	defer s3.Close()
	if err := runMatrixAdd(s3, 8); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulShutdownUnderLoad: clients hammer the server from 4
// connections while Shutdown fires. Every in-flight request must
// complete with its response delivered — a client may only observe
// clean success or ErrServerClosed, never a torn connection — and all
// sessions must be closed afterwards.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	const clients = 4
	srv, err := netserve.New(netserve.Config{
		MaxConns:     clients,
		ReadTimeout:  5 * time.Second,
		Kernels:      []*gpu.Kernel{workloads.MatrixAddKernel()},
		ServeWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, clients)
	ops := make([]int, clients)
	started := make(chan struct{}, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := hixrt.Dial(addr.String())
			if err != nil {
				errs[i] = err
				return
			}
			defer s.Close()
			buf := make([]byte, 32<<10)
			for j := range buf {
				buf[j] = byte(i + j)
			}
			out := make([]byte, len(buf))
			started <- struct{}{}
			for {
				ptr, err := s.MemAlloc(uint64(len(buf)))
				if err != nil {
					errs[i] = err
					return
				}
				if err := s.MemcpyHtoD(ptr, buf, len(buf)); err != nil {
					errs[i] = err
					return
				}
				if err := s.MemcpyDtoH(out, ptr, len(out)); err != nil {
					errs[i] = err
					return
				}
				if !bytes.Equal(out, buf) {
					errs[i] = fmt.Errorf("round-trip corruption on op %d", ops[i])
					return
				}
				if err := s.MemFree(ptr); err != nil {
					errs[i] = err
					return
				}
				ops[i]++
			}
		}(i)
	}
	for i := 0; i < clients; i++ {
		<-started
	}
	time.Sleep(50 * time.Millisecond) // let requests get in flight
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, hixrt.ErrServerClosed) {
			t.Errorf("client %d: dropped mid-request after %d ops: %v", i, ops[i], err)
		}
		if ops[i] == 0 && errs[i] == nil {
			t.Errorf("client %d: no ops and no error", i)
		}
	}
	if got := srv.SessionCount(); got != 0 {
		t.Fatalf("%d sessions not closed by shutdown drain", got)
	}
	if got := srv.ConnCount(); got != 0 {
		t.Fatalf("%d connections still tracked after shutdown", got)
	}
	// The listener is down: new dials must fail.
	if _, err := hixrt.DialConfig(addr.String(), hixrt.RemoteConfig{DialTimeout: 300 * time.Millisecond}); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// rawConn speaks the wire protocol by hand for malformed-input tests.
type rawConn struct {
	t  *testing.T
	nc net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	return &rawConn{t: t, nc: nc}
}

func (r *rawConn) write(raw []byte) {
	r.t.Helper()
	if _, err := r.nc.Write(raw); err != nil {
		r.t.Fatalf("raw write: %v", err)
	}
}

// hello performs the handshake by hand and asserts the server answered
// with the protocol version and a window.
func (r *rawConn) hello() {
	r.t.Helper()
	h := wire.Hello{MinVersion: wire.Version, MaxVersion: wire.Version,
		Measurement: hixrt.DefaultRemoteMeasurement()}
	r.write(frame(byte(wire.OpHello), h.Encode()))
	op, body, err := wire.ReadFrame(r.nc)
	if err != nil || op != wire.OpWelcome {
		r.t.Fatalf("handshake: op=%v err=%v", op, err)
	}
	w, err := wire.DecodeWelcome(body)
	if err != nil {
		r.t.Fatal(err)
	}
	if w.Version != wire.Version || w.MaxInFlight < 1 {
		r.t.Fatalf("welcome %+v, want version %d with a window", w, wire.Version)
	}
}

// expectError reads one frame and asserts it is an OpError carrying the
// given code.
func (r *rawConn) expectError(code uint32) {
	r.t.Helper()
	op, body, err := wire.ReadFrame(r.nc)
	if err != nil {
		r.t.Fatalf("reading error frame: %v", err)
	}
	if op != wire.OpError {
		r.t.Fatalf("got %v frame, want error", op)
	}
	re, err := wire.DecodeError(body)
	if err != nil {
		r.t.Fatal(err)
	}
	if re.Code != code {
		r.t.Fatalf("error code %d (%s), want %d", re.Code, re.Msg, code)
	}
}

// expectBadRequest reads one tagged Response and asserts it echoes tag
// with RespBadRequest.
func (r *rawConn) expectBadRequest(tag uint32) {
	r.t.Helper()
	op, body, err := wire.ReadFrame(r.nc)
	if err != nil || op != wire.OpTResponse {
		r.t.Fatalf("op=%v err=%v, want tagged response", op, err)
	}
	got, rest, err := wire.SplitTag(body)
	if err != nil || got != tag {
		r.t.Fatalf("tag=%d err=%v, want %d", got, err, tag)
	}
	resp, err := hix.DecodeResponse(rest)
	if err != nil || resp.Status != hix.RespBadRequest {
		r.t.Fatalf("resp=%+v err=%v, want RespBadRequest", resp, err)
	}
}

// frame builds a raw frame around any opcode byte, including ones the
// wire package refuses to encode.
func frame(op byte, body []byte) []byte {
	raw := make([]byte, wire.HeaderSize+len(body))
	binary.LittleEndian.PutUint32(raw, uint32(len(body)))
	raw[4] = op
	copy(raw[wire.HeaderSize:], body)
	return raw
}

// tframe builds a raw tagged frame: outer header, then the tag as the
// first four body bytes.
func tframe(op wire.Opcode, tag uint32, body []byte) []byte {
	return frame(byte(op), append(binary.LittleEndian.AppendUint32(nil, tag), body...))
}

// htod builds a tagged HtoD request (tag 1) announcing n payload bytes.
func htod(n uint64) []byte {
	req := hix.Request{Type: hix.ReqMemcpyHtoD, Len: n}
	return tframe(wire.OpTRequest, 1, req.Encode())
}

// malformedCase is one hand-driven protocol violation. The server must
// answer with a typed error frame (or a clean disconnect for
// truncation), never panic or wedge, and serve a well-formed client
// afterwards.
type malformedCase struct {
	name string
	run  func(t *testing.T, r *rawConn)
}

// served wraps a case that runs after a good handshake.
func served(name string, run func(t *testing.T, r *rawConn)) malformedCase {
	return malformedCase{name, func(t *testing.T, r *rawConn) {
		r.hello()
		run(t, r)
	}}
}

func runMalformed(t *testing.T, cases []malformedCase) {
	_, addr := startServer(t, netserve.Config{ReadTimeout: 1 * time.Second})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, dialRaw(t, addr))
			// The server must still serve a well-formed client.
			s, err := hixrt.Dial(addr)
			if err != nil {
				t.Fatalf("server wedged after %q: %v", tc.name, err)
			}
			if err := runMatrixAdd(s, 8); err != nil {
				t.Fatalf("server broken after %q: %v", tc.name, err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMalformedFrames throws protocol garbage at a live server, before
// and after the handshake.
func TestMalformedFrames(t *testing.T) {
	helloBody := func(mutate func([]byte)) []byte {
		h := wire.Hello{MinVersion: wire.Version, MaxVersion: wire.Version}
		b := h.Encode()
		if mutate != nil {
			mutate(b)
		}
		return b
	}
	helloRange := func(lo, hi uint16) []byte {
		return helloBody(func(b []byte) {
			binary.LittleEndian.PutUint16(b[4:], lo)
			binary.LittleEndian.PutUint16(b[6:], hi)
		})
	}
	cases := []malformedCase{
		{"oversized frame", func(t *testing.T, r *rawConn) {
			hdr := make([]byte, wire.HeaderSize)
			binary.LittleEndian.PutUint32(hdr, wire.MaxBody+1)
			hdr[4] = byte(wire.OpHello)
			r.write(hdr)
			r.expectError(wire.ECodeProto)
		}},
		{"unknown opcode", func(t *testing.T, r *rawConn) {
			r.write(frame(99, nil))
			r.expectError(wire.ECodeProto)
		}},
		{"first frame not hello", func(t *testing.T, r *rawConn) {
			r.write(tframe(wire.OpTData, 1, []byte("x")))
			r.expectError(wire.ECodeProto)
		}},
		{"hello bad magic", func(t *testing.T, r *rawConn) {
			body := helloBody(func(b []byte) { b[0] ^= 0xff })
			r.write(frame(byte(wire.OpHello), body))
			r.expectError(wire.ECodeProto)
		}},
		{"hello bad length", func(t *testing.T, r *rawConn) {
			r.write(frame(byte(wire.OpHello), []byte{1, 2, 3}))
			r.expectError(wire.ECodeProto)
		}},
		{"hello zero min version", func(t *testing.T, r *rawConn) {
			r.write(frame(byte(wire.OpHello), helloRange(0, wire.Version)))
			r.expectError(wire.ECodeVersion)
		}},
		{"version range unsatisfiable", func(t *testing.T, r *rawConn) {
			r.write(frame(byte(wire.OpHello), helloRange(wire.Version+1, wire.Version+5)))
			r.expectError(wire.ECodeVersion)
		}},
		{"hello offering only retired versions", func(t *testing.T, r *rawConn) {
			r.write(frame(byte(wire.OpHello), helloRange(1, 2)))
			r.expectError(wire.ECodeVersion)
		}},
		{"truncated header then close", func(t *testing.T, r *rawConn) {
			r.write([]byte{1, 2})
			r.nc.Close()
		}},
		{"truncated body then close", func(t *testing.T, r *rawConn) {
			r.write(frame(byte(wire.OpHello), helloBody(nil))[:wire.HeaderSize+4])
			r.nc.Close()
		}},
		{"idle handshake timeout", func(t *testing.T, r *rawConn) {
			_ = r.nc.SetDeadline(time.Now().Add(4 * time.Second))
			r.expectError(wire.ECodeProto) // idle timeout after ReadTimeout
		}},
		served("post-handshake non-request", func(t *testing.T, r *rawConn) {
			r.write(frame(byte(wire.OpWelcome), nil))
			r.expectError(wire.ECodeProto)
		}),
		served("malformed request body", func(t *testing.T, r *rawConn) {
			r.write(tframe(wire.OpTRequest, 1, []byte("short")))
			r.expectError(wire.ECodeProto)
		}),
		served("synthetic flag rejected", func(t *testing.T, r *rawConn) {
			req := hix.Request{Type: hix.ReqMemcpyHtoD, Len: 16, Flags: gpu.FlagSynthetic}
			r.write(tframe(wire.OpTRequest, 7, req.Encode()))
			r.expectBadRequest(7)
		}),
		served("zero HtoD length", func(t *testing.T, r *rawConn) {
			r.write(htod(0))
			r.expectError(wire.ECodeRequest)
		}),
		served("huge HtoD length", func(t *testing.T, r *rawConn) {
			r.write(htod(1 << 40))
			r.expectError(wire.ECodeRequest)
		}),
		served("HtoD payload overrun", func(t *testing.T, r *rawConn) {
			r.write(htod(4))
			r.write(tframe(wire.OpTData, 1, make([]byte, 64)))
			r.expectError(wire.ECodeProto)
		}),
		served("HtoD short chunk desync", func(t *testing.T, r *rawConn) {
			// A Data frame smaller than the exact expected chunk is a
			// framing desync, not a valid partial delivery.
			r.write(htod(8))
			r.write(tframe(wire.OpTData, 1, make([]byte, 4)))
			r.expectError(wire.ECodeProto)
		}),
		served("unknown request type", func(t *testing.T, r *rawConn) {
			req := hix.Request{Type: 200}
			r.write(tframe(wire.OpTRequest, 3, req.Encode()))
			r.expectBadRequest(3)
		}),
	}
	// The untagged request/response/data opcodes of the retired lock-step
	// plane are unknown opcodes wherever they appear.
	for _, op := range []byte{3, 4, 5} {
		refused := func(t *testing.T, r *rawConn) {
			r.write(frame(op, []byte("x")))
			r.expectError(wire.ECodeProto)
		}
		cases = append(cases,
			malformedCase{fmt.Sprintf("retired opcode %d before handshake", op), refused},
			served(fmt.Sprintf("retired opcode %d after handshake", op), refused))
	}
	runMalformed(t, cases)
}

// TestRemoteMatchesInProcess is the identity gate at unit-test scale:
// the same workload, driven in process and over the wire against
// machines built from the same seed, must leave identical timeline
// fingerprints.
func TestRemoteMatchesInProcess(t *testing.T) {
	run := func(remote bool) uint64 {
		t.Helper()
		m := newSeededMachine(t)
		m.Timeline.EnableTrace()
		srv, err := netserve.New(netserve.Config{
			Machine: m,
			Kernels: []*gpu.Kernel{workloads.MatrixAddKernel()},
		})
		if err != nil {
			t.Fatal(err)
		}
		wl := workloads.NewMatrixAdd(16)
		if remote {
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			s, err := hixrt.Dial(addr.String())
			if err != nil {
				t.Fatal(err)
			}
			if err := wl.Run(workloads.SessionRunner{S: s}); err != nil {
				t.Fatal(err)
			}
			if err := wl.Check(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
		} else {
			client, err := hixrt.NewClient(m, srv.Enclave(), srv.VendorPub(),
				measurementImage())
			if err != nil {
				t.Fatal(err)
			}
			s, err := client.OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			if err := wl.Run(workloads.SessionRunner{S: s}); err != nil {
				t.Fatal(err)
			}
			if err := wl.Check(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return m.Timeline.Fingerprint()
	}
	remoteFP := run(true)
	localFP := run(false)
	if remoteFP != localFP {
		t.Fatalf("timeline diverged: remote %#x, in-process %#x", remoteFP, localFP)
	}
}

func newSeededMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.Config{PlatformSeed: "netserve-identity"})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func measurementImage() []byte {
	m := hixrt.DefaultRemoteMeasurement()
	return m[:]
}

// drainGoodbye: a client idling across Shutdown receives Goodbye, not a
// torn connection.
func TestShutdownNotifiesIdleClient(t *testing.T) {
	srv, err := netserve.New(netserve.Config{
		Kernels:     []*gpu.Kernel{workloads.MatrixAddKernel()},
		ReadTimeout: 10 * time.Second,
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
	// Idle — no request in flight.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with idle client: %v", err)
	}
	op, _, err := wire.ReadFrame(r.nc)
	if err != nil || op != wire.OpGoodbye {
		t.Fatalf("idle client got op=%v err=%v, want goodbye", op, err)
	}
	if _, _, err := wire.ReadFrame(r.nc); err != io.EOF {
		t.Fatalf("after goodbye: %v, want EOF", err)
	}
	if got := srv.SessionCount(); got != 0 {
		t.Fatalf("%d sessions left", got)
	}
}
