package netserve_test

import (
	"bytes"
	"testing"

	"repro/internal/gpu"
	"repro/internal/hix"
	"repro/internal/hixrt"
	"repro/internal/netserve"
	"repro/internal/wire"
)

// TestVersionNegotiationCompat: the one thing left to negotiate is the
// in-flight window — the smaller of the server's bound and the client's
// cap.
func TestVersionNegotiationCompat(t *testing.T) {
	t.Run("both v2, client window cap", func(t *testing.T) {
		_, addr := startServer(t, netserve.Config{MaxInFlight: 16})
		s, err := hixrt.DialConfig(addr, hixrt.RemoteConfig{MaxInFlight: 3})
		if err != nil {
			t.Fatal(err)
		}
		if s.MaxInFlight() != 3 {
			t.Fatalf("MaxInFlight %d, want client cap 3", s.MaxInFlight())
		}
		if err := runMatrixAdd(s, 12); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("server bound wins below client cap", func(t *testing.T) {
		_, addr := startServer(t, netserve.Config{MaxInFlight: 2})
		s, err := hixrt.DialConfig(addr, hixrt.RemoteConfig{MaxInFlight: 64})
		if err != nil {
			t.Fatal(err)
		}
		if s.MaxInFlight() != 2 {
			t.Fatalf("MaxInFlight %d, want server bound 2", s.MaxInFlight())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPipelinedStartAPI keeps a window of transfers and launches in
// flight against a real server and verifies every round trip
// bit-exactly.
func TestPipelinedStartAPI(t *testing.T) {
	_, addr := startServer(t, netserve.Config{MaxInFlight: 8})
	s, err := hixrt.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 6
	const size = 96 << 10 // several wire chunks per transfer
	ptrs := make([]hixrt.Ptr, n)
	bufs := make([][]byte, n)
	for i := range ptrs {
		p, err := s.MemAlloc(size)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
		bufs[i] = make([]byte, size)
		for j := range bufs[i] {
			bufs[i][j] = byte(i*31 + j)
		}
	}
	// Phase 1: all uploads in flight at once.
	ups := make([]*hixrt.Pending, n)
	for i := range ptrs {
		ups[i] = s.StartMemcpyHtoD(ptrs[i], bufs[i])
	}
	for i, p := range ups {
		if err := p.Wait(); err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}
	// Phase 2: a launch riding the same window as the readbacks that
	// follow it — completion order is the server's serial execution
	// order, routing is by tag.
	lp := s.StartLaunch("nop", [gpu.NumKernelParams]uint64{})
	outs := make([][]byte, n)
	downs := make([]*hixrt.Pending, n)
	for i := range ptrs {
		outs[i] = make([]byte, size)
		downs[i] = s.StartMemcpyDtoH(outs[i], ptrs[i])
	}
	if err := lp.Wait(); err != nil {
		t.Fatalf("launch: %v", err)
	}
	for i, p := range downs {
		if err := p.Wait(); err != nil {
			t.Fatalf("readback %d: %v", i, err)
		}
		if !bytes.Equal(outs[i], bufs[i]) {
			t.Fatalf("round-trip corruption on buffer %d", i)
		}
	}
	for _, p := range ptrs {
		if err := s.MemFree(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMalformedFramesV2 is TestMalformedFrames for what only tagged
// streams can get wrong: tags truncated or mismatched, untagged frames
// mid-stream, bounds hit at their edge, chunk runs that desync late.
// (The name predates the single protocol; the test list tracks it.)
func TestMalformedFramesV2(t *testing.T) {
	runMalformed(t, []malformedCase{
		served("untagged request on v2 stream", func(t *testing.T, r *rawConn) {
			// Mid-stream, after a served exchange — not only as the first
			// frame past the handshake.
			bad := hix.Request{Type: 200}
			r.write(tframe(wire.OpTRequest, 1, bad.Encode()))
			r.expectBadRequest(1)
			req := hix.Request{Type: hix.ReqMemAlloc, Size: 64}
			r.write(frame(3, req.Encode()))
			r.expectError(wire.ECodeProto)
		}),
		served("tag truncated", func(t *testing.T, r *rawConn) {
			r.write(frame(byte(wire.OpTRequest), []byte{1, 2}))
			r.expectError(wire.ECodeProto)
		}),
		served("malformed request after tag", func(t *testing.T, r *rawConn) {
			// A whole request plus one trailing byte.
			req := hix.Request{Type: hix.ReqMemAlloc, Size: 64}
			r.write(tframe(wire.OpTRequest, 1, append(req.Encode(), 0)))
			r.expectError(wire.ECodeProto)
		}),
		served("huge HtoD length", func(t *testing.T, r *rawConn) {
			// One byte past the server's default MaxTransfer.
			r.write(htod(64<<20 + 1))
			r.expectError(wire.ECodeRequest)
		}),
		served("HtoD payload wrong tag", func(t *testing.T, r *rawConn) {
			r.write(htod(8))
			r.write(tframe(wire.OpTData, 2, make([]byte, 8)))
			r.expectError(wire.ECodeProto)
		}),
		served("HtoD payload untagged", func(t *testing.T, r *rawConn) {
			r.write(htod(8))
			r.write(frame(5, make([]byte, 8)))
			r.expectError(wire.ECodeProto)
		}),
		served("HtoD short chunk desync", func(t *testing.T, r *rawConn) {
			// A short non-final chunk: the first frame of a MaxData+8
			// payload must carry exactly MaxData bytes.
			r.write(htod(wire.MaxData + 8))
			r.write(tframe(wire.OpTData, 1, make([]byte, 100)))
			r.expectError(wire.ECodeProto)
		}),
		served("synthetic flag rejected per tag", func(t *testing.T, r *rawConn) {
			// Two refusals in flight: each reply carries its own tag, and
			// neither request's payload is waited for.
			req := hix.Request{Type: hix.ReqMemcpyHtoD, Len: 16, Flags: gpu.FlagSynthetic}
			r.write(append(tframe(wire.OpTRequest, 7, req.Encode()), tframe(wire.OpTRequest, 9, req.Encode())...))
			r.expectBadRequest(7)
			r.expectBadRequest(9)
		}),
	})
}
