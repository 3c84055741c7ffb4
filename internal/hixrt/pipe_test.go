package hixrt

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/hix"
	"repro/internal/wire"
)

// fakeWireServer accepts one connection and hands it to serve on a
// goroutine: a minimal in-test peer for exercising the client against
// protocol misbehavior a real netserve server never produces.
func fakeWireServer(t *testing.T, serve func(nc net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
		serve(nc)
	}()
	return ln.Addr().String()
}

// welcomeClient consumes the Hello and answers a Welcome declaring the
// given version and pipelining bound.
func welcomeClient(t *testing.T, nc net.Conn, version, maxInFlight uint16) {
	t.Helper()
	op, _, err := wire.ReadFrame(nc)
	if err != nil || op != wire.OpHello {
		t.Errorf("fake server: op=%v err=%v, want hello", op, err)
		return
	}
	w := wire.Welcome{
		Version:     version,
		SessionID:   1,
		SegmentSize: 32 << 20,
		ChunkSize:   64 << 10,
		MaxData:     wire.MaxData,
		MaxInFlight: maxInFlight,
	}
	if err := wire.WriteFrame(nc, wire.OpWelcome, w.Encode()); err != nil {
		t.Errorf("fake server: welcome: %v", err)
	}
}

// readTagged reads one frame and splits its tag, failing the fake
// server on anything unexpected.
func readTagged(t *testing.T, nc net.Conn, want wire.Opcode) (uint32, []byte, bool) {
	t.Helper()
	op, body, err := wire.ReadFrame(nc)
	if err != nil || op != want {
		t.Errorf("fake server: op=%v err=%v, want %v", op, err, want)
		return 0, nil, false
	}
	tag, rest, err := wire.SplitTag(body)
	if err != nil {
		t.Errorf("fake server: %v", err)
		return 0, nil, false
	}
	return tag, rest, true
}

func writeTagged(nc net.Conn, op wire.Opcode, tag uint32, body []byte) error {
	return wire.WriteFrame(nc, op, append(binary.LittleEndian.AppendUint32(nil, tag), body...))
}

func writeTaggedResp(nc net.Conn, tag uint32, resp hix.Response) error {
	return writeTagged(nc, wire.OpTResponse, tag, resp.Encode())
}

// TestDialRejectsOtherVersion: a server answering Welcome with any
// version but wire.Version is refused at the handshake, typed.
func TestDialRejectsOtherVersion(t *testing.T) {
	addr := fakeWireServer(t, func(nc net.Conn) {
		welcomeClient(t, nc, wire.Version-1, 4)
	})
	if _, err := DialConfig(addr, RemoteConfig{DialTimeout: 5 * time.Second}); !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("dial against a version-%d Welcome: got %v, want wire.ErrVersion", wire.Version-1, err)
	}
}

// TestPipeUnknownTagReply: a reply whose tag matches no in-flight
// request tears the session down with the typed, retry-classifiable
// ErrUnknownTag.
func TestPipeUnknownTagReply(t *testing.T) {
	addr := fakeWireServer(t, func(nc net.Conn) {
		welcomeClient(t, nc, wire.Version, 4)
		tag, _, ok := readTagged(t, nc, wire.OpTRequest)
		if !ok {
			return
		}
		_ = writeTaggedResp(nc, tag+7, hix.Response{Status: hix.RespOK})
	})
	s, err := DialConfig(addr, RemoteConfig{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.MemAlloc(64)
	if !errors.Is(err, ErrUnknownTag) {
		t.Fatalf("unknown tag surfaced as %v, want ErrUnknownTag", err)
	}
	if !errors.Is(err, ErrBroken) {
		t.Fatalf("unknown tag did not break the session: %v", err)
	}
	if !retryable(err) {
		t.Fatalf("ErrUnknownTag not retry-classifiable: %v", err)
	}
}

// TestPipeTagTruncatedReply: a tagged frame too short to carry its tag
// is a framing error, surfaced typed.
func TestPipeTagTruncatedReply(t *testing.T) {
	addr := fakeWireServer(t, func(nc net.Conn) {
		welcomeClient(t, nc, wire.Version, 4)
		if _, _, ok := readTagged(t, nc, wire.OpTRequest); !ok {
			return
		}
		_ = wire.WriteFrame(nc, wire.OpTResponse, []byte{1, 2})
	})
	s, err := DialConfig(addr, RemoteConfig{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.MemAlloc(64)
	if !errors.Is(err, wire.ErrTagTruncated) {
		t.Fatalf("truncated tag surfaced as %v, want ErrTagTruncated", err)
	}
	if !errors.Is(err, ErrBroken) {
		t.Fatalf("truncated tag did not break the session: %v", err)
	}
}

// TestPipeV1FrameOnV2Stream: an untagged Response of the retired
// lock-step plane is an unknown opcode now, and a known opcode that has
// no business on a serving stream is a protocol violation; neither is
// silently interpreted.
func TestPipeV1FrameOnV2Stream(t *testing.T) {
	resp := hix.Response{Status: hix.RespOK}
	retired := append([]byte{byte(len(resp.Encode())), 0, 0, 0, 4}, resp.Encode()...)
	welcome := []byte{0, 0, 0, 0, byte(wire.OpWelcome)}
	for _, tc := range []struct {
		name string
		raw  []byte
		want error
	}{
		{"retired response opcode", retired, wire.ErrUnknownOpcode},
		{"welcome mid-stream", welcome, hix.ErrProtocol},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakeWireServer(t, func(nc net.Conn) {
				welcomeClient(t, nc, wire.Version, 4)
				if _, _, ok := readTagged(t, nc, wire.OpTRequest); !ok {
					return
				}
				_, _ = nc.Write(tc.raw)
			})
			s, err := DialConfig(addr, RemoteConfig{IOTimeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			_, err = s.MemAlloc(64)
			if !errors.Is(err, tc.want) || !errors.Is(err, ErrBroken) {
				t.Fatalf("surfaced as %v, want %v breaking the session", err, tc.want)
			}
		})
	}
}

// TestPipeDataBeforeResponse: DtoH payload chunks may only follow
// their response.
func TestPipeDataBeforeResponse(t *testing.T) {
	addr := fakeWireServer(t, func(nc net.Conn) {
		welcomeClient(t, nc, wire.Version, 4)
		tag, _, ok := readTagged(t, nc, wire.OpTRequest)
		if !ok {
			return
		}
		_ = writeTagged(nc, wire.OpTData, tag, make([]byte, 8))
	})
	s, err := DialConfig(addr, RemoteConfig{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out := make([]byte, 8)
	if err := s.MemcpyDtoH(out, 0x1000, len(out)); !errors.Is(err, hix.ErrProtocol) {
		t.Fatalf("data-before-response surfaced as %v, want ErrProtocol", err)
	}
}

// TestPipeOutOfOrderCompletion: the in-flight table routes replies by
// tag, so the server may complete requests in any order.
func TestPipeOutOfOrderCompletion(t *testing.T) {
	addr := fakeWireServer(t, func(nc net.Conn) {
		welcomeClient(t, nc, wire.Version, 4)
		t1, _, ok := readTagged(t, nc, wire.OpTRequest)
		if !ok {
			return
		}
		t2, _, ok := readTagged(t, nc, wire.OpTRequest)
		if !ok {
			return
		}
		// Reply in reverse submission order with distinct values.
		_ = writeTaggedResp(nc, t2, hix.Response{Status: hix.RespOK, Value: 0x2000})
		_ = writeTaggedResp(nc, t1, hix.Response{Status: hix.RespOK, Value: 0x1000})
	})
	s, err := DialConfig(addr, RemoteConfig{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.MaxInFlight(); got != 4 {
		t.Fatalf("MaxInFlight %d, want 4", got)
	}
	c1, err := s.pipe.submit(hix.Request{Type: hix.ReqMemAlloc, Size: 64}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.pipe.submit(hix.Request{Type: hix.ReqMemAlloc, Size: 64}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.pipe.wait(c1)
	if err != nil || r1.Value != 0x1000 {
		t.Fatalf("first call: resp=%+v err=%v, want value 0x1000", r1, err)
	}
	r2, err := s.pipe.wait(c2)
	if err != nil || r2.Value != 0x2000 {
		t.Fatalf("second call: resp=%+v err=%v, want value 0x2000", r2, err)
	}
}

// TestPipeWindowBound: with the window full, a further submit blocks
// until a completion frees a slot — flow control, not failure.
func TestPipeWindowBound(t *testing.T) {
	release := make(chan struct{})
	addr := fakeWireServer(t, func(nc net.Conn) {
		welcomeClient(t, nc, wire.Version, 2)
		var tags []uint32
		for i := 0; i < 2; i++ {
			tag, _, ok := readTagged(t, nc, wire.OpTRequest)
			if !ok {
				return
			}
			tags = append(tags, tag)
		}
		<-release // hold both slots until the test has seen the third submit block
		for _, tag := range tags {
			_ = writeTaggedResp(nc, tag, hix.Response{Status: hix.RespOK})
		}
		tag, _, ok := readTagged(t, nc, wire.OpTRequest)
		if !ok {
			return
		}
		_ = writeTaggedResp(nc, tag, hix.Response{Status: hix.RespOK})
	})
	s, err := DialConfig(addr, RemoteConfig{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p1 := s.StartLaunch("k", [gpu.NumKernelParams]uint64{})
	p2 := s.StartLaunch("k", [gpu.NumKernelParams]uint64{})
	third := make(chan *Pending)
	go func() { third <- s.StartLaunch("k", [gpu.NumKernelParams]uint64{}) }()
	select {
	case <-third:
		t.Fatal("third submit did not block with a full window of 2")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := p1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := p2.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := (<-third).Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPipeConcurrentSubmitters drives many goroutines through one
// pipelined session against an echo-style fake server (the -race gate
// for the client core).
func TestPipeConcurrentSubmitters(t *testing.T) {
	const ops = 64
	addr := fakeWireServer(t, func(nc net.Conn) {
		welcomeClient(t, nc, wire.Version, 8)
		for i := 0; i < ops; i++ {
			tag, _, ok := readTagged(t, nc, wire.OpTRequest)
			if !ok {
				return
			}
			if err := writeTaggedResp(nc, tag, hix.Response{Status: hix.RespOK, Value: uint64(tag)}); err != nil {
				return
			}
		}
	})
	s, err := DialConfig(addr, RemoteConfig{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops/8; i++ {
				if _, err := s.MemAlloc(64); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}
