package hixrt

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/hix"
	"repro/internal/wire"
)

// dtohAgainstChunks runs one DtoH of outLen bytes against a fake server
// that answers OK and then streams Data frames of exactly the given
// sizes, and returns the session and the readback's error.
func dtohAgainstChunks(t *testing.T, outLen int, chunks ...int) (*RemoteSession, error) {
	t.Helper()
	addr := fakeWireServer(t, func(nc net.Conn) {
		welcomeClient(t, nc, wire.Version, 4)
		tag, _, ok := readTagged(t, nc, wire.OpTRequest)
		if !ok {
			return
		}
		if err := writeTaggedResp(nc, tag, hix.Response{Status: hix.RespOK}); err != nil {
			return
		}
		for _, n := range chunks {
			if err := writeTagged(nc, wire.OpTData, tag, make([]byte, n)); err != nil {
				return
			}
		}
	})
	s, err := DialConfig(addr, RemoteConfig{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	out := make([]byte, outLen)
	return s, s.MemcpyDtoH(out, 0x1000, len(out))
}

// TestPipeDesyncOverSend: a server that answers a DtoH with a Data
// frame larger than the expected exact chunk has desynced the stream —
// the client must surface ErrDesync and break the session rather than
// misparse the surplus as the next exchange's response.
func TestPipeDesyncOverSend(t *testing.T) {
	// The client asked for 8 bytes; send 16 in one tagged frame.
	s, err := dtohAgainstChunks(t, 8, 16)
	if !errors.Is(err, ErrDesync) {
		t.Fatalf("over-send surfaced as %v, want ErrDesync", err)
	}
	if !errors.Is(err, ErrBroken) {
		t.Fatalf("desync did not break the session: %v", err)
	}
	// The session is sticky-broken: later requests fail typed, fast.
	if _, err := s.MemAlloc(64); !errors.Is(err, ErrBroken) {
		t.Fatalf("post-desync request: %v, want ErrBroken", err)
	}
}

// TestRemoteDesyncOverSend: the exact-framing contract holds on the
// final chunk of a multi-chunk payload too — after a correct MaxData
// first chunk, the remaining 8 bytes must arrive as exactly 8.
func TestRemoteDesyncOverSend(t *testing.T) {
	_, err := dtohAgainstChunks(t, wire.MaxData+8, wire.MaxData, 16)
	if !errors.Is(err, ErrDesync) {
		t.Fatalf("final-chunk over-send surfaced as %v, want ErrDesync", err)
	}
}

// TestRemoteDesyncShortChunk: a non-final Data frame smaller than the
// exact chunk size is equally a desync.
func TestRemoteDesyncShortChunk(t *testing.T) {
	// First chunk of a MaxData+8 payload must be exactly MaxData bytes;
	// send 100.
	_, err := dtohAgainstChunks(t, wire.MaxData+8, 100)
	if !errors.Is(err, ErrDesync) {
		t.Fatalf("short chunk surfaced as %v, want ErrDesync", err)
	}
}
