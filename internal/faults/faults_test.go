package faults

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// fireSeq records the decision sequence of n calls at site.
func fireSeq(p *Plane, site string, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = p.Fire(site)
	}
	return out
}

func TestFireDeterministic(t *testing.T) {
	cfg := Config{Rates: map[string]float64{NetDrop: 0.3, GPUTagCorrupt: 0.1}}
	a := New("seed-a", cfg)
	b := New("seed-a", cfg)
	for _, site := range []string{NetDrop, GPUTagCorrupt} {
		sa := fireSeq(a, site, 500)
		sb := fireSeq(b, site, 500)
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("site %s call %d: same seed diverged", site, i)
			}
		}
	}
	if a.Signature() != b.Signature() {
		t.Fatalf("signatures diverged: %q vs %q", a.Signature(), b.Signature())
	}
	c := New("seed-b", cfg)
	if same := fireSeq(c, NetDrop, 500); boolsEqual(same, fireSeq(New("seed-a", cfg), NetDrop, 500)) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFireRate(t *testing.T) {
	p := New("rate", Config{Rates: map[string]float64{NetDrop: 0.25}})
	n := 0
	for i := 0; i < 4000; i++ {
		if p.Fire(NetDrop) {
			n++
		}
	}
	if n < 800 || n > 1200 {
		t.Fatalf("rate 0.25 fired %d/4000 times", n)
	}
	if p.Fired(NetDrop) != n {
		t.Fatalf("Fired()=%d want %d", p.Fired(NetDrop), n)
	}
	if p.TotalFired() != n {
		t.Fatalf("TotalFired()=%d want %d", p.TotalFired(), n)
	}
}

func TestFireAfterAndLimits(t *testing.T) {
	p := New("window", Config{
		Rates:  map[string]float64{NetDrop: 1},
		After:  map[string]int{NetDrop: 10},
		Limits: map[string]int{NetDrop: 3},
	})
	var fires []int
	for i := 0; i < 50; i++ {
		if p.Fire(NetDrop) {
			fires = append(fires, i)
		}
	}
	want := []int{10, 11, 12}
	if len(fires) != len(want) {
		t.Fatalf("fired at %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fires, want)
		}
	}
}

func TestNilPlaneSafe(t *testing.T) {
	var p *Plane
	if p.Fire(NetDrop) {
		t.Fatal("nil plane fired")
	}
	if p.Fired(NetDrop) != 0 || p.TotalFired() != 0 {
		t.Fatal("nil plane reported injections")
	}
	if p.Stats() != nil {
		t.Fatal("nil plane returned stats")
	}
	if p.Signature() != "plane:nil" {
		t.Fatalf("nil signature %q", p.Signature())
	}
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	if p.WrapConn(c, "client") != c {
		t.Fatal("nil plane wrapped conn")
	}
}

func TestFireConcurrentRaceClean(t *testing.T) {
	p := New("race", Config{Rates: map[string]float64{NetDrop: 0.5}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Fire(NetDrop)
				p.Fired(NetDrop)
				p.Stats()
			}
		}()
	}
	wg.Wait()
	if p.Signature() == "" {
		t.Fatal("empty signature")
	}
}

// pipePair wires a wrapped client-side conn to a raw server side.
func pipePair(t *testing.T, p *Plane) (net.Conn, net.Conn) {
	t.Helper()
	c, s := net.Pipe()
	t.Cleanup(func() { c.Close(); s.Close() })
	return p.WrapConn(c, "client"), s
}

func TestWrapConnCorruptionIsTyped(t *testing.T) {
	// Corrupt roughly every other frame; the receiver must see every
	// corrupted frame as a typed decode error, never a reordered or
	// altered payload.
	p := New("corrupt", Config{CorruptEveryFrames: 2})
	wc, s := pipePair(t, p)

	const frames = 40
	done := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			body := make([]byte, 1+i%17)
			for j := range body {
				body[j] = byte(i)
			}
			if err := wire.WriteFrame(wc, wire.OpTData, body); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	good, bad := 0, 0
	for i := 0; i < frames; i++ {
		op, body, err := wire.ReadFrame(s)
		if err != nil {
			if !errors.Is(err, wire.ErrUnknownOpcode) {
				t.Fatalf("frame %d: corruption surfaced as %v, want ErrUnknownOpcode", i, err)
			}
			bad++
			// The decoder rejects the opcode without consuming the
			// body; drain it to stay aligned for the test's sake.
			rest := make([]byte, 1+i%17)
			if _, err := readFull(s, rest); err != nil {
				t.Fatalf("drain frame %d: %v", i, err)
			}
			continue
		}
		if op != wire.OpTData {
			t.Fatalf("frame %d: op=%d", i, op)
		}
		for _, b := range body {
			if b != byte(i) {
				t.Fatalf("frame %d: payload altered", i)
			}
		}
		good++
	}
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if bad == 0 || good == 0 {
		t.Fatalf("good=%d bad=%d; want a mix", good, bad)
	}
	if p.Fired(WireCorrupt) != bad {
		t.Fatalf("plane counted %d corruptions, receiver saw %d", p.Fired(WireCorrupt), bad)
	}
}

func readFull(c net.Conn, buf []byte) (int, error) {
	got := 0
	for got < len(buf) {
		n, err := c.Read(buf[got:])
		got += n
		if err != nil {
			return got, err
		}
	}
	return got, nil
}

func TestWrapConnTruncation(t *testing.T) {
	p := New("trunc", Config{TruncateEveryBytes: 200})
	wc, s := pipePair(t, p)

	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := s.Read(buf); err != nil {
				return
			}
		}
	}()

	var werr error
	total := 0
	for i := 0; i < 100 && werr == nil; i++ {
		var n int
		n, werr = wc.Write(make([]byte, 64))
		total += n
	}
	if !errors.Is(werr, ErrInjectedTruncate) {
		t.Fatalf("write error %v, want ErrInjectedTruncate", werr)
	}
	if total >= 100*64 {
		t.Fatal("truncation never cut the stream")
	}
	if _, err := wc.Write([]byte{1}); !errors.Is(err, ErrInjectedTruncate) {
		t.Fatalf("post-truncation write error %v, want ErrInjectedTruncate", err)
	}
	if p.Fired(WireTruncate) != 1 {
		t.Fatalf("Fired(WireTruncate)=%d want 1", p.Fired(WireTruncate))
	}
}

func TestWrapConnDelay(t *testing.T) {
	p := New("delay", Config{DelayEveryBytes: 100, Delay: 5 * time.Millisecond})
	wc, s := pipePair(t, p)
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := s.Read(buf); err != nil {
				return
			}
		}
	}()
	t0 := time.Now()
	for i := 0; i < 10; i++ {
		if _, err := wc.Write(make([]byte, 100)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if fired := p.Fired(WireDelay); fired == 0 {
		t.Fatal("delay schedule never fired over 1000 bytes")
	} else if elapsed := time.Since(t0); elapsed < time.Duration(fired)*5*time.Millisecond/2 {
		t.Fatalf("%d delays but only %v elapsed", fired, elapsed)
	}
}

func TestWrapConnDeterministicStreams(t *testing.T) {
	// Two planes with the same seed must corrupt the same frames even
	// when the writes arrive in different chunk sizes: the schedule is
	// a function of the byte/frame stream, not of write boundaries.
	run := func(chunks []int) []int {
		p := New("same", Config{CorruptEveryFrames: 3})
		wc, s := pipePair(t, p)
		go func() {
			// 30 frames of 10-byte bodies, written in varying chunks.
			var stream []byte
			for i := 0; i < 30; i++ {
				stream = append(stream, 10, 0, 0, 0, byte(wire.OpTData))
				stream = append(stream, make([]byte, 10)...)
			}
			for len(stream) > 0 {
				n := chunks[0]
				chunks = append(chunks[1:], chunks[0])
				if n > len(stream) {
					n = len(stream)
				}
				if _, err := wc.Write(stream[:n]); err != nil {
					return
				}
				stream = stream[n:]
			}
		}()
		var badFrames []int
		for i := 0; i < 30; i++ {
			_, _, err := wire.ReadFrame(s)
			if err != nil {
				badFrames = append(badFrames, i)
				rest := make([]byte, 10)
				if _, err := readFull(s, rest); err != nil {
					t.Fatalf("drain: %v", err)
				}
			}
		}
		return badFrames
	}
	a := run([]int{7})
	b := run([]int{1, 31, 4, 150})
	if len(a) == 0 {
		t.Fatal("no corruption over 30 frames at mean gap 3")
	}
	if len(a) != len(b) {
		t.Fatalf("chunking changed the schedule: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunking changed the schedule: %v vs %v", a, b)
		}
	}
}
