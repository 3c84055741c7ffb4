package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attest"
)

func TestFrameRoundTrip(t *testing.T) {
	bodies := [][]byte{nil, {}, {0x42}, bytes.Repeat([]byte{0xab}, MaxData)}
	for _, body := range bodies {
		for _, op := range []Opcode{OpHello, OpWelcome, OpError, OpGoodbye, OpTRequest, OpTResponse, OpTData} {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, op, body); err != nil {
				t.Fatalf("WriteFrame(%v, %d bytes): %v", op, len(body), err)
			}
			gotOp, gotBody, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("ReadFrame(%v, %d bytes): %v", op, len(body), err)
			}
			if gotOp != op || !bytes.Equal(gotBody, body) {
				t.Fatalf("round trip: got (%v, %d bytes), want (%v, %d bytes)",
					gotOp, len(gotBody), op, len(body))
			}
		}
	}
}

func TestFrameSequencing(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteFrame(&buf, OpTData, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		op, body, err := ReadFrame(&buf)
		if err != nil || op != OpTData || len(body) != 1 || body[0] != byte(i) {
			t.Fatalf("frame %d: op=%v body=%v err=%v", i, op, body, err)
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

// header builds a raw frame header for malformed-input tests.
func header(n uint32, op byte) []byte {
	hdr := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint32(hdr, n)
	hdr[4] = op
	return hdr
}

func TestReadFrameMalformed(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"truncated header", header(1, byte(OpTData))[:3], ErrShortFrame},
		{"truncated body", append(header(100, byte(OpTData)), 1, 2, 3), ErrShortFrame},
		{"oversized", header(MaxBody+1, byte(OpTData)), ErrFrameTooBig},
		{"huge length", header(0xffff_ffff, byte(OpTData)), ErrFrameTooBig},
		{"opcode zero", header(0, 0), ErrUnknownOpcode},
		{"opcode unknown", header(0, byte(OpTData)+1), ErrUnknownOpcode},
		{"opcode 255", header(4, 255), ErrUnknownOpcode},
		// The untagged request/response/data opcodes of the retired
		// lock-step plane sit in a gap of the opcode range.
		{"retired opcode 3", header(0, 3), ErrUnknownOpcode},
		{"retired opcode 4", append(header(1, 4), 0), ErrUnknownOpcode},
		{"retired opcode 5", append(header(1, 5), 0), ErrUnknownOpcode},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadFrame(bytes.NewReader(tc.raw))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	err := WriteFrame(io.Discard, OpTData, make([]byte, MaxBody+1))
	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("got %v, want ErrFrameTooBig", err)
	}
	for _, op := range []Opcode{0, 3, 4, 5, OpTData + 1} {
		if err := WriteFrame(io.Discard, op, nil); !errors.Is(err, ErrUnknownOpcode) {
			t.Fatalf("opcode %d: got %v, want ErrUnknownOpcode", op, err)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, h := range helloSamples() {
		enc := h.Encode()
		if len(enc) != helloSize+len(h.Ticket) {
			t.Fatalf("hello encodes to %d bytes, want %d", len(enc), helloSize+len(h.Ticket))
		}
		got, err := DecodeHello(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, h) {
			t.Fatalf("got %+v, want %+v", got, h)
		}
	}
}

func helloSamples() []Hello {
	return []Hello{
		{MinVersion: Version, MaxVersion: Version, Measurement: attest.Measure([]byte("client app"))},
		{MinVersion: 1, MaxVersion: 7, Measurement: attest.Measure([]byte("client app")),
			Ticket: []byte{0xde, 0xad, 0xbe, 0xef, 0x01}},
		{MinVersion: 1, MaxVersion: 2},
	}
}

// namedBody is one malformed handshake body and the typed error its
// decoder must return; the tables below double as fuzz seeds.
type namedBody struct {
	name string
	buf  []byte
	want error
}

func helloTicketMalformed() []namedBody {
	// The retired 40-byte layout (no ticket-length field) is no longer a
	// Hello, whatever range it declares.
	retired := (&Hello{MinVersion: 1, MaxVersion: 2}).Encode()[:helloSize-2]

	// Declared ticket length disagreeing with the body length is malformed.
	short := (&Hello{MinVersion: 1, MaxVersion: 3, Ticket: []byte{1, 2, 3}}).Encode()
	binary.LittleEndian.PutUint16(short[helloSize-2:], 9)

	// A ticket above MaxTicket is rejected before any allocation.
	huge := (&Hello{MinVersion: 1, MaxVersion: 3, Ticket: make([]byte, 4)}).Encode()
	binary.LittleEndian.PutUint16(huge[helloSize-2:], MaxTicket+1)

	return []namedBody{
		{"retired 40-byte layout", retired, ErrBadFrame},
		{"ticket length mismatch", short, ErrBadFrame},
		{"oversized ticket", huge, ErrBadFrame},
	}
}

func TestDecodeHelloTicketMalformed(t *testing.T) {
	for _, tc := range helloTicketMalformed() {
		if _, err := DecodeHello(tc.buf); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func helloMalformed() []namedBody {
	good := (&Hello{MinVersion: 1, MaxVersion: Version}).Encode()

	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0xff

	zeroMin := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(zeroMin[4:], 0)

	inverted := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(inverted[4:], 5)
	binary.LittleEndian.PutUint16(inverted[6:], 2)

	return []namedBody{
		{"short", good[:8], ErrBadFrame},
		{"long", append(append([]byte(nil), good...), 0), ErrBadFrame},
		{"bad magic", badMagic, ErrBadMagic},
		{"zero min version", zeroMin, ErrVersion},
		{"inverted range", inverted, ErrVersion},
	}
}

func TestDecodeHelloMalformed(t *testing.T) {
	for _, tc := range helloMalformed() {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeHello(tc.buf); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		lo, hi uint16
		ok     bool
	}{
		{Version, Version, true},
		{1, 7, true}, // a wider client range still contains Version
		{3, 9, true},
		{1, 1, false},
		{1, 2, false}, // only the retired versions
		{4, 9, false},
		{0, 0, false},
	}
	for _, tc := range cases {
		err := Negotiate(tc.lo, tc.hi)
		if tc.ok && err != nil {
			t.Fatalf("Negotiate(%d,%d) = %v; want accepted", tc.lo, tc.hi, err)
		}
		if !tc.ok && !errors.Is(err, ErrVersion) {
			t.Fatalf("Negotiate(%d,%d): got %v, want ErrVersion", tc.lo, tc.hi, err)
		}
	}
}

func welcomeSamples() []Welcome {
	return []Welcome{
		{
			Version:     Version,
			SessionID:   44,
			SegmentSize: 32 << 20,
			ChunkSize:   4 << 20,
			MaxData:     MaxData,
			MaxInFlight: 32,
			Enclave:     attest.Measure([]byte("gpu enclave")),
			Resumed:     true,
			Ticket:      []byte{9, 8, 7, 6, 5, 4},
		},
		{
			Version:     Version,
			SessionID:   45,
			SegmentSize: 32 << 20,
			ChunkSize:   4 << 20,
			MaxData:     MaxData,
			MaxInFlight: 1,
			Enclave:     attest.Measure([]byte("gpu enclave")),
		},
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	for _, w := range welcomeSamples() {
		enc := w.Encode()
		if len(enc) != welcomeSize+len(w.Ticket) {
			t.Fatalf("Welcome encodes to %d bytes, want %d", len(enc), welcomeSize+len(w.Ticket))
		}
		got, err := DecodeWelcome(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("got %+v, want %+v", got, w)
		}
	}
}

func welcomeMalformed() []namedBody {
	good := (&Welcome{Version: Version, MaxData: MaxData, MaxInFlight: 8, Ticket: []byte{1, 2, 3}}).Encode()
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	le := binary.LittleEndian

	// Bodies of the two retired layouts: the v1 length (no MaxInFlight)
	// and the v2 length (no resumed flag or ticket), each declaring
	// either retired version.
	v1Len, v2Len := welcomeInFlightOff, welcomeResumedOff
	retired := func(version uint16, n int) []byte {
		b := mutate(func(b []byte) { le.PutUint16(b[4:], version) })
		return b[:n]
	}

	return []namedBody{
		{"short", good[:10], ErrBadFrame},
		{"bad magic", mutate(func(b []byte) { b[3] ^= 0x01 }), ErrBadMagic},
		{"bad version", mutate(func(b []byte) { le.PutUint16(b[4:], Version+1) }), ErrVersion},
		{"retired version in current layout", mutate(func(b []byte) { le.PutUint16(b[4:], 2) }), ErrVersion},
		{"zero max data", mutate(func(b []byte) { le.PutUint32(b[22:], 0) }), ErrBadFrame},
		{"huge max data", mutate(func(b []byte) { le.PutUint32(b[22:], MaxData+1) }), ErrBadFrame},
		{"zero max in-flight", mutate(func(b []byte) { le.PutUint16(b[welcomeInFlightOff:], 0) }), ErrBadFrame},
		{"v2 without max in-flight", retired(2, v1Len), ErrBadFrame},
		{"v1 with v2 trailer", retired(1, v2Len), ErrBadFrame},
		{"v2 zero max in-flight", func() []byte {
			b := retired(2, v2Len)
			le.PutUint16(b[welcomeInFlightOff:], 0)
			return b
		}(), ErrBadFrame},
		{"v3 without ticket trailer", good[:v2Len], ErrBadFrame},
		{"v3 bad resumed flag", mutate(func(b []byte) { b[welcomeResumedOff] = 7 }), ErrBadFrame},
		{"v3 ticket length mismatch", mutate(func(b []byte) { le.PutUint16(b[welcomeSize-2:], 200) }), ErrBadFrame},
		{"oversized ticket", mutate(func(b []byte) { le.PutUint16(b[welcomeSize-2:], MaxTicket+1) }), ErrBadFrame},
	}
}

func TestDecodeWelcomeMalformed(t *testing.T) {
	for _, tc := range welcomeMalformed() {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeWelcome(tc.buf); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestErrorRoundTrip(t *testing.T) {
	re, err := DecodeError(EncodeError(ECodeAuth, "nope"))
	if err != nil {
		t.Fatal(err)
	}
	if re.Code != ECodeAuth || re.Msg != "nope" {
		t.Fatalf("got %+v", re)
	}
	if !strings.Contains(re.Error(), "nope") {
		t.Fatalf("Error() = %q", re.Error())
	}
	if _, err := DecodeError([]byte{1, 2}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short error frame: got %v, want ErrBadFrame", err)
	}
	// Oversized messages are clipped to fit a frame, not rejected.
	huge := EncodeError(ECodeServer, strings.Repeat("x", MaxBody))
	if len(huge) > MaxBody {
		t.Fatalf("EncodeError produced %d bytes > MaxBody", len(huge))
	}
}

func TestSplitTag(t *testing.T) {
	body := []byte{0x78, 0x56, 0x34, 0x12, 0xaa, 0xbb}
	tag, payload, err := SplitTag(body)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 0x12345678 || !bytes.Equal(payload, []byte{0xaa, 0xbb}) {
		t.Fatalf("got tag %#x payload %v", tag, payload)
	}
	// A tag with no payload is valid (tagged Goodbye-style control).
	if tag, payload, err := SplitTag(body[:TagSize]); err != nil || tag != 0x12345678 || len(payload) != 0 {
		t.Fatalf("tag-only body: tag %#x payload %v err %v", tag, payload, err)
	}
	for _, short := range [][]byte{nil, {}, {1}, {1, 2, 3}} {
		if _, _, err := SplitTag(short); !errors.Is(err, ErrTagTruncated) {
			t.Fatalf("SplitTag(%d bytes): got %v, want ErrTagTruncated", len(short), err)
		}
	}
}

func TestFrameWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, 0)

	small := []byte{1, 2, 3}
	large := bytes.Repeat([]byte{0x5a}, MaxData) // above vectoredMin
	if err := fw.WriteFrame(OpError, small); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteTagged(OpTRequest, 7, small); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteTagged(OpTData, 0xdeadbeef, large); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteFrame(OpGoodbye, nil); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}

	op, body, err := ReadFrame(&buf)
	if err != nil || op != OpError || !bytes.Equal(body, small) {
		t.Fatalf("frame 1: op=%v body=%d err=%v", op, len(body), err)
	}
	op, body, err = ReadFrame(&buf)
	if err != nil || op != OpTRequest {
		t.Fatalf("frame 2: op=%v err=%v", op, err)
	}
	tag, payload, err := SplitTag(body)
	if err != nil || tag != 7 || !bytes.Equal(payload, small) {
		t.Fatalf("frame 2: tag=%d payload=%d err=%v", tag, len(payload), err)
	}
	op, body, err = ReadFrame(&buf)
	if err != nil || op != OpTData {
		t.Fatalf("frame 3: op=%v err=%v", op, err)
	}
	tag, payload, err = SplitTag(body)
	if err != nil || tag != 0xdeadbeef || !bytes.Equal(payload, large) {
		t.Fatalf("frame 3: tag=%#x payload=%d err=%v", tag, len(payload), err)
	}
	op, body, err = ReadFrame(&buf)
	if err != nil || op != OpGoodbye || len(body) != 0 {
		t.Fatalf("frame 4: op=%v body=%d err=%v", op, len(body), err)
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

func TestFrameWriterRejectsBadFrames(t *testing.T) {
	fw := NewFrameWriter(io.Discard, 0)
	if err := fw.WriteFrame(OpError, make([]byte, MaxBody+1)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize: got %v", err)
	}
	// A tagged body at the MaxBody boundary overflows once the tag is added.
	if err := fw.WriteTagged(OpTData, 1, make([]byte, MaxBody-TagSize+1)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("tagged oversize: got %v", err)
	}
	if err := fw.WriteFrame(0, nil); !errors.Is(err, ErrUnknownOpcode) {
		t.Fatalf("opcode zero: got %v", err)
	}
	if err := fw.WriteFrame(5, nil); !errors.Is(err, ErrUnknownOpcode) {
		t.Fatalf("retired opcode: got %v", err)
	}
	if err := fw.WriteTagged(OpError, 1, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("WriteTagged with untagged opcode: got %v", err)
	}
}

// TestFrameWriterInterleavedSizes drives the writer across the
// buffered/vectored boundary in both directions and checks the byte
// stream is identical to the plain WriteFrame encoding.
func TestFrameWriterInterleavedSizes(t *testing.T) {
	sizes := []int{0, 1, vectoredMin - 1, vectoredMin, vectoredMin + 1, MaxData, 3, MaxData / 2, 2}
	var got, want bytes.Buffer
	fw := NewFrameWriter(&got, 1<<10)
	for i, n := range sizes {
		body := bytes.Repeat([]byte{byte(i + 1)}, n)
		if err := fw.WriteFrame(OpError, body); err != nil {
			t.Fatal(err)
		}
		if err := fw.WriteTagged(OpTData, uint32(i), body); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(&want, OpError, body); err != nil {
			t.Fatal(err)
		}
		tagged := make([]byte, TagSize+len(body))
		binary.LittleEndian.PutUint32(tagged, uint32(i))
		copy(tagged[TagSize:], body)
		if err := WriteFrame(&want, OpTData, tagged); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("FrameWriter byte stream differs from WriteFrame encoding")
	}
}

func TestFrameReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{nil, {0x42}, bytes.Repeat([]byte{0xab}, MaxData)}
	for _, body := range bodies {
		if err := WriteFrame(&buf, OpTData, body); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	for _, body := range bodies {
		op, pb, err := fr.Next()
		if err != nil || op != OpTData {
			t.Fatalf("op=%v err=%v", op, err)
		}
		if len(body) == 0 {
			if pb != nil {
				t.Fatal("empty body returned a non-nil Buf")
			}
			continue
		}
		if !bytes.Equal(pb.Bytes(), body) {
			t.Fatalf("pooled body %d bytes differs", len(body))
		}
		pb.Release()
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("got %v, want io.EOF", err)
	}
}

// TestBufPoolNoAliasing proves the ownership contract: once a buffer
// is Released and recycled into a later frame, the bytes handed to the
// second reader are exactly the second frame's — nothing from the
// first frame leaks through, even when the second frame is shorter.
func TestBufPoolNoAliasing(t *testing.T) {
	var buf bytes.Buffer
	first := bytes.Repeat([]byte{0xee}, 1024)
	second := bytes.Repeat([]byte{0x11}, 64) // shorter: would expose stale tail if length were wrong
	if err := WriteFrame(&buf, OpTData, first); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, OpTData, second); err != nil {
		t.Fatal(err)
	}

	fr := NewFrameReader(&buf)
	_, pb1, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), pb1.Bytes()...)
	pb1.Release()

	_, pb2, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	defer pb2.Release()
	if len(pb2.Bytes()) != len(second) || !bytes.Equal(pb2.Bytes(), second) {
		t.Fatalf("recycled buffer returned %d bytes, want the %d-byte second frame", len(pb2.Bytes()), len(second))
	}
	if !bytes.Equal(snapshot, first) {
		t.Fatal("snapshot taken before Release was corrupted")
	}
	// GetBuf must never hand out a buffer still visibly holding the
	// released frame beyond the requested length.
	g := GetBuf(8)
	defer g.Release()
	if len(g.Bytes()) != 8 {
		t.Fatalf("GetBuf(8) length %d", len(g.Bytes()))
	}
}

// FuzzReadFrame asserts the strict decoder never panics and only
// returns typed errors on arbitrary input, for both the allocating and
// the pooled read path.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(header(0, byte(OpGoodbye)))
	f.Add(append(header(3, byte(OpError)), 1, 2, 3))
	f.Add(header(MaxBody+1, byte(OpTRequest)))
	f.Add(header(12, 99))
	// Tagged seeds: a well-formed tagged frame, a tag truncated mid-body,
	// a tagged reply with an arbitrary (unknown) tag, and a stream mixing
	// a retired untagged data frame with a tagged one.
	f.Add(append(header(TagSize+2, byte(OpTRequest)), 1, 0, 0, 0, 0xca, 0xfe))
	f.Add(append(header(2, byte(OpTData)), 9, 9))
	f.Add(append(header(TagSize, byte(OpTResponse)), 0xff, 0xff, 0xff, 0xff))
	f.Add(append(append(header(1, 5), 7), append(header(TagSize+1, byte(OpTData)), 3, 0, 0, 0, 8)...))
	// The other retired opcodes: request (3) and response (4).
	f.Add(append(header(4, 3), 1, 2, 3, 4))
	f.Add(header(0, 4))
	f.Fuzz(func(t *testing.T, raw []byte) {
		op, body, err := ReadFrame(bytes.NewReader(raw))

		// The pooled reader must agree exactly with the allocating one.
		pop, pbuf, perr := NewFrameReader(bytes.NewReader(raw)).Next()
		if (err == nil) != (perr == nil) || pop != op {
			t.Fatalf("pooled reader diverges: (%v, %v) vs (%v, %v)", op, err, pop, perr)
		}
		if perr == nil {
			var pbody []byte
			if pbuf != nil {
				pbody = pbuf.Bytes()
			}
			if !bytes.Equal(pbody, body) {
				t.Fatal("pooled reader body differs")
			}
			pbuf.Release()
		}

		if err != nil {
			switch {
			case err == io.EOF,
				errors.Is(err, ErrShortFrame),
				errors.Is(err, ErrFrameTooBig),
				errors.Is(err, ErrUnknownOpcode):
			default:
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if !op.known() {
			t.Fatalf("accepted opcode %d", op)
		}
		if len(body) > MaxBody {
			t.Fatalf("accepted %d-byte body", len(body))
		}
		if op.Tagged() {
			// Tagged bodies either split cleanly or fail typed.
			if _, _, err := SplitTag(body); err != nil && !errors.Is(err, ErrTagTruncated) {
				t.Fatalf("untyped tag error: %v", err)
			}
		}
		// Re-encoding an accepted frame must reproduce the consumed prefix.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, op, body); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), raw[:buf.Len()]) {
			t.Fatal("re-encoded frame differs from input prefix")
		}
	})
}

// handshakeErr reports whether err is one of the typed errors the
// handshake decoders may return.
func handshakeErr(err error) bool {
	return errors.Is(err, ErrBadFrame) || errors.Is(err, ErrBadMagic) || errors.Is(err, ErrVersion)
}

// FuzzDecodeHello: arbitrary bodies never panic and fail typed; an
// accepted body is exactly the encoding of what it decoded to.
func FuzzDecodeHello(f *testing.F) {
	for _, h := range helloSamples() {
		f.Add(h.Encode())
	}
	for _, tc := range append(helloMalformed(), helloTicketMalformed()...) {
		f.Add(tc.buf)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		h, err := DecodeHello(raw)
		if err != nil {
			if !handshakeErr(err) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if len(h.Ticket) > MaxTicket {
			t.Fatalf("accepted %d-byte ticket", len(h.Ticket))
		}
		if !bytes.Equal(h.Encode(), raw) {
			t.Fatal("re-encoded hello differs from input")
		}
		back, err := DecodeHello(h.Encode())
		if err != nil || !reflect.DeepEqual(back, h) {
			t.Fatalf("Decode(Encode(x)) = %+v, %v; want %+v", back, err, h)
		}
	})
}

// FuzzDecodeWelcome is FuzzDecodeHello for the server's half.
func FuzzDecodeWelcome(f *testing.F) {
	for _, w := range welcomeSamples() {
		f.Add(w.Encode())
	}
	for _, tc := range welcomeMalformed() {
		f.Add(tc.buf)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		w, err := DecodeWelcome(raw)
		if err != nil {
			if !handshakeErr(err) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if w.Version != Version || w.MaxInFlight == 0 || w.MaxData == 0 || w.MaxData > MaxData || len(w.Ticket) > MaxTicket {
			t.Fatalf("accepted out-of-range welcome %+v", w)
		}
		if !bytes.Equal(w.Encode(), raw) {
			t.Fatal("re-encoded welcome differs from input")
		}
		back, err := DecodeWelcome(w.Encode())
		if err != nil || !reflect.DeepEqual(back, w) {
			t.Fatalf("Decode(Encode(x)) = %+v, %v; want %+v", back, err, w)
		}
	})
}
