// Package wire is the network protocol of the HIX serving layer: a
// length-prefixed binary framing spoken between a remote client
// (hixrt.Dial) and the hixserve front-end (internal/netserve).
//
// The TCP link models the application↔user-enclave boundary of a
// client/server confidential-offload deployment (the RPC split Gramine
// uses for SGX accelerator offloading): the HIX security protocol
// itself — attestation, three-party Diffie-Hellman, OCB-protected
// requests and single-copy encrypted data — runs unchanged between the
// server-hosted user enclave and the GPU enclave. Request and response
// frames are therefore a faithful encoding of hix.Request/hix.Response,
// and bulk data travels as shared-segment payload chunks bracketed by
// those frames.
//
// Framing: every frame is
//
//	uint32  body length (little endian, excludes this 5-byte header)
//	uint8   opcode
//	[]byte  body
//
// There is one protocol, Version. The handshake is one Hello frame from
// the client (magic, the version range it speaks, its attestation
// measurement, an optional resumption ticket) answered by one Welcome
// frame from the server (magic, Version, session id, transfer geometry,
// the in-flight window MaxInFlight, the GPU enclave's measurement,
// whether the ticket was honored, a fresh ticket) or an Error frame.
// Decoding is strict: frames above MaxBody, unknown opcodes, short
// reads, bad magic, and version ranges that exclude Version all surface
// as typed errors — never panics.
//
// After the handshake every request, response and payload chunk is a
// tagged frame (OpTRequest, OpTResponse, OpTData): a uint32 tag directly
// after the opcode, encoded as the first TagSize bytes of the frame
// body, so anything that parses only the outer 5-byte framing (like the
// fault plane's stream scanner) never sees it. Tags let a connection
// keep up to MaxInFlight requests outstanding and match replies out of
// order; lock-step is the same transport at a window of 1. Error and
// Goodbye frames are untagged: they condemn or end the connection, not
// one request.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/attest"
)

// Protocol identity.
const (
	// Magic opens every Hello and Welcome body ("HIXW").
	Magic = 0x48495857
	// Version is the one protocol version this implementation speaks:
	// tagged frames, the MaxInFlight window in the Welcome, and an
	// optional resumption ticket in Hello and Welcome. A Hello whose
	// version range excludes it is refused.
	Version = 3
)

// Frame geometry.
const (
	// HeaderSize is the fixed frame header: uint32 length + uint8 opcode.
	HeaderSize = 5
	// TagSize is the width of the request tag tagged frames carry
	// directly after the opcode, as the leading bytes of the body.
	TagSize = 4
	// MaxBody bounds one frame's body. A decoder must reject larger
	// lengths before allocating, so a hostile peer cannot balloon
	// memory with one forged header.
	MaxBody = 1 << 20
	// MaxData is the largest payload slice a single Data frame may
	// carry; bulk transfers split into as many Data frames as needed.
	// Servers may advertise a smaller per-connection bound in the
	// Welcome, but never a larger one.
	MaxData = 256 << 10
	// MaxTicket bounds the opaque resumption ticket a Hello or Welcome
	// may carry. Real tickets are ~120 bytes; the bound exists
	// so a hostile peer cannot pad the handshake.
	MaxTicket = 256
)

// Opcode identifies a frame type.
type Opcode uint8

// Opcode bytes are wire-stable. 3, 4 and 5 were the untagged
// request/response/data frames of the retired lock-step plane; they are
// never reassigned and decode as ErrUnknownOpcode.
const (
	// OpHello is the client's opening frame.
	OpHello Opcode = 1
	// OpWelcome is the server's handshake acceptance.
	OpWelcome Opcode = 2
	// OpError carries a terminal error (code + message).
	OpError Opcode = 6
	// OpGoodbye tells the client the server is draining and will accept
	// no further requests on this connection.
	OpGoodbye Opcode = 7
	// OpTRequest carries a tag and one hix.Request encoding.
	OpTRequest Opcode = 8
	// OpTResponse carries a tag and one hix.Response encoding.
	OpTResponse Opcode = 9
	// OpTData carries a tag and one payload chunk of a bulk transfer.
	OpTData Opcode = 10
)

// known reports whether o is an opcode of the protocol.
func (o Opcode) known() bool {
	return o == OpHello || o == OpWelcome || (o >= OpError && o <= OpTData)
}

// Tagged reports whether op carries a leading uint32 tag in its body.
func (o Opcode) Tagged() bool { return o >= OpTRequest && o <= OpTData }

func (o Opcode) String() string {
	switch o {
	case OpHello:
		return "hello"
	case OpWelcome:
		return "welcome"
	case OpError:
		return "error"
	case OpGoodbye:
		return "goodbye"
	case OpTRequest:
		return "trequest"
	case OpTResponse:
		return "tresponse"
	case OpTData:
		return "tdata"
	default:
		return fmt.Sprintf("Opcode(%d)", uint8(o))
	}
}

// Typed protocol errors.
var (
	// ErrFrameTooBig reports a header announcing a body above the limit.
	ErrFrameTooBig = errors.New("wire: frame exceeds size limit")
	// ErrShortFrame reports a header or body truncated mid-read.
	ErrShortFrame = errors.New("wire: short frame")
	// ErrUnknownOpcode reports an opcode outside the protocol.
	ErrUnknownOpcode = errors.New("wire: unknown opcode")
	// ErrBadMagic reports a handshake body not starting with Magic.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrVersion reports a peer that does not speak Version.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrBadFrame reports a structurally invalid frame body.
	ErrBadFrame = errors.New("wire: malformed frame body")
	// ErrTagTruncated reports a tagged frame whose body is shorter than
	// the tag itself.
	ErrTagTruncated = errors.New("wire: tagged frame truncated before its tag")
)

// SplitTag splits a tagged frame body into its tag and payload. A body
// shorter than the tag is ErrTagTruncated.
func SplitTag(body []byte) (uint32, []byte, error) {
	if len(body) < TagSize {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrTagTruncated, len(body))
	}
	return binary.LittleEndian.Uint32(body), body[TagSize:], nil
}

// Remote error codes carried by OpError frames.
const (
	// ECodeProto: the peer violated the framing or protocol state.
	ECodeProto uint32 = iota + 1
	// ECodeVersion: the client's version range excludes Version.
	ECodeVersion
	// ECodeAuth: session setup or message authentication failed.
	ECodeAuth
	// ECodeRequest: the request was understood but refused.
	ECodeRequest
	// ECodeServer: an internal server failure; the session is gone.
	ECodeServer
	// ECodeShutdown: the server is draining connections.
	ECodeShutdown
)

// RemoteError is an OpError frame surfaced to the API caller.
type RemoteError struct {
	Code uint32
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: remote error %d: %s", e.Code, e.Msg)
}

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, op Opcode, body []byte) error {
	if len(body) > MaxBody {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, len(body))
	}
	if !op.known() {
		return fmt.Errorf("%w: %d", ErrUnknownOpcode, op)
	}
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(body)))
	hdr[4] = byte(op)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(body) == 0 {
		return nil
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads and validates one frame. Oversized lengths are
// rejected before any body allocation; truncated headers and bodies
// surface as ErrShortFrame (a clean EOF before any header byte is
// returned as io.EOF so callers can distinguish orderly close).
func ReadFrame(r io.Reader) (Opcode, []byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: header: %w", ErrShortFrame, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	op := Opcode(hdr[4])
	if n > MaxBody {
		return 0, nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooBig, n, MaxBody)
	}
	if !op.known() {
		return 0, nil, fmt.Errorf("%w: %d", ErrUnknownOpcode, uint8(op))
	}
	if n == 0 {
		return op, nil, nil
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("%w: body: %w", ErrShortFrame, err)
	}
	return op, body, nil
}

// Buf is a pooled frame body. Ownership contract: whoever obtains a
// Buf (from GetBuf or FrameReader.Next) owns it and must call Release
// exactly once when done — after that the backing bytes may be handed
// to another frame, so neither Bytes() nor any sub-slice of it may be
// retained across Release. Handing a Buf to another goroutine hands
// the release obligation with it.
type Buf struct {
	b []byte
}

// Bytes returns the buffer contents (nil for the nil Buf of an empty
// frame body). The slice is only valid until Release.
func (b *Buf) Bytes() []byte {
	if b == nil {
		return nil
	}
	return b.b
}

// Release returns the buffer to the pool. The Buf and any slice
// previously returned by Bytes must not be used afterwards.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	b.b = b.b[:0]
	bufPool.Put(b)
}

// Pooled bodies are sized for the common worst case — a full Data
// chunk plus a tag and slack for small control frames — and grow on
// demand for rarer larger bodies (which then recycle at their larger
// size).
var bufPool = sync.Pool{
	New: func() any { return &Buf{b: make([]byte, 0, MaxData+TagSize+64)} },
}

// GetBuf returns a pooled buffer with length n (contents undefined).
// The caller owns the result and must Release it exactly once.
func GetBuf(n int) *Buf {
	b := bufPool.Get().(*Buf)
	if cap(b.b) < n {
		b.b = make([]byte, n)
	} else {
		b.b = b.b[:n]
	}
	return b
}

// FrameReader reads frames into pooled buffers through a persistent
// header scratch, so the steady-state read path performs zero
// allocations per frame. Not safe for concurrent use.
type FrameReader struct {
	r   io.Reader
	hdr [HeaderSize]byte
}

// NewFrameReader wraps r. Callers wanting buffered reads should hand
// in a bufio.Reader themselves (the reader takes no stance on
// buffering so Peek-based idle waits stay possible).
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next reads and validates one frame, returning the body as a pooled
// buffer the caller must Release exactly once (nil for empty bodies).
func (fr *FrameReader) Next() (Opcode, *Buf, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: header: %w", ErrShortFrame, err)
	}
	n := binary.LittleEndian.Uint32(fr.hdr[0:])
	op := Opcode(fr.hdr[4])
	if n > MaxBody {
		return 0, nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooBig, n, MaxBody)
	}
	if !op.known() {
		return 0, nil, fmt.Errorf("%w: %d", ErrUnknownOpcode, uint8(op))
	}
	if n == 0 {
		return op, nil, nil
	}
	buf := GetBuf(int(n))
	if _, err := io.ReadFull(fr.r, buf.b); err != nil {
		buf.Release()
		return 0, nil, fmt.Errorf("%w: body: %w", ErrShortFrame, err)
	}
	return op, buf, nil
}

// vectoredMin is the body size above which FrameWriter stops copying
// through its bufio buffer and hands header+body to the kernel as one
// vectored write (net.Buffers → writev). Below it, the copy is cheaper
// than the syscall bookkeeping and lets many small frames coalesce
// into one write.
const vectoredMin = 8 << 10

// FrameWriter writes frames through a reused buffer with a vectored
// large-body path, so the steady-state write path performs zero
// allocations: small frames coalesce in an internal bufio.Writer and
// large bodies go out via net.Buffers (writev on TCP) without being
// copied into the buffer. Not safe for concurrent use; callers must
// Flush before the peer is expected to act on a frame.
type FrameWriter struct {
	w   io.Writer
	bw  *bufio.Writer
	hdr [HeaderSize + TagSize]byte
	// arr persistently backs the two-element net.Buffers handed to
	// WriteTo, which consumes the slice — rebuilt from arr each call so
	// no per-call allocation happens.
	arr [2][]byte
	nb  net.Buffers
}

// NewFrameWriter wraps w. bufSize <= 0 selects a 32 KiB buffer.
func NewFrameWriter(w io.Writer, bufSize int) *FrameWriter {
	if bufSize <= 0 {
		bufSize = 32 << 10
	}
	return &FrameWriter{w: w, bw: bufio.NewWriterSize(w, bufSize)}
}

// WriteFrame buffers one untagged frame.
func (fw *FrameWriter) WriteFrame(op Opcode, body []byte) error {
	return fw.frame(op, 0, false, body)
}

// WriteTagged buffers one tagged frame: the tag is encoded as the
// leading TagSize bytes of the body.
func (fw *FrameWriter) WriteTagged(op Opcode, tag uint32, body []byte) error {
	if !op.Tagged() {
		return fmt.Errorf("%w: %s is not a tagged opcode", ErrBadFrame, op)
	}
	return fw.frame(op, tag, true, body)
}

// Flush pushes everything buffered to the underlying writer.
func (fw *FrameWriter) Flush() error { return fw.bw.Flush() }

func (fw *FrameWriter) frame(op Opcode, tag uint32, tagged bool, body []byte) error {
	bodyLen := len(body)
	hdrLen := HeaderSize
	if tagged {
		bodyLen += TagSize
		hdrLen += TagSize
	}
	if bodyLen > MaxBody {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, bodyLen)
	}
	if !op.known() {
		return fmt.Errorf("%w: %d", ErrUnknownOpcode, op)
	}
	binary.LittleEndian.PutUint32(fw.hdr[0:], uint32(bodyLen))
	fw.hdr[4] = byte(op)
	if tagged {
		binary.LittleEndian.PutUint32(fw.hdr[HeaderSize:], tag)
	}
	if len(body) >= vectoredMin {
		// Large body: drain the buffer, then one vectored write of
		// header+body straight from the caller's slice.
		if err := fw.bw.Flush(); err != nil {
			return err
		}
		fw.arr[0] = fw.hdr[:hdrLen]
		fw.arr[1] = body
		fw.nb = net.Buffers(fw.arr[:2])
		_, err := fw.nb.WriteTo(fw.w)
		fw.arr[0], fw.arr[1], fw.nb = nil, nil, nil
		return err
	}
	if _, err := fw.bw.Write(fw.hdr[:hdrLen]); err != nil {
		return err
	}
	if len(body) == 0 {
		return nil
	}
	_, err := fw.bw.Write(body)
	return err
}

// Hello is the client's handshake: the version range it speaks, its
// attestation measurement, which the server uses as the identity (and
// measured image) of the user enclave it hosts for this connection, and
// an opaque resumption ticket from a previous Welcome (empty on first
// connect).
type Hello struct {
	MinVersion  uint16
	MaxVersion  uint16
	Measurement attest.Measurement
	Ticket      []byte
}

// helloSize is the fixed part of a Hello body; the ticket follows it.
const helloSize = 4 + 2 + 2 + len(attest.Measurement{}) + 2

// Encode serializes the Hello body: the fixed part ends in the uint16
// ticket length, then the ticket.
func (h *Hello) Encode() []byte {
	buf := make([]byte, helloSize+len(h.Ticket))
	le := binary.LittleEndian
	le.PutUint32(buf[0:], Magic)
	le.PutUint16(buf[4:], h.MinVersion)
	le.PutUint16(buf[6:], h.MaxVersion)
	copy(buf[8:], h.Measurement[:])
	le.PutUint16(buf[helloSize-2:], uint16(len(h.Ticket)))
	copy(buf[helloSize:], h.Ticket)
	return buf
}

// DecodeHello parses and validates a Hello body, which must match its
// own declared ticket length exactly.
func DecodeHello(buf []byte) (Hello, error) {
	if len(buf) < helloSize {
		return Hello{}, fmt.Errorf("%w: hello length %d", ErrBadFrame, len(buf))
	}
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != Magic {
		return Hello{}, fmt.Errorf("%w: hello %#x", ErrBadMagic, le.Uint32(buf[0:]))
	}
	var h Hello
	h.MinVersion = le.Uint16(buf[4:])
	h.MaxVersion = le.Uint16(buf[6:])
	copy(h.Measurement[:], buf[8:])
	if h.MinVersion == 0 || h.MaxVersion < h.MinVersion {
		return Hello{}, fmt.Errorf("%w: hello range [%d,%d]", ErrVersion, h.MinVersion, h.MaxVersion)
	}
	tlen := int(le.Uint16(buf[helloSize-2:]))
	if tlen > MaxTicket {
		return Hello{}, fmt.Errorf("%w: hello ticket length %d > %d", ErrBadFrame, tlen, MaxTicket)
	}
	if len(buf) != helloSize+tlen {
		return Hello{}, fmt.Errorf("%w: hello length %d != %d for ticket length %d", ErrBadFrame, len(buf), helloSize+tlen, tlen)
	}
	if tlen > 0 {
		h.Ticket = append([]byte(nil), buf[helloSize:]...)
	}
	return h, nil
}

// Negotiate accepts a client offering [lo, hi] if the range contains
// Version, or fails with ErrVersion.
func Negotiate(lo, hi uint16) error {
	if lo > Version || hi < Version {
		return fmt.Errorf("%w: client [%d,%d], server %d", ErrVersion, lo, hi, Version)
	}
	return nil
}

// Welcome is the server's handshake acceptance: the protocol version,
// the session the connection was bridged onto, the transfer geometry
// the client needs to chunk payloads, the server's bound on
// concurrently outstanding tagged requests per connection, the GPU
// enclave's measurement for the client's records, whether the presented
// ticket was honored (Resumed), and a fresh single-use ticket for the
// client's next redial.
type Welcome struct {
	Version     uint16
	SessionID   uint32
	SegmentSize uint64
	ChunkSize   uint32 // data-path pipeline chunk (cost model CryptoChunk)
	MaxData     uint32 // largest payload per Data frame
	Enclave     attest.Measurement
	MaxInFlight uint16 // outstanding tagged requests per connection
	Resumed     bool   // the presented ticket skipped the full DH
	Ticket      []byte // fresh resumption ticket for the next redial
}

// Welcome body offsets past the enclave measurement, and the size of
// the fixed part; the ticket follows it.
const (
	welcomeInFlightOff = 4 + 2 + 4 + 8 + 4 + 4 + len(attest.Measurement{})
	welcomeResumedOff  = welcomeInFlightOff + 2
	welcomeSize        = welcomeResumedOff + 1 + 2
)

// Encode serializes the Welcome body: the fixed part ends in the
// resumed flag and the uint16 ticket length, then the ticket.
func (w *Welcome) Encode() []byte {
	buf := make([]byte, welcomeSize+len(w.Ticket))
	le := binary.LittleEndian
	le.PutUint32(buf[0:], Magic)
	le.PutUint16(buf[4:], w.Version)
	le.PutUint32(buf[6:], w.SessionID)
	le.PutUint64(buf[10:], w.SegmentSize)
	le.PutUint32(buf[18:], w.ChunkSize)
	le.PutUint32(buf[22:], w.MaxData)
	copy(buf[26:], w.Enclave[:])
	le.PutUint16(buf[welcomeInFlightOff:], w.MaxInFlight)
	if w.Resumed {
		buf[welcomeResumedOff] = 1
	}
	le.PutUint16(buf[welcomeSize-2:], uint16(len(w.Ticket)))
	copy(buf[welcomeSize:], w.Ticket)
	return buf
}

// DecodeWelcome parses and validates a Welcome body, which must declare
// Version and match its own declared ticket length exactly.
func DecodeWelcome(buf []byte) (Welcome, error) {
	if len(buf) < welcomeSize {
		return Welcome{}, fmt.Errorf("%w: welcome length %d", ErrBadFrame, len(buf))
	}
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != Magic {
		return Welcome{}, fmt.Errorf("%w: welcome %#x", ErrBadMagic, le.Uint32(buf[0:]))
	}
	var w Welcome
	w.Version = le.Uint16(buf[4:])
	w.SessionID = le.Uint32(buf[6:])
	w.SegmentSize = le.Uint64(buf[10:])
	w.ChunkSize = le.Uint32(buf[18:])
	w.MaxData = le.Uint32(buf[22:])
	copy(w.Enclave[:], buf[26:])
	w.MaxInFlight = le.Uint16(buf[welcomeInFlightOff:])
	if w.Version != Version {
		return Welcome{}, fmt.Errorf("%w: welcome version %d", ErrVersion, w.Version)
	}
	tlen := int(le.Uint16(buf[welcomeSize-2:]))
	if tlen > MaxTicket {
		return Welcome{}, fmt.Errorf("%w: welcome ticket length %d > %d", ErrBadFrame, tlen, MaxTicket)
	}
	if len(buf) != welcomeSize+tlen {
		return Welcome{}, fmt.Errorf("%w: welcome length %d != %d for ticket length %d", ErrBadFrame, len(buf), welcomeSize+tlen, tlen)
	}
	if w.MaxData == 0 || w.MaxData > MaxData {
		return Welcome{}, fmt.Errorf("%w: welcome max data %d", ErrBadFrame, w.MaxData)
	}
	if w.MaxInFlight == 0 {
		return Welcome{}, fmt.Errorf("%w: welcome max in-flight 0", ErrBadFrame)
	}
	switch buf[welcomeResumedOff] {
	case 0:
	case 1:
		w.Resumed = true
	default:
		return Welcome{}, fmt.Errorf("%w: welcome resumed flag %d", ErrBadFrame, buf[welcomeResumedOff])
	}
	if tlen > 0 {
		w.Ticket = append([]byte(nil), buf[welcomeSize:]...)
	}
	return w, nil
}

// EncodeError serializes an OpError body.
func EncodeError(code uint32, msg string) []byte {
	if len(msg) > MaxBody-4 {
		msg = msg[:MaxBody-4]
	}
	buf := make([]byte, 4+len(msg))
	binary.LittleEndian.PutUint32(buf[0:], code)
	copy(buf[4:], msg)
	return buf
}

// DecodeError parses an OpError body.
func DecodeError(buf []byte) (*RemoteError, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("%w: error frame %d bytes", ErrBadFrame, len(buf))
	}
	return &RemoteError{
		Code: binary.LittleEndian.Uint32(buf[0:]),
		Msg:  string(buf[4:]),
	}, nil
}
