package wire

import (
	"bytes"
	"io"
	"testing"
)

// loopReader replays one encoded frame forever, so read benchmarks
// measure the decode path and not buffer refills.
type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.frame) {
		l.off = 0
	}
	n := copy(p, l.frame[l.off:])
	l.off += n
	return n, nil
}

// BenchmarkReadFrame contrasts the allocating reader with the pooled
// path: FrameReader.Next must report 0 allocs/op.
func BenchmarkReadFrame(b *testing.B) {
	var enc bytes.Buffer
	if err := WriteFrame(&enc, OpTData, bytes.Repeat([]byte{0xab}, MaxData)); err != nil {
		b.Fatal(err)
	}

	b.Run("alloc", func(b *testing.B) {
		r := &loopReader{frame: enc.Bytes()}
		b.SetBytes(int64(enc.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _, err := ReadFrame(r)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		fr := NewFrameReader(&loopReader{frame: enc.Bytes()})
		b.SetBytes(int64(enc.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, buf, err := fr.Next()
			if err != nil {
				b.Fatal(err)
			}
			buf.Release()
		}
	})
}

// BenchmarkWriteFrame contrasts the two-write WriteFrame with the
// FrameWriter's vectored path: the FrameWriter must report 0
// allocs/op for both small (buffered) and large (vectored) bodies.
func BenchmarkWriteFrame(b *testing.B) {
	small := bytes.Repeat([]byte{0x11}, 128)
	large := bytes.Repeat([]byte{0xab}, MaxData)

	b.Run("plain/large", func(b *testing.B) {
		b.SetBytes(int64(HeaderSize + len(large)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WriteFrame(io.Discard, OpTData, large); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("framewriter/small", func(b *testing.B) {
		fw := NewFrameWriter(io.Discard, 0)
		b.SetBytes(int64(HeaderSize + len(small)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fw.WriteFrame(OpTData, small); err != nil {
				b.Fatal(err)
			}
		}
		if err := fw.Flush(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("framewriter/large", func(b *testing.B) {
		fw := NewFrameWriter(io.Discard, 0)
		b.SetBytes(int64(HeaderSize + len(large)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fw.WriteFrame(OpTData, large); err != nil {
				b.Fatal(err)
			}
		}
		if err := fw.Flush(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("framewriter/tagged", func(b *testing.B) {
		fw := NewFrameWriter(io.Discard, 0)
		b.SetBytes(int64(HeaderSize + TagSize + len(large)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fw.WriteTagged(OpTData, uint32(i), large); err != nil {
				b.Fatal(err)
			}
		}
		if err := fw.Flush(); err != nil {
			b.Fatal(err)
		}
	})
}
