package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/hix"
	"repro/internal/attest"
	"repro/internal/ocb"
)

const bulkBytes = 16 << 20

// smallFixture is the platform every hixbench serving experiment boots;
// the benchmark's three serving workloads run on it.
const (
	smallDRAM     = 768 << 20
	smallEPC      = 64 << 20
	smallVRAM     = 512 << 20
	smallChannels = 8
)

const smallFixtureText = "small fixture (DRAM 768 MiB, EPC 64 MiB, VRAM 512 MiB, 8 channels, 1 GPU, 1 partition)"

type bulkCopy struct {
	p       *hix.Platform
	s       *hix.Session
	ptr     hix.Ptr
	payload []byte
	back    []byte
	rng     *rand.Rand
}

func setupBulkCopy(c config, _ *tracer) (instance, error) {
	p, err := hix.NewPlatform(hix.Options{
		DRAMBytes: smallDRAM, EPCBytes: smallEPC, VRAMBytes: smallVRAM,
		Channels: smallChannels, PlatformSeed: c.platformSeed(),
	})
	if err != nil {
		return nil, err
	}
	s, err := p.NewSecureSession(nil)
	if err != nil {
		return nil, err
	}
	ptr, err := s.MemAlloc(bulkBytes)
	if err != nil {
		return nil, err
	}
	b := &bulkCopy{p: p, s: s, ptr: ptr, rng: c.rng(), payload: make([]byte, bulkBytes), back: make([]byte, bulkBytes)}
	b.rng.Read(b.payload)
	if w := b.measure(3, nil); w.failed > 0 {
		return nil, fmt.Errorf("bulk_copy warm-up: %v", w.notes)
	}
	return b, nil
}

func (b *bulkCopy) describe() string {
	return "in-process hix.NewPlatform on the " + smallFixtureText + ", one secure session, one 16 MiB buffer"
}

// measure runs n pairs of a 16 MiB upload (op) and a 16 MiB readback
// (alt). One seeded byte changes per pair so no two uploads are equal.
func (b *bulkCopy) measure(n int, tr *tracer) sample {
	var s sample
	tl := b.p.Machine().Timeline
	if tr != nil {
		tl.EnableTrace()
	}
	sim0 := b.s.Elapsed()
	s.clock.start()
	for i := 0; i < n; i++ {
		b.payload[b.rng.Intn(bulkBytes)]++

		t0 := time.Now()
		id := tr.begin("hixrt.MemcpyHtoD", -1, i)
		err := b.s.MemcpyHtoD(b.ptr, b.payload, 0)
		tr.end(id)
		s.op = append(s.op, ms(time.Since(t0)))
		s.done(s.expect(err == nil, "pair %d HtoD: %v", i, err))

		t0 = time.Now()
		id = tr.begin("hixrt.MemcpyDtoH", -1, i)
		err = b.s.MemcpyDtoH(b.back, b.ptr, 0)
		tr.end(id)
		s.alt = append(s.alt, ms(time.Since(t0)))
		s.done(s.expect(err == nil, "pair %d DtoH: %v", i, err) &&
			s.expect(bytes.Equal(b.back, b.payload), "pair %d: readback differs from upload", i))
	}
	s.clock.stop()
	if tr == nil {
		return s
	}

	s.layer = map[string]float64{}
	simLayer(tl.Trace(), int64(b.s.Elapsed()-sim0), n, s.layer)
	probeOCB(b.p.Machine().Cost.CryptoChunk, s.layer)
	return s
}

func (b *bulkCopy) close(*tracer) error {
	if err := b.s.Close(); err != nil {
		return err
	}
	return b.p.Shutdown()
}

// probeOCB times the AEAD alone at the session's chunk size and at the
// serving workloads' 4 KiB, the way the data path calls it (SealInto and
// OpenInto on caller-owned buffers).
func probeOCB(chunk int, out map[string]float64) {
	key := attest.Measure([]byte("probe key"))
	aead, err := ocb.New(key[:attest.SessionKeySize])
	if err != nil {
		panic(err) // a session-key-sized key is always accepted
	}
	nonce := make([]byte, ocb.NonceSize)
	plain := make([]byte, chunk)
	sealed := make([]byte, chunk+ocb.TagSize)
	perKiB := func(d time.Duration, reps int) float64 {
		return float64(d.Nanoseconds()) / float64(reps) / (float64(chunk) / 1024)
	}

	const reps = 8
	aead.SealInto(sealed, nonce, plain, nil)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		aead.SealInto(sealed, nonce, plain, nil)
	}
	out["ocb.seal_ns_per_kib"] = perKiB(time.Since(t0), reps)
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := aead.OpenInto(plain, nonce, sealed, nil); err != nil {
			panic(err) // opening what was just sealed
		}
	}
	out["ocb.open_ns_per_kib"] = perKiB(time.Since(t0), reps)

	const small, smallReps = 4 << 10, 2000
	t0 = time.Now()
	for i := 0; i < smallReps; i++ {
		aead.SealInto(sealed[:small+ocb.TagSize], nonce, plain[:small], nil)
	}
	out["ocb.seal_4k_ns"] = float64(time.Since(t0).Nanoseconds()) / smallReps
	out["ocb.seal_allocs_per_op"] = testing.AllocsPerRun(100, func() {
		aead.SealInto(sealed[:small+ocb.TagSize], nonce, plain[:small], nil)
	})
}
