package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/attest"
	"repro/internal/hixrt"
	"repro/internal/part"
)

const churnPayload = 4 << 10

// churnMaxConns leaves accept headroom for a dial racing its
// predecessor's teardown; only one connection is ever in use.
const churnMaxConns = 4

type sessionChurn struct {
	*server
	tenant  attest.Measurement
	payload []byte
	back    []byte
	ticket  []byte // from the latest Welcome; single-use
	dials   uint64
}

func setupSessionChurn(c config, tr *tracer) (instance, error) {
	srv, err := startServer(c, churnMaxConns, tr)
	if err != nil {
		return nil, err
	}
	v := &sessionChurn{server: srv, tenant: c.tenant(0),
		payload: make([]byte, churnPayload), back: make([]byte, churnPayload)}
	c.rng().Read(v.payload)
	if w := v.measure(20, nil); w.failed > 0 {
		return nil, fmt.Errorf("session_churn warm-up: %v", w.notes)
	}
	return v, nil
}

func (v *sessionChurn) describe() string {
	return v.server.describe(churnMaxConns) + "; one client, sequential sessions of MemAlloc 4 KiB + HtoD + DtoH + Close"
}

// session is one whole session: dial (with the previous ticket when
// resume is set), allocate, upload, read back, compare, close.
func (v *sessionChurn) session(resume bool, tr *tracer, op int) error {
	v.dials++
	v.payload[v.dials%churnPayload]++
	cfg := hixrt.RemoteConfig{Measurement: v.tenant}
	kind, name := "op", "hixrt.Dial/full"
	if resume {
		cfg.Ticket = v.ticket
		kind, name = "alt", "hixrt.Dial/resumed"
	}
	root := tr.begin("session/"+kind, -1, op)
	defer tr.end(root)

	dh0 := attest.DHOps()
	id := tr.begin(name, root, op)
	s, err := hixrt.DialConfig(v.addr, cfg)
	tr.end(id)
	if err != nil {
		return err
	}
	v.ticket = s.Ticket()
	if resume && (!s.Resumed() || attest.DHOps() != dh0) {
		s.Close()
		return fmt.Errorf("resumed=%v after %d DH ops: the ticket fell back to the full handshake", s.Resumed(), attest.DHOps()-dh0)
	}

	id = tr.begin("hixrt.MemAlloc", root, op)
	ptr, err := s.MemAlloc(churnPayload)
	tr.end(id)
	if err == nil {
		id = tr.begin("hixrt.MemcpyHtoD", root, op)
		err = s.MemcpyHtoD(ptr, v.payload, 0)
		tr.end(id)
	}
	if err == nil {
		id = tr.begin("hixrt.MemcpyDtoH", root, op)
		err = s.MemcpyDtoH(v.back, ptr, 0)
		tr.end(id)
	}
	if err == nil && !bytes.Equal(v.back, v.payload) {
		err = fmt.Errorf("readback differs from upload")
	}
	id = tr.begin("hixrt.Close", root, op)
	cerr := s.Close()
	tr.end(id)
	if err == nil {
		err = cerr
	}
	return err
}

// measure runs n pairs: a full-handshake session (op), then the same
// session resumed from the ticket that one's Welcome carried (alt).
func (v *sessionChurn) measure(n int, tr *tracer) sample {
	var s sample
	tl := v.srv.Machine().Timeline
	if tr != nil {
		tl.EnableTrace()
	}
	before, sim0 := v.counters(), tl.Horizon()
	prefer0 := v.srv.Placer().PreferHits()
	var fullDH, resumedDH int64
	s.clock.start()
	for i := 0; i < n; i++ {
		dh0 := attest.DHOps()
		t0 := time.Now()
		err := v.session(false, tr, i)
		s.op = append(s.op, ms(time.Since(t0)))
		s.done(s.expect(err == nil, "pair %d full session: %v", i, err))
		dh1 := attest.DHOps()

		t0 = time.Now()
		err = v.session(true, tr, i)
		s.alt = append(s.alt, ms(time.Since(t0)))
		s.done(s.expect(err == nil, "pair %d resumed session: %v", i, err))
		fullDH += dh1 - dh0
		resumedDH += attest.DHOps() - dh1
	}
	s.clock.stop()
	if tr == nil {
		return s
	}

	s.layer = map[string]float64{
		"attest.dh_ops_per_full":    float64(fullDH) / float64(n),
		"attest.dh_ops_per_resumed": float64(resumedDH) / float64(n),
		"part.prefer_hit_ratio":     float64(v.srv.Placer().PreferHits()-prefer0) / float64(n),
	}
	v.layer(before, s.layer)
	simLayer(tl.Trace(), int64(tl.Horizon()-sim0), 2*n, s.layer)
	probeModexp(s.layer)
	probePlacer(v, s.layer)
	return s
}

func (v *sessionChurn) close(tr *tracer) error { return v.shutdown(tr) }

// probeModexp times one 2048-bit DH public-value computation, the unit
// the full handshake spends its time in.
func probeModexp(out map[string]float64) {
	const reps = 20
	rng := attest.NewSeededRNG([]byte("probe modexp"))
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		p, err := attest.NewDHParty(rng)
		if err != nil {
			panic(err) // the seeded stream never fails
		}
		p.Public()
	}
	out["attest.modexp_ms"] = ms(time.Since(t0)) / reps
}

// probePlacer times one placement and its release on a placer of the
// server's own topology.
func probePlacer(v *sessionChurn, out map[string]float64) {
	const reps = 10000
	pl := part.NewPlacer(part.FromMachine(v.srv.Machine()))
	d := part.Demand{VRAMBytes: 8 << 20}
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		slot, err := pl.Place(d)
		if err != nil {
			panic(err) // an empty 512 MiB partition holds 8 MiB
		}
		if err := pl.Release(slot); err != nil {
			panic(err) // releasing the slot just granted
		}
	}
	out["part.place_release_ns"] = float64(time.Since(t0).Nanoseconds()) / reps
}
