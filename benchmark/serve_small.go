package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/gpu"
	"repro/internal/hixrt"
)

const (
	serveConns     = 2       // loopback connections, = nproc on the build host
	servePipelined = 2       // goroutines per connection issuing pipelined rounds
	servePayload   = 4 << 10 // small enough that crypto is negligible
	// serveLockstepShare sizes the lock-step phase: one blocking round for
	// every this many pipelined rounds per goroutine, which makes it about
	// a sixth of the measured time (a lock-step round takes 3.7 ms, 1.2 ms
	// per request, nearly all of it the scheduler's gather window waiting
	// for the idle second tenant).
	serveLockstepShare = 32
)

// serveClient is one goroutine's private state: its own device buffer, so
// every readback can be compared, and a counter stamped into the payload
// so no two rounds upload the same bytes.
type serveClient struct {
	s       *hixrt.RemoteSession
	ptr     hixrt.Ptr
	payload []byte
	back    []byte
	id      int
	rounds  uint64
}

func newServeClient(s *hixrt.RemoteSession, id int, base []byte) (*serveClient, error) {
	ptr, err := s.MemAlloc(servePayload)
	if err != nil {
		return nil, err
	}
	return &serveClient{s: s, ptr: ptr, id: id,
		payload: append([]byte(nil), base...), back: make([]byte, servePayload)}, nil
}

type serveSmall struct {
	*server
	conns     []*hixrt.RemoteSession
	pipelined []*serveClient // serveConns × servePipelined
	lockstep  *serveClient   // on the first connection
}

func setupServeSmall(c config, tr *tracer) (instance, error) {
	srv, err := startServer(c, serveConns, tr)
	if err != nil {
		return nil, err
	}
	v := &serveSmall{server: srv}
	base := make([]byte, servePayload)
	c.rng().Read(base)
	for i := 0; i < serveConns; i++ {
		s, err := hixrt.DialConfig(srv.addr, hixrt.RemoteConfig{Measurement: c.tenant(i)})
		if err != nil {
			return nil, err
		}
		v.conns = append(v.conns, s)
		for g := 0; g < servePipelined; g++ {
			cl, err := newServeClient(s, len(v.pipelined), base)
			if err != nil {
				return nil, err
			}
			v.pipelined = append(v.pipelined, cl)
		}
	}
	if v.lockstep, err = newServeClient(v.conns[0], len(v.pipelined), base); err != nil {
		return nil, err
	}
	if w := v.measure(500, nil); w.failed > 0 {
		return nil, fmt.Errorf("serve_small warm-up: %v", w.notes)
	}
	return v, nil
}

func (v *serveSmall) describe() string {
	return v.server.describe(serveConns) + fmt.Sprintf("; %d connections × %d pipelined goroutines, then 1 lock-step goroutine on the first, 4 KiB payloads",
		serveConns, servePipelined)
}

func (cl *serveClient) stamp() {
	cl.rounds++
	binary.LittleEndian.PutUint64(cl.payload, uint64(cl.id)<<48|cl.rounds)
}

// pipelinedRound is the op: upload, launch and readback started back to
// back as tagged requests, then waited for together.
func (cl *serveClient) pipelinedRound(tr *tracer, op int) error {
	cl.stamp()
	round := tr.begin("round", -1, op)
	defer tr.end(round)
	a := tr.begin("round/htod", round, op)
	up := cl.s.StartMemcpyHtoD(cl.ptr, cl.payload)
	b := tr.begin("round/launch", round, op)
	run := cl.s.StartLaunch(gpu.KernelNop, [gpu.NumKernelParams]uint64{})
	c := tr.begin("round/dtoh", round, op)
	down := cl.s.StartMemcpyDtoH(cl.back, cl.ptr)
	err := up.Wait()
	tr.end(a)
	if e := run.Wait(); err == nil {
		err = e
	}
	tr.end(b)
	if e := down.Wait(); err == nil {
		err = e
	}
	tr.end(c)
	return cl.verify(err)
}

// lockstepRound is the alt: the same three requests, each a blocking call
// with nothing else in flight on either connection (pipelining depth 1,
// the other tenant connected and idle).
func (cl *serveClient) lockstepRound(tr *tracer, op int) error {
	cl.stamp()
	id := tr.begin("hixrt.MemcpyHtoD", -1, op)
	err := cl.s.MemcpyHtoD(cl.ptr, cl.payload, 0)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("hixrt.Launch", -1, op)
	err = cl.s.Launch(gpu.KernelNop, [gpu.NumKernelParams]uint64{})
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("hixrt.MemcpyDtoH", -1, op)
	err = cl.s.MemcpyDtoH(cl.back, cl.ptr, 0)
	tr.end(id)
	return cl.verify(err)
}

func (cl *serveClient) verify(err error) error {
	if err == nil && !bytes.Equal(cl.back, cl.payload) {
		err = fmt.Errorf("readback differs from upload")
	}
	return err
}

// phase runs n rounds on every client at once, closed loop, counts them
// into s and returns the latencies in ms.
func phase(clients []*serveClient, n int, s *sample, round func(cl *serveClient, op int) error) []float64 {
	type outcome struct {
		lat    []float64
		failed int
		first  error
	}
	outs := make([]outcome, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &outs[i]
			o.lat = make([]float64, 0, n)
			for r := 0; r < n; r++ {
				t0 := time.Now()
				err := round(cl, i*n+r)
				o.lat = append(o.lat, ms(time.Since(t0)))
				if err != nil {
					o.failed++
					if o.first == nil {
						o.first = fmt.Errorf("client %d round %d: %w", cl.id, r, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	var all []float64
	for _, o := range outs {
		all = append(all, o.lat...)
		s.attempted += len(o.lat)
		s.failed += o.failed
		if o.first != nil {
			s.note("%v", o.first)
		}
	}
	return all
}

// measure runs n pipelined rounds on each of the four pipelined clients,
// then n/serveLockstepShare lock-step rounds on the first connection.
func (v *serveSmall) measure(n int, tr *tracer) sample {
	var s sample
	tl := v.srv.Machine().Timeline
	before, sim0 := v.counters(), tl.Horizon()
	s.clock.start()
	s.op = phase(v.pipelined, n, &s, func(cl *serveClient, op int) error { return cl.pipelinedRound(tr, op) })
	s.alt = phase([]*serveClient{v.lockstep}, max(1, n/serveLockstepShare), &s, func(cl *serveClient, op int) error { return cl.lockstepRound(tr, op) })
	s.clock.stop()
	if tr == nil {
		return s
	}

	s.layer = map[string]float64{
		"hixrt.round_p90_ms": quantile(s.op, 0.90),
		"hixrt.round_p99_ms": quantile(s.op, 0.99),
	}
	v.layer(before, s.layer)
	// The simulated timeline's own trace stays off here: logging ~50
	// intervals per round slows the server by 7 %, and with four clients
	// racing the simulated schedule does not repeat exactly anyway.
	simLayer(nil, int64(tl.Horizon()-sim0), len(s.op)+len(s.alt), s.layer)
	probeWire(s.layer)
	return s
}

func (v *serveSmall) close(tr *tracer) error {
	for _, s := range v.conns {
		if err := s.Close(); err != nil {
			return err
		}
	}
	return v.shutdown(tr)
}
