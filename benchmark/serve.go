package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/netserve"
	"repro/internal/wire"
)

// server is the loopback front-end the two network workloads drive: one
// netserve.Server on the small fixture with the batching scheduler on
// (ROADMAP item 5 keeps that path and folds direct serving into it).
type server struct {
	srv  *netserve.Server
	addr string
}

func startServer(c config, maxConns int, tr *tracer) (*server, error) {
	id := tr.begin("netserve.New", -1, -1)
	srv, err := netserve.New(netserve.Config{
		MachineConfig: &machine.Config{
			DRAMBytes: smallDRAM, EPCBytes: smallEPC, VRAMBytes: smallVRAM,
			Channels: smallChannels, GPUs: 1, Partitions: 1, PlatformSeed: c.platformSeed(),
		},
		Sched:        true,
		MaxInFlight:  8,
		ServeWorkers: 2,
		MaxConns:     maxConns,
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &server{srv: srv, addr: addr.String()}, nil
}

func (s *server) describe(maxConns int) string {
	return fmt.Sprintf("netserve.New on the %s, Sched on, MaxInFlight 8, ServeWorkers 2, MaxConns %d, loopback TCP",
		smallFixtureText, maxConns)
}

func (s *server) shutdown(tr *tracer) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	id := tr.begin("netserve.Shutdown", -1, -1)
	err := s.srv.Shutdown(ctx)
	tr.end(id)
	return err
}

// serverCounters snapshots the counters the server-side layers keep, so a
// traced phase can report deltas measured where the work happens.
type serverCounters struct {
	wakeups, emptyWakeups, batches, requests int64 // hix.ServeStats
	schedBatches, schedTickets, schedWaitNS  int64
	deferrals                                int64
	maxPending                               int
}

func (s *server) counters() serverCounters {
	st := s.srv.Enclave().ServeStats()
	c := serverCounters{wakeups: st.Wakeups, emptyWakeups: st.EmptyWakeups, batches: st.Batches, requests: st.Requests}
	for _, sc := range s.srv.Scheds() {
		sn := sc.Snapshot()
		c.schedBatches += sn.Batches
		c.schedTickets += sn.Tickets
		c.deferrals += sn.Deferrals
		c.maxPending = max(c.maxPending, sn.MaxPending)
		for _, t := range sn.Tenants {
			c.schedWaitNS += t.WaitNS
		}
	}
	return c
}

// layer reports the counter deltas since before as per-layer ratios.
// Tenant wait is summed over live tenants only, so it is meaningful for
// serve_small (connections outlive the phase) and 0 for session_churn.
func (s *server) layer(before serverCounters, out map[string]float64) {
	now := s.counters()
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out["hix.wakeups_per_request"] = ratio(now.wakeups-before.wakeups, now.requests-before.requests)
	out["hix.empty_wakeup_ratio"] = ratio(now.emptyWakeups-before.emptyWakeups, now.wakeups-before.wakeups)
	out["hix.requests_per_batch"] = ratio(now.requests-before.requests, now.batches-before.batches)
	out["sched.occupancy"] = ratio(now.schedTickets-before.schedTickets, now.schedBatches-before.schedBatches)
	out["sched.wait_us_per_ticket"] = ratio(now.schedWaitNS-before.schedWaitNS, now.schedTickets-before.schedTickets) / 1e3
	out["sched.max_pending"] = float64(now.maxPending)
	out["sched.deferrals"] = float64(now.deferrals - before.deferrals)
	// The service histogram is log-bucketed (≤ 6.25 % error) and counts
	// from server start; good for a per-layer reading, not for a gate.
	h := s.srv.LoadHist()
	out["netserve.service_p50_ms"] = float64(h.P50) / 1e6
	out["netserve.service_p99_ms"] = float64(h.P99) / 1e6
}

// probeWire sends one 4 KiB tagged data frame through the zero-alloc
// frame path: FrameWriter into a buffer, FrameReader back out.
func probeWire(out map[string]float64) {
	body := make([]byte, 4<<10)
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf, 0)
	fr := wire.NewFrameReader(bufio.NewReader(&buf))
	roundTrip := func() {
		if err := fw.WriteTagged(wire.OpTData, 7, body); err != nil {
			panic(err) // OpTData is a tagged opcode
		}
		if err := fw.Flush(); err != nil {
			panic(err) // bytes.Buffer writes do not fail
		}
		_, b, err := fr.Next()
		if err != nil {
			panic(err) // reading back the frame just written
		}
		b.Release()
	}
	const reps = 5000
	roundTrip()
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		roundTrip()
	}
	out["wire.frame_rt_ns"] = float64(time.Since(t0).Nanoseconds()) / reps
	out["wire.frame_allocs_per_op"] = testing.AllocsPerRun(200, roundTrip)
}
