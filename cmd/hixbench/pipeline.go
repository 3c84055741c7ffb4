package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/gpu"
	"repro/internal/hixrt"
	"repro/internal/machine"
	"repro/internal/netserve"
	"repro/internal/workloads"
)

// pipeline: the pipelined wire transport measured against lock-step
// (the same transport at a window of 1). Two parts:
//
//   - Identity: the same operation sequence, driven through one session
//     at in-flight depth 8 and depth 1, on machines booted from one
//     seed, must leave a byte-identical
//     ciphertext stream through the shared segment and an identical
//     timeline fingerprint. Pipelining overlaps wire transfer and
//     queueing with execution — never the execution itself — so the
//     HIX protocol must not be able to tell the windows apart.
//   - Sweep: a latency-bound workload (small chunked HtoD + launch +
//     DtoH per round) over in-flight depth {1,2,4,8} × connections
//     {1,4}, reporting host wall-clock throughput. The acceptance gate
//     is depth-8 ≥ 1.5× depth-1 on a single connection: on loopback
//     the win is batching — a full window coalesces a burst of
//     requests (and their replies) into single syscalls.
const (
	plMatrixN = 64  // identity workload: functional 64x64 matrix add
	plBytes   = 512 // sweep: payload bytes per HtoD/DtoH in a round
	plRounds  = 160 // sweep: rounds (each: HtoD + launch + DtoH)
	plBest    = 3   // sweep: best-of repetitions
	plSeed    = "pipeline-exp"
	plGate    = 1.5 // required depth-8 over depth-1 speedup, conns=1
)

// plIdentityRun drives one deterministic session — a functional matrix
// add plus a chunked transfer burst through the Start API — at the
// given in-flight depth and returns the timeline fingerprint and
// ciphertext digest.
func plIdentityRun(depth int) (uint64, string, error) {
	m, err := nsMachine(plSeed)
	if err != nil {
		return 0, "", err
	}
	m.Timeline.EnableTrace()
	cap := newNsCipher()
	srv, err := netserve.New(netserve.Config{
		Machine:   m,
		Kernels:   workloads.NewMatrixAdd(1).Kernels(),
		OnSession: func(s *hixrt.Session) { nsTap(m, s, cap) },
	})
	if err != nil {
		return 0, "", err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return 0, "", err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	s, err := hixrt.DialConfig(addr.String(), hixrt.RemoteConfig{MaxInFlight: depth})
	if err != nil {
		return 0, "", err
	}
	// Part 1: the functional workload through the blocking API.
	wl := workloads.NewMatrixAdd(plMatrixN)
	if err := wl.Run(workloads.SessionRunner{S: s}); err != nil {
		return 0, "", err
	}
	if err := wl.Check(); err != nil {
		return 0, "", err
	}
	// Part 2: a pipelined burst through the Start API — one submitter,
	// so the submission order (= server execution order = ciphertext
	// order) is deterministic at any depth.
	const n = 8
	const sz = 24 << 10
	ptrs := make([]hixrt.Ptr, n)
	data := make([][]byte, n)
	for i := range ptrs {
		if ptrs[i], err = s.MemAlloc(sz); err != nil {
			return 0, "", err
		}
		data[i] = make([]byte, sz)
		for j := range data[i] {
			data[i][j] = byte(i*131 + j*7)
		}
	}
	var pend []*hixrt.Pending
	for i := range ptrs {
		pend = append(pend, s.StartMemcpyHtoD(ptrs[i], data[i]))
	}
	pend = append(pend, s.StartLaunch("nop", [gpu.NumKernelParams]uint64{}))
	outs := make([][]byte, n)
	for i := range ptrs {
		outs[i] = make([]byte, sz)
		pend = append(pend, s.StartMemcpyDtoH(outs[i], ptrs[i]))
	}
	for i, p := range pend {
		if err := p.Wait(); err != nil {
			return 0, "", fmt.Errorf("burst op %d: %w", i, err)
		}
	}
	for i := range ptrs {
		if !bytes.Equal(outs[i], data[i]) {
			return 0, "", fmt.Errorf("burst round-trip corruption on buffer %d", i)
		}
		if err := s.MemFree(ptrs[i]); err != nil {
			return 0, "", err
		}
	}
	if err := s.Close(); err != nil {
		return 0, "", err
	}
	return m.Timeline.Fingerprint(), cap.sum(), nil
}

// plSweepRun runs the latency-bound round workload over `conns`
// connections at the given in-flight depth and reports the wall clock.
func plSweepRun(conns, depth int) (time.Duration, error) {
	srv, err := netserve.New(netserve.Config{
		MachineConfig: &machine.Config{
			DRAMBytes: 768 << 20, EPCBytes: 64 << 20, VRAMBytes: 512 << 20,
			Channels: 8, PlatformSeed: "pipeline-sweep",
		},
		ServeWorkers: conns,
		MaxConns:     conns,
		MaxInFlight:  depth,
	})
	if err != nil {
		return 0, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	data := make([]byte, plBytes)
	for i := range data {
		data[i] = byte(i*2654435761 + i>>7)
	}
	// Session setup (attestation + three-party DH handshake, buffer
	// allocation) happens outside the timed region: the sweep measures
	// the steady-state transport, not connection establishment.
	sessions := make([]*hixrt.RemoteSession, conns)
	ptrs := make([]hixrt.Ptr, conns)
	for i := range sessions {
		s, err := hixrt.DialConfig(addr.String(), hixrt.RemoteConfig{MaxInFlight: depth})
		if err != nil {
			return 0, err
		}
		defer s.Close()
		sessions[i] = s
		if ptrs[i], err = s.MemAlloc(plBytes); err != nil {
			return 0, err
		}
	}
	errs := make([]error, conns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, ptr := sessions[i], ptrs[i]
			out := make([]byte, plBytes)
			// Keep the window full: each round's three ops are started
			// back-to-back; submit blocks on the in-flight window, so
			// the connection self-throttles at the negotiated depth.
			pend := make([]*hixrt.Pending, 0, 3*plRounds)
			for r := 0; r < plRounds; r++ {
				pend = append(pend,
					s.StartMemcpyHtoD(ptr, data),
					s.StartLaunch("nop", [gpu.NumKernelParams]uint64{}),
					s.StartMemcpyDtoH(out, ptr))
			}
			for _, p := range pend {
				if err := p.Wait(); err != nil {
					errs[i] = err
					return
				}
			}
			// out holds the final round's readback: one integrity check
			// keeps the loop honest.
			if !bytes.Equal(out, data) {
				errs[i] = fmt.Errorf("round-trip corruption on connection %d", i)
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)
	for i, s := range sessions {
		if errs[i] == nil {
			errs[i] = s.Close()
		}
	}
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return wall, nil
}

func pipelineExp() bool {
	fmt.Println("== Extension: pipelined wire transport (tagged frames, windowed streaming) ==")
	fmt.Printf("identity gate: %dx%d matrix add + pipelined burst, depth 8 vs depth 1 (lock-step)\n",
		plMatrixN, plMatrixN)
	fp8, ct8, err := plIdentityRun(8)
	if err != nil {
		return fail(fmt.Errorf("pipeline identity (depth=8): %w", err))
	}
	fp1, ct1, err := plIdentityRun(1)
	if err != nil {
		return fail(fmt.Errorf("pipeline identity (depth=1): %w", err))
	}
	fmt.Printf("  depth=8  fingerprint %016x ciphertext %s\n", fp8, ct8)
	fmt.Printf("  depth=1  fingerprint %016x ciphertext %s\n", fp1, ct1)
	record(map[string]any{
		"name":               "pipeline/identity",
		"fingerprint_depth8": fmt.Sprintf("%016x", fp8),
		"fingerprint_depth1": fmt.Sprintf("%016x", fp1),
		"ciphertext_depth8":  ct8,
		"ciphertext_depth1":  ct1,
		"fingerprint_equal":  fp8 == fp1,
		"ciphertext_equal":   ct8 == ct1,
	})
	if fp8 != fp1 {
		return fail(fmt.Errorf("pipeline: timeline diverged across windows"))
	}
	if ct8 != ct1 {
		return fail(fmt.Errorf("pipeline: ciphertext stream diverged across windows"))
	}
	fmt.Println("  pipelined and lock-step runs are ciphertext- and schedule-identical")

	fmt.Printf("sweep: %d rounds x (HtoD %dB + launch + DtoH %dB) per connection, GOMAXPROCS=%d\n",
		plRounds, plBytes, plBytes, runtime.GOMAXPROCS(0))
	fmt.Printf("%-8s %-8s %10s %10s %10s\n", "conns", "depth", "wall ms", "req/s", "speedup")
	var base time.Duration
	gateOK := true
	for _, conns := range []int{1, 4} {
		for _, depth := range []int{1, 2, 4, 8} {
			var best time.Duration
			for r := 0; r < plBest; r++ {
				wall, err := plSweepRun(conns, depth)
				if err != nil {
					return fail(fmt.Errorf("pipeline sweep (conns=%d depth=%d): %w", conns, depth, err))
				}
				if r == 0 || wall < best {
					best = wall
				}
			}
			reqs := float64(3*plRounds*conns) / best.Seconds()
			speedup := 0.0
			if depth == 1 {
				base = best
			} else {
				speedup = base.Seconds() / best.Seconds()
			}
			label := "-"
			if depth > 1 {
				label = fmt.Sprintf("%.2fx", speedup)
			}
			fmt.Printf("%-8d %-8d %10.1f %10.0f %10s\n",
				conns, depth, float64(best.Microseconds())/1000, reqs, label)
			record(map[string]any{
				"name":      fmt.Sprintf("pipeline/sweep/conns=%d/depth=%d", conns, depth),
				"wall_ms":   float64(best.Microseconds()) / 1000,
				"req_per_s": reqs,
				"speedup":   speedup,
			})
			if conns == 1 && depth == 8 {
				if speedup < plGate {
					gateOK = false
					fmt.Printf("  GATE FAILED: depth-8 speedup %.2fx < %.2fx on a single connection\n", speedup, plGate)
				} else {
					fmt.Printf("  gate: depth-8 speedup %.2fx >= %.2fx on a single connection\n", speedup, plGate)
				}
			}
		}
	}
	fmt.Println("(single-submitter order + serial execution keep the schedule identical;")
	fmt.Println(" the depth win is request/reply batching — fewer syscalls per round trip)")
	fmt.Println()
	if !gateOK {
		return fail(fmt.Errorf("pipeline: depth-8 throughput gate not met"))
	}
	return true
}
