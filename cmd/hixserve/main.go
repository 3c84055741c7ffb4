// Command hixserve exposes a simulated HIX machine over TCP: it boots
// the platform, launches the GPU enclave, registers the standard kernel
// catalog, and serves remote sessions speaking the internal/wire
// protocol (connect with hixrt.Dial or `hixbench -exp netserve`).
//
// The TCP link models the application↔user-enclave boundary: hixserve
// hosts one user enclave per connection and runs the full HIX protocol
// (attestation, three-party DH, OCB, single-copy data path) between it
// and the GPU enclave.
//
// Usage:
//
//	hixserve -addr 127.0.0.1:7070 -serve-workers 4 -max-conns 8
//	hixserve -max-inflight 32 -pprof 127.0.0.1:6060
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight
// requests finish and flush, sessions close; a second signal (or the
// -drain-timeout) force-closes what remains.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/machine"
	"repro/internal/netserve"
	"repro/internal/workloads"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7070", "TCP listen address")
		serveWorkers = flag.Int("serve-workers", 1, "GPU-enclave serving workers (data-plane parallelism; the simulated schedule is identical for any value)")
		maxConns     = flag.Int("max-conns", 8, "connection limit; the listener stops accepting beyond it")
		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "per-frame read deadline (idle clients are disconnected)")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "per-frame write deadline")
		segMB        = flag.Uint64("seg-mb", 32, "per-session shared-segment size in MiB")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
		seed         = flag.String("seed", "", "platform seed for a deterministic machine (empty = random)")
		quiet        = flag.Bool("quiet", false, "suppress per-connection diagnostics")
		maxInFlight  = flag.Int("max-inflight", 0, "per-connection pipelining window advertised to clients (0 = default; 1 = lock-step)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. 127.0.0.1:6060; empty = disabled)")
		schedOn      = flag.Bool("sched", false, "enable the cross-connection continuous-batching scheduler")
		schedQuantum = flag.Int("sched-quantum", 0, "fair-share quantum in epoch cost units per weight point per round (0 = default)")
		schedBatch   = flag.Int("sched-batch", 0, "max admitted cost per enclave wakeup (0 = default)")
		gpus         = flag.Int("gpus", 1, "simulated GPUs to attach (one GPU enclave each)")
		partitions   = flag.Int("partitions", 1, "isolated partitions per GPU (disjoint SM sets, L2 sets, VRAM ranges)")
		ticketTTL    = flag.Duration("ticket-ttl", 0, "resumption-ticket lifetime (0 = default 10m)")
		ticketRotate = flag.Duration("ticket-rotate", 0, "rotate the ticket sealing key this often (0 = never; current and previous generations stay valid)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("hixserve: pprof listener: %v", err)
			}
		}()
		log.Printf("hixserve: pprof on http://%s/debug/pprof/", *pprofAddr)
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	srv, err := netserve.New(netserve.Config{
		MachineConfig:     &machine.Config{PlatformSeed: *seed, GPUs: *gpus, Partitions: *partitions},
		ServeWorkers:      *serveWorkers,
		SegmentBytes:      *segMB << 20,
		Kernels:           workloads.AllKernels(),
		MaxConns:          *maxConns,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		MaxInFlight:       *maxInFlight,
		Sched:             *schedOn,
		SchedQuantum:      *schedQuantum,
		SchedMaxBatchCost: *schedBatch,
		TicketTTL:         *ticketTTL,
		Logf:              logf,
	})
	if err != nil {
		log.Fatalf("hixserve: %v", err)
	}
	// Counters ride the -pprof listener's /debug/vars (expvar registers
	// itself on DefaultServeMux): the enclave's serving-engine wakeup
	// stats always, the scheduler's batch/tenant stats when -sched.
	expvar.Publish("hix.serve", expvar.Func(func() any { return srv.Enclave().ServeStats() }))
	if sc := srv.Sched(); sc != nil {
		expvar.Publish("hix.sched", expvar.Func(func() any { return sc.Snapshot() }))
	}
	// hix.load: the live load picture an operator watches while an
	// open-loop generator (hixbench -exp load) drives the server —
	// fleet-wide queue depth (current and high-water), rate-limiter
	// deferrals, and connection/session counts.
	expvar.Publish("hix.load", expvar.Func(func() any { return srv.Queue() }))
	// hix.part: per-partition occupancy (sessions, reserved VRAM) plus
	// lifetime placement counters from the fleet placer.
	expvar.Publish("hix.part", expvar.Func(func() any {
		placements, rejections, affinityHits := srv.Placer().Counters()
		return map[string]any{
			"partitions":    srv.Placer().Stats(),
			"placements":    placements,
			"rejections":    rejections,
			"affinity_hits": affinityHits,
		}
	}))
	// hix.load.hist: the request-service latency histogram behind the
	// load picture — the same p50/p99/p999 the load harness gates on,
	// but live, so an operator can watch the tail move under load.
	expvar.Publish("hix.load.hist", expvar.Func(func() any { return srv.LoadHist() }))
	// hix.resume: ticket-key generation plus the resumption ledger —
	// issued/accepted/fallback counts and the per-reason refusal
	// breakdown (replay, expiry, stale generation, wrong or revoked
	// measurement). A rising fallback share is the operator's cue that
	// clients hold tickets the current key no longer honors.
	expvar.Publish("hix.resume", expvar.Func(func() any {
		return map[string]any{
			"generation": srv.TicketGeneration(),
			"stats":      srv.ResumeStats(),
		}
	}))
	if *ticketRotate > 0 {
		go func() {
			for range time.Tick(*ticketRotate) {
				gen := srv.RotateTicketKey()
				logf("hixserve: ticket key rotated to generation %d", gen)
			}
		}()
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		log.Fatalf("hixserve: %v", err)
	}
	log.Printf("hixserve: listening on %s (serve-workers=%d max-conns=%d gpus=%d partitions=%d enclave=%s)",
		bound, *serveWorkers, *maxConns, *gpus, *partitions, srv.Enclave().Measurement())

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Wait() }()

	select {
	case sig := <-sigCh:
		log.Printf("hixserve: %v — draining (limit %v, signal again to force)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		go func() {
			<-sigCh
			cancel()
		}()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("hixserve: forced shutdown: %v", err)
			cancel()
			os.Exit(1)
		}
		cancel()
		log.Printf("hixserve: drained cleanly (%d sessions left)", srv.SessionCount())
	case err := <-serveErr:
		if err != nil && !errors.Is(err, netserve.ErrServerClosed) {
			log.Fatalf("hixserve: %v", err)
		}
	}
	fmt.Println("hixserve: bye")
}
