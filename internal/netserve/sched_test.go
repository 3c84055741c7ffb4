package netserve_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/gpu"
	"repro/internal/hixrt"
	"repro/internal/netserve"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// TestSchedRemoteWorkload: the batching scheduler in front of a single
// sequential client is invisible — the workload passes, every epoch is
// a single-ticket batch, and the tenant retires with its connection.
func TestSchedRemoteWorkload(t *testing.T) {
	srv, addr := startServer(t, netserve.Config{Sched: true})
	s, err := hixrt.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := runMatrixAdd(s, 24); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, srv, 5*time.Second) // the tenant retires after the close reply
	st := srv.Sched().Snapshot()
	if st.Tickets == 0 || st.Batches == 0 {
		t.Fatalf("scheduler saw no work: %+v", st)
	}
	// A sequential driver has at most one epoch in flight, so no batch
	// can hold more than its one ticket.
	if st.MaxBatch != 1 {
		t.Fatalf("sequential client produced a %d-ticket batch", st.MaxBatch)
	}
	if st.Pending != 0 || len(st.Tenants) != 0 {
		t.Fatalf("scheduler state left behind after close: %+v", st)
	}
	if got := srv.SessionCount(); got != 0 {
		t.Fatalf("%d sessions left after close", got)
	}
}

// TestSchedConcurrentConnections is TestConcurrentConnections with the
// scheduler (and a QoS policy mixing classes and weights) in the path —
// the -race gate for the gated serving path.
func TestSchedConcurrentConnections(t *testing.T) {
	const clients = 8
	var joined atomic.Int32
	srv, addr := startServer(t, netserve.Config{
		MaxConns: clients,
		Sched:    true,
		QoS: func(attest.Measurement) netserve.QoSParams {
			// Alternate classes and skew weights across arrival order.
			n := joined.Add(1)
			cl := sched.Latency
			if n%2 == 0 {
				cl = sched.Bulk
			}
			return netserve.QoSParams{Weight: int(1 + n%3), Class: cl}
		},
	})
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := hixrt.Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer s.Close()
			if err := runMatrixAdd(s, 8+4*(i%3)); err != nil {
				errs[i] = err
				return
			}
			errs[i] = s.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	// A client's Close returns on the reply; the handler retires the
	// fair-share tenant after that, once its connection has drained.
	waitDrained(t, srv, 5*time.Second)
	st := srv.Sched().Snapshot()
	if st.Tickets == 0 {
		t.Fatal("scheduler saw no work")
	}
	if st.Pending != 0 || len(st.Tenants) != 0 {
		t.Fatalf("scheduler state left behind: %+v", st)
	}
}

// TestSchedMatchesDirect is the scheduler's identity gate at unit-test
// scale: a sequential client produces single-ticket batches, so the
// gated path (one ServeSessions per epoch) must leave the same timeline
// fingerprint as the direct path (one Serve per epoch) on machines
// built from the same seed.
func TestSchedMatchesDirect(t *testing.T) {
	run := func(schedOn bool) uint64 {
		t.Helper()
		m := newSeededMachine(t)
		m.Timeline.EnableTrace()
		srv, err := netserve.New(netserve.Config{
			Machine: m,
			Kernels: []*gpu.Kernel{workloads.MatrixAddKernel()},
			Sched:   schedOn,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s, err := hixrt.Dial(addr.String())
		if err != nil {
			t.Fatal(err)
		}
		wl := workloads.NewMatrixAdd(16)
		if err := wl.Run(workloads.SessionRunner{S: s}); err != nil {
			t.Fatal(err)
		}
		if err := wl.Check(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		return m.Timeline.Fingerprint()
	}
	gated := run(true)
	direct := run(false)
	if gated != direct {
		t.Fatalf("timeline diverged: sched %#x, direct %#x", gated, direct)
	}
}
