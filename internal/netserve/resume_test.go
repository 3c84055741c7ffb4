package netserve_test

import (
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/faults"
	"repro/internal/hixrt"
	"repro/internal/machine"
	"repro/internal/netserve"
	"repro/internal/workloads"
)

// TestResumeRoundTrip: a dial gets a ticket, and presenting it on
// the next dial re-arms the session through the zero-DH fast path —
// asserted directly against the process-wide modexp counter.
func TestResumeRoundTrip(t *testing.T) {
	srv, addr := startServer(t, netserve.Config{})

	s1, err := hixrt.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Resumed() {
		t.Fatal("first dial reported Resumed")
	}
	tkt := s1.Ticket()
	if len(tkt) == 0 {
		t.Fatal("Welcome carried no ticket")
	}
	if err := runMatrixAdd(s1, 8); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	before := attest.DHOps()
	s2, err := hixrt.DialConfig(addr, hixrt.RemoteConfig{Ticket: tkt})
	if err != nil {
		t.Fatal(err)
	}
	if got := attest.DHOps() - before; got != 0 {
		t.Fatalf("resumed handshake performed %d big.Int DH operations, want 0", got)
	}
	if !s2.Resumed() {
		t.Fatal("ticketed dial did not resume")
	}
	if s2.SessionID() != s1.SessionID() {
		t.Fatalf("resumed session id %d, want original %d", s2.SessionID(), s1.SessionID())
	}
	if len(s2.Ticket()) == 0 {
		t.Fatal("resumed Welcome carried no replacement ticket")
	}
	// The re-armed key must actually work: drive the encrypted data
	// path end to end.
	if err := runMatrixAdd(s2, 8); err != nil {
		t.Fatalf("workload on resumed session: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	st := srv.ResumeStats()
	if st.Issued < 2 || st.Accepted != 1 || st.Fallbacks != 0 {
		t.Fatalf("resume stats %+v, want >=2 issued, 1 accepted, 0 fallbacks", st)
	}
}

// TestResumeKeyRotation: one rotation keeps outstanding tickets valid
// (previous generation accepted); a second retires them — the client
// transparently falls back to the full handshake.
func TestResumeKeyRotation(t *testing.T) {
	srv, addr := startServer(t, netserve.Config{})

	s1, err := hixrt.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t1 := s1.Ticket()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	if gen := srv.RotateTicketKey(); gen != 2 {
		t.Fatalf("generation after rotate = %d, want 2", gen)
	}
	s2, err := hixrt.DialConfig(addr, hixrt.RemoteConfig{Ticket: t1})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Resumed() {
		t.Fatal("previous-generation ticket refused; rotation must keep gen-1 valid")
	}
	t2 := s2.Ticket()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Two more rotations put t2 (sealed under gen 2) two generations
	// behind: a hard refusal, served as a silent full handshake.
	srv.RotateTicketKey()
	srv.RotateTicketKey()
	if got := srv.TicketGeneration(); got != 4 {
		t.Fatalf("generation = %d, want 4", got)
	}
	s3, err := hixrt.DialConfig(addr, hixrt.RemoteConfig{Ticket: t2})
	if err != nil {
		t.Fatalf("stale ticket must fall back to full handshake, got %v", err)
	}
	if s3.Resumed() {
		t.Fatal("two-generations-stale ticket resumed")
	}
	if err := runMatrixAdd(s3, 8); err != nil {
		t.Fatal(err)
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}

	st := srv.ResumeStats()
	if st.StaleGen != 1 || st.Fallbacks != 1 || st.Accepted != 1 {
		t.Fatalf("resume stats %+v, want 1 stale_gen, 1 fallback, 1 accepted", st)
	}
}

// TestResumeTicketChaos is the fault-plane coverage for the resume
// path: the server drops the connection mid-workload, and the client's
// seeded fault plane corrupts the resumption ticket it presents on the
// redial. The server must refuse the ticket as a typed validation
// failure and serve the full handshake instead — the workload
// completes either way, with the fallback visible in the counters.
func TestResumeTicketChaos(t *testing.T) {
	srvPlane := faults.New("resume-chaos-server", faults.Config{
		Rates:  map[string]float64{faults.NetDrop: 1},
		After:  map[string]int{faults.NetDrop: 3},
		Limits: map[string]int{faults.NetDrop: 1},
	})
	cliPlane := faults.New("resume-chaos-client", faults.Config{
		Rates:  map[string]float64{faults.NetTicket: 1},
		Limits: map[string]int{faults.NetTicket: 1},
	})
	srv, addr := startServer(t, netserve.Config{Faults: srvPlane})
	cfg, _ := fastReconnect()
	cfg.Remote.Faults = cliPlane
	rs, err := hixrt.DialReconnecting(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		wl := workloads.NewMatrixAdd(16)
		if err := wl.Run(workloads.SessionRunner{S: rs}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := wl.Check(); err != nil {
			t.Fatalf("round %d: corrupted result: %v", round, err)
		}
	}
	if got := srvPlane.Fired(faults.NetDrop); got != 1 {
		t.Fatalf("injected %d drops, want 1", got)
	}
	if got := cliPlane.Fired(faults.NetTicket); got != 1 {
		t.Fatalf("injected %d ticket corruptions, want 1", got)
	}
	if got := rs.Reconnects(); got < 1 {
		t.Fatalf("Reconnects()=%d, want >=1", got)
	}
	// The corrupted ticket must not have resumed anything.
	if got := rs.Resumes(); got != 0 {
		t.Fatalf("Resumes()=%d, want 0 (ticket was corrupted)", got)
	}
	st := srv.ResumeStats()
	if st.Fallbacks < 1 || st.Accepted != 0 {
		t.Fatalf("resume stats %+v, want >=1 fallback and 0 accepted", st)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, srv, 2*time.Second)
}

// TestResumeAcrossDrop: the production path — a dropped connection,
// a ticketed redial, journal replay on a zero-DH resumed session, and
// a verified readback.
func TestResumeAcrossDrop(t *testing.T) {
	plane := faults.New("resume-drop", faults.Config{
		Rates:  map[string]float64{faults.NetDrop: 1},
		After:  map[string]int{faults.NetDrop: 3},
		Limits: map[string]int{faults.NetDrop: 1},
	})
	srv, addr := startServer(t, netserve.Config{Faults: plane})
	cfg, _ := fastReconnect()
	rs, err := hixrt.DialReconnecting(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := attest.DHOps()
	wl := workloads.NewMatrixAdd(16)
	if err := wl.Run(workloads.SessionRunner{S: rs}); err != nil {
		t.Fatal(err)
	}
	if err := wl.Check(); err != nil {
		t.Fatalf("corrupted result across resumed redial: %v", err)
	}
	if got := rs.Reconnects(); got != 1 {
		t.Fatalf("Reconnects()=%d, want 1", got)
	}
	if got := rs.Resumes(); got != 1 {
		t.Fatalf("Resumes()=%d, want 1 (redial should present the cached ticket)", got)
	}
	if got := attest.DHOps() - before; got != 0 {
		t.Fatalf("resumed redial performed %d big.Int DH operations, want 0", got)
	}
	if st := srv.ResumeStats(); st.Accepted != 1 {
		t.Fatalf("resume stats %+v, want 1 accepted", st)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, srv, 2*time.Second)
}

// TestResumePartitionAffinity: the resumed placement lands back on the
// exact partition the ticket names, visible in the placer's counter.
func TestResumePartitionAffinity(t *testing.T) {
	srv, addr := startServer(t, netserve.Config{
		MachineConfig: &machine.Config{Partitions: 2},
	})
	s1, err := hixrt.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	tkt := s1.Ticket()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := hixrt.DialConfig(addr, hixrt.RemoteConfig{Ticket: tkt})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Resumed() {
		t.Fatal("ticketed dial did not resume")
	}
	if got := srv.Placer().PreferHits(); got != 1 {
		t.Fatalf("PreferHits()=%d, want 1 (resume must pin its old partition)", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}
