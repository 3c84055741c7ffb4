package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5}, // even count: mean of the middle two
		{[]float64{1, 2, 3, 4, 5}, 0.9, 4.6},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2}, 0, 1},
		{[]float64{1, 2}, 1, 2},
	} {
		if got := quantile(c.in, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.in, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	in := []float64{3, 1, 2}
	quantile(in, 0.5)
	if in[0] != 3 {
		t.Error("quantile sorted its argument in place")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: union is 10..60
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "lone", Start: 200, End: 250, Parent: -1},
	}
	want := []int64{100 - 50 - 10, 30, 30, 30, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %q = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer handed out span %d", id)
	}
}

func TestTracerRecords(t *testing.T) {
	tr := newTracer()
	op := tr.begin("op", -1, 7)
	kid := tr.begin("layer", op, 7)
	tr.end(kid)
	tr.end(op)
	if len(tr.spans) != 2 || tr.spans[1].Parent != op || tr.spans[1].Op != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].Start < tr.spans[0].Start {
		t.Errorf("child not inside parent: %+v", tr.spans)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	var back []span
	b, _ := os.ReadFile(path)
	if err := json.Unmarshal(b, &back); err != nil || len(back) != 2 {
		t.Errorf("spans file does not round-trip: %v, %d spans", err, len(back))
	}
}

// cannedTraces is `go tool pprof -traces` output, cut down from a real
// serve_small profile.
const cannedTraces = `File: benchmark
Build ID: a321fe7815deffd689935cdcf5e256ccbc896ce6
Type: cpu
Time: 2026-10-03 13:02:40 UTC
Duration: 4.42s, Total samples = 100ms (2.26%)
-----------+-------------------------------------------------------
      10ms   runtime.chansend
             runtime.chansend1
             repro/internal/sched.(*Scheduler).loop
-----------+-------------------------------------------------------
      30ms   crypto/internal/fips140/aes.decryptBlockAsm
             crypto/internal/fips140/aes.(*Block).Decrypt
             repro/internal/ocb.(*AEAD).openCore
             repro/internal/gpu.(*Device).execute
             repro/internal/hix.(*Enclave).serve.func2
-----------+-------------------------------------------------------
      20ms   runtime.memclrNoHeapPointers
             repro/internal/mem.(*AddressSpace).AddDRAM
             repro/internal/machine.New
             main.main
-----------+-------------------------------------------------------
      10ms   internal/runtime/syscall.Syscall6
             syscall.RawSyscall6
             syscall.write
             internal/poll.(*FD).Write
             net.(*conn).Write
             repro/internal/wire.(*FrameWriter).Flush
-----------+-------------------------------------------------------
      10ms   internal/runtime/syscall.Syscall6
             syscall.Syscall
             syscall.read
             os.(*File).Read
             main.main
-----------+-------------------------------------------------------
      10ms   repro/internal/bench/hist.(*H).Record
             repro/internal/netserve.(*Server).observeServe
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
`

func TestParseTraces(t *testing.T) {
	got, err := parseTraces(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sched":    10, // runtime frames under a layer belong to the layer
		"ocb":      30, // the innermost layer wins over gpu and hix
		"mem":      20, // machine is not a listed layer; mem is
		"wire":     10, // a syscall a layer made is the layer's
		"syscall":  10, // a syscall no layer is on the stack of
		"netserve": 10, // bench/hist is not a listed layer; its caller is
		"runtime":  10,
	}
	if len(got) != len(want) {
		t.Errorf("shares = %v, want %v", got, want)
	}
	for m, pct := range want {
		if math.Abs(got[m]-pct) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", m, got[m], pct)
		}
	}
	if _, err := parseTraces(strings.NewReader("-----\n  oops  main.main\n")); err == nil {
		t.Error("a sample line without a value parsed")
	}
}

func TestManifestNames(t *testing.T) {
	mf, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), mf.EndToEnd...), mf.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q) is malformed or listed twice", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}

	// The runner measures exactly the listed end-to-end metrics.
	values := endToEnd([]sample{{op: []float64{1}, alt: []float64{1}}}, []float64{1})
	if len(values) != len(mf.EndToEnd) {
		t.Errorf("runner measures %d end-to-end metrics, manifest lists %d", len(values), len(mf.EndToEnd))
	}
	for _, m := range mf.EndToEnd {
		if _, ok := values[m.Name]; !ok {
			t.Errorf("manifest lists end-to-end metric %q, which the runner does not measure", m.Name)
		}
	}

	// Every listed per-layer metric is one the runner's source produces:
	// a cpu.<module>_pct of a listed module, or a name written out in a
	// non-test file.
	var source bytes.Buffer
	files, _ := filepath.Glob("*.go")
	for _, f := range files {
		if !strings.HasSuffix(f, "_test.go") {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			source.Write(b)
		}
	}
	modules := map[string]bool{}
	for _, m := range cpuModules {
		modules["cpu."+m+"_pct"] = true
	}
	for _, m := range mf.PerLayer {
		if !modules[m.Name] && !strings.Contains(source.String(), `"`+m.Name+`"`) {
			t.Errorf("manifest lists per-layer metric %q, which no workload produces", m.Name)
		}
	}
	for m := range modules {
		if !seen[m] {
			t.Errorf("runner produces %q, which the manifest does not list", m)
		}
	}

	var raw struct {
		Workloads []struct{ Name string }
	}
	b, _ := os.ReadFile("../BENCHMARK.json")
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.Workloads) != len(allWorkloads) {
		t.Errorf("manifest lists %d workloads, runner has %d", len(raw.Workloads), len(allWorkloads))
	}
	for i, w := range raw.Workloads {
		if i < len(allWorkloads) && (w.Name != allWorkloads[i].name || !name.MatchString(w.Name)) {
			t.Errorf("workload %d is %q in the manifest and %q in the runner", i, w.Name, allWorkloads[i].name)
		}
	}
}

func TestSeededInputsRepeat(t *testing.T) {
	a := config{workload: "bulk_copy", seed: "7"}
	b := config{workload: "bulk_copy", seed: "8"}
	x, y, z := make([]byte, 64), make([]byte, 64), make([]byte, 64)
	a.rng().Read(x)
	a.rng().Read(y)
	b.rng().Read(z)
	if !bytes.Equal(x, y) {
		t.Error("the same seed gave different payload bytes")
	}
	if bytes.Equal(x, z) {
		t.Error("different seeds gave the same payload bytes")
	}
	if a.tenant(0) != a.tenant(0) || a.tenant(0) == a.tenant(1) || a.tenant(0) == b.tenant(0) {
		t.Error("tenant measurements must depend on the seed and the index, and on nothing else")
	}
	if a.platformSeed() == b.platformSeed() {
		t.Error("platform seeds must differ with the seed")
	}
	if paperWindow("7") != paperWindow("7") || paperWindow("7") < 0 || paperWindow("7") >= len(paperApps) {
		t.Error("the Figure-7 window must be a function of the seed alone")
	}
}

// TestServeSmallSmoke runs serve_small at about 1/1000 of its benchmark
// size, traced, on the small fixture (one 0.3 s boot; no Table-3 machine).
func TestServeSmallSmoke(t *testing.T) {
	c := config{workload: "serve_small", seed: "smoke"}
	tr := newTracer()
	inst, err := setupServeSmall(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 64
	s := inst.measure(rounds, tr)
	if err := inst.close(tr); err != nil {
		t.Fatal(err)
	}
	if s.failed != 0 || len(s.op) != rounds*serveConns*servePipelined || len(s.alt) != rounds/serveLockstepShare {
		t.Fatalf("failed %d of %d, %d ops, %d alts: %v", s.failed, s.attempted, len(s.op), len(s.alt), s.notes)
	}
	if s.attempted != len(s.op)+len(s.alt) {
		t.Errorf("attempted %d, want %d", s.attempted, len(s.op)+len(s.alt))
	}
	for _, name := range []string{"hix.wakeups_per_request", "sched.occupancy", "wire.frame_rt_ns", "sim.ms_per_op", "hixrt.round_p99_ms"} {
		if s.layer[name] <= 0 {
			t.Errorf("per-layer %s = %v, want > 0", name, s.layer[name])
		}
	}
	// Every round is an op span with its three request spans inside it.
	roundSpans, kids := 0, 0
	for _, sp := range tr.spans {
		switch {
		case sp.Name == "round":
			roundSpans++
		case strings.HasPrefix(sp.Name, "round/"):
			kids++
			if p := tr.spans[sp.Parent]; p.Name != "round" || p.Op != sp.Op || sp.Start < p.Start || sp.End > p.End {
				t.Fatalf("span %+v is not inside its round %+v", sp, p)
			}
		}
	}
	if roundSpans != len(s.op) || kids != 3*roundSpans {
		t.Errorf("%d round spans with %d children, want %d and %d", roundSpans, kids, len(s.op), 3*len(s.op))
	}
	for _, name := range []string{"netserve.New", "netserve.Shutdown", "hixrt.Launch"} {
		if len(tr.durationsMS(name)) == 0 {
			t.Errorf("no %q span recorded", name)
		}
	}
}
