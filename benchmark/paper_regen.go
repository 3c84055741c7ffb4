package main

import (
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"time"

	"repro/internal/attest"
	"repro/internal/bench"
	"repro/internal/gdev"
	"repro/internal/hix"
	"repro/internal/hixrt"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// paperApps are the nine Table-5 applications at paper scale, in Table-5
// order. A run measures a seed-chosen window of them: a whole Figure-7
// pass (18 cells, ~30 s) does not fit the driver's time cap, and every
// cell costs the same host time whatever the app (>99 % of a cell is
// machine.New + hix.Launch), so the window changes only which simulated
// numbers are checked.
var paperApps = []struct {
	name string
	new  func() workloads.Workload
}{
	{"bp", func() workloads.Workload { return workloads.PaperBP() }},
	{"bfs", func() workloads.Workload { return workloads.PaperBFS() }},
	{"gs", func() workloads.Workload { return workloads.PaperGS() }},
	{"hs", func() workloads.Workload { return workloads.PaperHS() }},
	{"lud", func() workloads.Workload { return workloads.PaperLUD() }},
	{"nw", func() workloads.Workload { return workloads.PaperNW() }},
	{"nn", func() workloads.Workload { return workloads.PaperNN() }},
	{"pf", func() workloads.Workload { return workloads.PaperPF() }},
	{"srad", func() workloads.Workload { return workloads.PaperSRAD() }},
}

// paperMachine is bench.machineConfig: the replica must boot the platform
// bench.RunHIX boots or its simulated time cannot be compared.
var paperMachine = machine.Config{PlatformSeed: "hix-bench"}

type paperRegen struct {
	first int // index into paperApps of the window's first app
	next  int // how many apps of the window have been run
	// simNS remembers each cell's simulated time the first time it is
	// produced; every later cell of that app on that runtime, traced or
	// not, must reproduce it exactly.
	simNS map[string]sim.Duration
}

// paperWindow picks the window's first app from the seed.
func paperWindow(seed string) int {
	h := fnv.New32a()
	h.Write([]byte(seed))
	return int(h.Sum32() % uint32(len(paperApps)))
}

func setupPaperRegen(c config, _ *tracer) (instance, error) {
	p := &paperRegen{first: paperWindow(c.seed), simNS: map[string]sim.Duration{}}
	// Warm-up: one discarded cell of each kind on the window's first app.
	if s := p.measure(1, nil); s.failed > 0 {
		return nil, fmt.Errorf("paper_regen warm-up: %v", s.notes)
	}
	return p, nil
}

func (p *paperRegen) describe() string {
	return "Table-3 fixture per cell (machine.Config defaults, 1.75 GiB DRAM + 1.5 GiB VRAM), PlatformSeed hix-bench"
}

// cell runs one Figure-7 cell and returns its simulated time. The heap is
// scavenged first, outside the timed interval, so the cell's time does
// not depend on what the collector did with the previous cell's 3.25 GiB.
func (p *paperRegen) cell(s *sample, lat *[]float64, label string, run func() (sim.Duration, error)) sim.Duration {
	debug.FreeOSMemory()
	s.clock.start()
	t0 := time.Now()
	ns, err := run()
	*lat = append(*lat, ms(time.Since(t0)))
	s.clock.stop()

	ok := s.expect(err == nil && ns > 0, "%s: %v (%d sim ns)", label, err, ns)
	if first, seen := p.simNS[label]; seen {
		ok = s.expect(ns == first, "%s: %d sim ns, an earlier cell gave %d", label, ns, first) && ok
	} else {
		p.simNS[label] = ns
	}
	s.done(ok)
	return ns
}

// measure runs the next n apps of the window (it wraps around Table 5),
// each as an op cell (bench.RunHIX) and an alt cell (bench.RunGdev).
// Traced, the cells are the stepwise replicas, and the window is replayed
// from its start so that every replica cell has an earlier bench.RunHIX
// or bench.RunGdev cell of the same app to equal.
func (p *paperRegen) measure(n int, tr *tracer) sample {
	var s sample
	if tr != nil {
		p.next = 0
	}
	var simNS sim.Duration
	var trace []sim.Interval
	var overhead, resetMS float64
	for i := 0; i < n; i++ {
		app := paperApps[(p.first+p.next)%len(paperApps)]
		p.next++

		var m *machine.Machine
		hixNS := p.cell(&s, &s.op, app.name+" on HIX", func() (ns sim.Duration, err error) {
			if tr == nil {
				return bench.RunHIX(app.new())
			}
			ns, m, err = replicaHIX(app.new(), tr, i)
			return ns, err
		})
		if m != nil {
			trace = append(trace, m.Timeline.Trace()...)
			if i == n-1 {
				// Probe: the cleansing reset of a booted Table-3 GPU.
				t0 := time.Now()
				m.GPU.Reset()
				resetMS = ms(time.Since(t0))
			}
			m = nil // let the next scavenge return its 3.25 GiB
		}

		gdevNS := p.cell(&s, &s.alt, app.name+" on Gdev", func() (sim.Duration, error) {
			if tr == nil {
				return bench.RunGdev(app.new())
			}
			return replicaGdev(app.new(), tr, i)
		})

		simNS += hixNS
		if gdevNS > 0 {
			overhead += float64(hixNS-gdevNS) / float64(gdevNS)
		}
	}
	if tr == nil {
		return s
	}

	s.layer = map[string]float64{"gpu.reset_ms": resetMS}
	// The five child spans of a replica cell must account for the cell.
	self := selfTimes(tr.spans)
	for i, sp := range tr.spans {
		if sp.Name == "cell/hix" && float64(self[i]) > 0.02*float64(sp.End-sp.Start) {
			s.done(false)
			s.note("replica cell %d: %d of %d ns outside its child spans", sp.Op, self[i], sp.End-sp.Start)
		}
	}
	simLayer(trace, int64(simNS), n, s.layer)
	s.layer["sim.hix_over_gdev_pct"] = 100 * overhead / float64(n)
	return s
}

func (p *paperRegen) close(*tracer) error { return nil }

// replicaHIX is bench.RunHIX taken one call at a time, with a span around
// each call into a layer and the simulated timeline traced. It returns
// the machine so the caller can read the trace.
func replicaHIX(w workloads.Workload, tr *tracer, op int) (sim.Duration, *machine.Machine, error) {
	cell := tr.begin("cell/hix", -1, op)
	defer tr.end(cell)

	id := tr.begin("machine.New", cell, op)
	m, err := machine.New(paperMachine)
	tr.end(id)
	if err != nil {
		return 0, nil, err
	}
	m.Timeline.EnableTrace()

	id = tr.begin("hix.Launch", cell, op)
	vendor, err := attest.NewSigningAuthority()
	if err != nil {
		return 0, nil, err
	}
	ge, err := hix.Launch(hix.Config{Machine: m, Vendor: vendor})
	if err != nil {
		return 0, nil, err
	}
	for _, k := range w.Kernels() {
		if err := ge.RegisterKernel(k); err != nil {
			return 0, nil, err
		}
	}
	tr.end(id)

	id = tr.begin("hixrt.OpenSession", cell, op)
	client, err := hixrt.NewClient(m, ge, vendor.PublicKey(), nil)
	if err != nil {
		return 0, nil, err
	}
	s, err := client.OpenSession()
	if err != nil {
		return 0, nil, err
	}
	s.Synthetic = true
	tr.end(id)

	id = tr.begin("workloads.Run/hix", cell, op)
	err = w.Run(workloads.HIXRunner{Session: s})
	tr.end(id)
	if err != nil {
		return 0, nil, err
	}
	elapsed := s.Elapsed()

	id = tr.begin("hixrt.Close", cell, op)
	err = s.Close()
	tr.end(id)
	return elapsed, m, err
}

// replicaGdev is bench.RunGdev taken one call at a time.
func replicaGdev(w workloads.Workload, tr *tracer, op int) (sim.Duration, error) {
	cell := tr.begin("cell/gdev", -1, op)
	defer tr.end(cell)

	id := tr.begin("machine.New", cell, op)
	m, err := machine.New(paperMachine)
	tr.end(id)
	if err != nil {
		return 0, err
	}

	id = tr.begin("gdev.Open", cell, op)
	d, err := gdev.Open(m)
	if err != nil {
		return 0, err
	}
	for _, k := range w.Kernels() {
		if err := d.RegisterKernel(k); err != nil {
			return 0, err
		}
	}
	task, err := d.NewTask()
	if err != nil {
		return 0, err
	}
	defer task.Close()
	task.Synthetic = true
	tr.end(id)

	id = tr.begin("workloads.Run/gdev", cell, op)
	err = w.Run(workloads.GdevRunner{Task: task})
	tr.end(id)
	if err != nil {
		return 0, err
	}
	return task.Elapsed(), nil
}
