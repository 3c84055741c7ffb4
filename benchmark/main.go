// Command benchmark is the repo benchmark that BENCHMARK.json describes:
// four fixed-work, closed-loop workloads, each run in a fresh process.
//
//	benchmark --workload <name> --seed <s> --seconds <n> --trace <0|1>
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs half the work untraced and half traced (spans around the calls
// into each layer, the simulated timeline's trace, a CPU profile) and
// reports the per-layer metrics. Either way the last line of standard
// output is one JSON object; everything else goes to standard error.
// See README.md for what each workload and metric is and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/attest"
)

// config is what the command line fixes for one run.
type config struct {
	workload string
	seed     string
	seconds  int
	trace    bool
	out      string // directory for spans and profiles
	manifest string // path of BENCHMARK.json
}

// The seed drives everything generated: the platform's attestation
// secret and entropy, the tenants' measurements and the payload bytes.
func (c config) platformSeed() string { return "bench-" + c.seed }

func (c config) tenant(i int) attest.Measurement {
	return attest.Measure([]byte(fmt.Sprintf("bench tenant %s/%d", c.seed, i)))
}

func (c config) rng() *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(c.workload + "/" + c.seed))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// sample is what one measured phase produced.
type sample struct {
	op, alt   []float64 // per-op latencies, ms
	clock     stopwatch
	attempted int
	failed    int
	notes     []string           // the first few failures, for the report
	layer     map[string]float64 // per-layer numbers; traced phases only
}

// done counts one finished op; ok is whether it returned no error and
// the right output.
func (s *sample) done(ok bool) {
	s.attempted++
	if !ok {
		s.failed++
	}
}

func (s *sample) note(format string, args ...any) {
	if len(s.notes) < 5 {
		s.notes = append(s.notes, fmt.Sprintf(format, args...))
	}
}

// expect notes the failure when cond is false and returns cond.
func (s *sample) expect(cond bool, format string, args ...any) bool {
	if !cond {
		s.note(format, args...)
	}
	return cond
}

func (s sample) opsPerSecond() float64 {
	return float64(len(s.op)+len(s.alt)) / s.clock.wall.Seconds()
}

// instance is one workload, set up and warmed.
type instance interface {
	// describe names the process's fixture for the report header.
	describe() string
	// measure runs n units of work, closed loop, checking every output.
	// A nil tracer is the untraced run.
	measure(n int, tr *tracer) sample
	close(tr *tracer) error
}

// workload ties a name to its set-up and to its size: perSecond units of
// work are run for each second of --seconds. The rates were measured on
// the build host (2 cores) so that the measured phase lasts about
// --seconds there; work, not time, is fixed because peak RSS grows with
// ops served (sim.Timeline keeps every span), and a fixed duration would
// charge a faster program with more memory. README.md has the sizing.
type workload struct {
	name      string
	perSecond float64
	unit      string
	setup     func(c config, tr *tracer) (instance, error)
}

var allWorkloads = []workload{
	{"paper_regen", 0.27, "apps (one HIX cell and one Gdev cell each)", setupPaperRegen},
	{"bulk_copy", 5.9, "pairs of a 16 MiB HtoD and a 16 MiB DtoH", setupBulkCopy},
	{"serve_small", 1300, "pipelined rounds per goroutine (4 goroutines), then 1/32 as many lock-step rounds on one connection", setupServeSmall},
	{"session_churn", 56, "pairs of a full-handshake and a resumed session", setupSessionChurn},
}

func (w workload) units(seconds int) int {
	return max(2, int(w.perSecond*float64(seconds)+0.5))
}

// segments is how many equal parts the untraced work is measured in.
const segments = 5

// extraSetups is how many fresh child processes repeat the set-up so that
// setup_s is a median of extraSetups+1 and not one noisy reading.
const extraSetups = 2

// manifest is the part of BENCHMARK.json the runner needs: which metrics
// to print and their units. The file is the single list of metric names.
type manifest struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// spanMetrics maps a per-layer metric to the span whose median duration
// it reports, on whichever workloads record that span.
var spanMetrics = map[string]string{
	"machine.new_ms":        "machine.New",
	"hix.launch_ms":         "hix.Launch",
	"hixrt.open_session_ms": "hixrt.OpenSession",
	"workloads.run_hix_ms":  "workloads.Run/hix",
	"gdev.open_ms":          "gdev.Open",
	"workloads.run_gdev_ms": "workloads.Run/gdev",
	"hixrt.htod_ms":         "hixrt.MemcpyHtoD",
	"hixrt.dtoh_ms":         "hixrt.MemcpyDtoH",
	"hixrt.launch_ms":       "hixrt.Launch",
	"hixrt.dial_full_ms":    "hixrt.Dial/full",
	"hixrt.dial_resumed_ms": "hixrt.Dial/resumed",
	"hixrt.close_ms":        "hixrt.Close",
	"netserve.new_ms":       "netserve.New",
	"netserve.shutdown_ms":  "netserve.Shutdown",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var c config
	var trace int
	var setupOnly bool
	flag.StringVar(&c.workload, "workload", "", "paper_regen, bulk_copy, serve_small or session_churn")
	flag.StringVar(&c.seed, "seed", "bench-16", "drives the platform seed, tenant measurements and payload bytes")
	flag.IntVar(&c.seconds, "seconds", 15, "sizes the fixed work: about this long on the build host")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from a traced pass")
	flag.StringVar(&c.out, "out", "benchmark/out", "directory for spans and profiles")
	flag.StringVar(&c.manifest, "manifest", "BENCHMARK.json", "the benchmark manifest, which lists the metrics to print")
	flag.BoolVar(&setupOnly, "setup-only", false, "set up, print the set-up seconds, exit (used for the setup_s median)")
	flag.Parse()
	c.trace = trace != 0

	if err := run(c, setupOnly); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(c config, setupOnly bool) error {
	var w *workload
	for i := range allWorkloads {
		if allWorkloads[i].name == c.workload {
			w = &allWorkloads[i]
		}
	}
	if w == nil || c.seconds < 1 {
		return fmt.Errorf("need --workload (one of the four) and --seconds ≥ 1, got %q and %d", c.workload, c.seconds)
	}

	if setupOnly {
		t0 := time.Now()
		if _, err := w.setup(c, nil); err != nil {
			return err
		}
		// The process exits here; nothing set up outlives it.
		fmt.Println(time.Since(t0).Seconds())
		return nil
	}

	mf, err := readManifest(c.manifest)
	if err != nil {
		return err
	}

	// Set-up is timed in fresh processes, one after another, then once
	// more here for the instance the run measures.
	var setups []float64
	for i := 0; i < extraSetups; i++ {
		s, err := childSetup(c)
		if err != nil {
			return fmt.Errorf("set-up in a child process: %w", err)
		}
		setups = append(setups, s)
	}
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	t0 := time.Now()
	inst, err := w.setup(c, tr)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, time.Since(t0).Seconds())

	n := w.units(c.seconds)
	if c.trace {
		n = max(1, n/2)
	}
	fmt.Fprintf(os.Stderr, "workload %s  seed %q  pid %d  GOMAXPROCS %d (of %d CPUs)  %s\n",
		w.name, c.seed, os.Getpid(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(os.Stderr, "fixture  %s\n", inst.describe())
	fmt.Fprintf(os.Stderr, "work     %d %s", n, w.unit)
	if c.trace {
		fmt.Fprintf(os.Stderr, ", once untraced and once traced")
	}
	fmt.Fprintf(os.Stderr, "\nset-ups  %.4f s\n", setups)

	res := result{Metrics: map[string]metric{}}
	var notes []string
	if !c.trace {
		// The work is measured in equal segments and every metric is the
		// median over them, so interference that lasts a few seconds (this
		// is a shared host) spoils a segment or two, not the reading.
		var segs []sample
		for i, k := 0, min(segments, n); i < k; i++ {
			s := inst.measure((i+1)*n/k-i*n/k, nil)
			res.Attempted += s.attempted
			res.Failed += s.failed
			notes = append(notes, s.notes...)
			segs = append(segs, s)
			fmt.Fprintf(os.Stderr, "segment  %.3f s wall, %.3f s CPU; op n=%d p50 %.4f p90 %.4f ms; alt n=%d p50 %.4f p90 %.4f ms\n",
				s.clock.wall.Seconds(), s.clock.cpu.Seconds(), len(s.op), quantile(s.op, 0.5), quantile(s.op, 0.9),
				len(s.alt), quantile(s.alt, 0.5), quantile(s.alt, 0.9))
		}
		if err := inst.close(nil); err != nil {
			return fmt.Errorf("teardown: %w", err)
		}
		values := endToEnd(segs, setups)
		for _, m := range mf.EndToEnd {
			v, ok := values[m.Name]
			if !ok {
				return fmt.Errorf("%s lists end-to-end metric %q, which the runner does not measure", c.manifest, m.Name)
			}
			res.Metrics[m.Name] = metric{v, m.Unit}
		}
	} else {
		s := inst.measure(n, nil)
		layer, t, err := tracedPass(c, inst, n, tr)
		if err != nil {
			return err
		}
		res.Attempted = s.attempted + t.attempted
		res.Failed = s.failed + t.failed
		notes = append(s.notes, t.notes...)
		layer["bench.trace_overhead_pct"] = 100 * (1 - t.opsPerSecond()/s.opsPerSecond())
		layer["bench.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		for _, m := range mf.PerLayer {
			res.Metrics[m.Name] = metric{layer[m.Name], m.Unit} // 0 where the workload does not reach the layer
		}
	}
	res.Correct = res.Failed == 0

	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	for _, note := range notes {
		fmt.Fprintln(os.Stderr, "FAILED:", note)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed or returned wrong output", res.Failed, res.Attempted)
	}
	return nil
}

// endToEnd computes the end-to-end metrics of an untraced run from its
// segments: each is the median over the segments. Call it after teardown,
// so that peak RSS covers the whole process.
func endToEnd(segs []sample, setups []float64) map[string]float64 {
	over := func(f func(s sample) float64) float64 {
		var v []float64
		for _, s := range segs {
			v = append(v, f(s))
		}
		return quantile(v, 0.5)
	}
	return map[string]float64{
		"setup_s":     quantile(setups, 0.5),
		"peak_rss_mb": peakRSSMiB(),
		"ops_per_s":   over(sample.opsPerSecond),
		"op_p50_ms":   over(func(s sample) float64 { return quantile(s.op, 0.5) }),
		"alt_p50_ms":  over(func(s sample) float64 { return quantile(s.alt, 0.5) }),
		"cpu_ms_per_op": over(func(s sample) float64 {
			return ms(s.clock.cpu) / float64(len(s.op)+len(s.alt))
		}),
	}
}

// childSetup runs this program's set-up alone in a fresh process and
// returns the seconds it reports.
func childSetup(c config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", c.workload, "--seed", c.seed, "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// tracedPass measures n units again with every tracing aid on, tears the
// instance down, and returns the per-layer numbers.
func tracedPass(c config, inst instance, n int, tr *tracer) (map[string]float64, sample, error) {
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return nil, sample{}, err
	}
	profile := filepath.Join(c.out, "cpu_"+c.workload+".pprof")
	f, err := os.Create(profile)
	if err != nil {
		return nil, sample{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, sample{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r0 := rusage()
	t := inst.measure(n, tr)
	r1 := rusage()
	runtime.ReadMemStats(&m1)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, sample{}, err
	}
	if err := inst.close(tr); err != nil {
		return nil, sample{}, fmt.Errorf("teardown: %w", err)
	}

	layer := t.layer
	for name, spanName := range spanMetrics {
		if d := tr.durationsMS(spanName); len(d) > 0 {
			layer[name] = quantile(d, 0.5)
		}
	}
	// Work counts over the traced half. They repeat far better than any
	// time on a shared host, so they are the numbers to check first when
	// a change claims to have done less work.
	ops := float64(len(t.op) + len(t.alt))
	layer["go.alloc_kib_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / ops
	layer["go.mallocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / ops
	layer["os.minor_faults_per_op"] = float64(r1.Minflt-r0.Minflt) / ops
	layer["os.ctx_switches_per_op"] = float64(r1.Nvcsw-r0.Nvcsw+r1.Nivcsw-r0.Nivcsw) / ops
	shares, err := cpuByModule(profile)
	if err != nil {
		return nil, sample{}, fmt.Errorf("CPU profile: %w", err)
	}
	for m, pct := range shares {
		layer["cpu."+m+"_pct"] = pct
	}
	if err := tr.write(filepath.Join(c.out, "spans_"+c.workload+".json")); err != nil {
		return nil, sample{}, err
	}
	return layer, t, nil
}
