package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// cpuModules are the layers (packages under repro/internal/) a CPU sample
// can be charged to, plus the two buckets for samples no layer is on the
// stack of.
var cpuModules = []string{
	"ocb", "attest", "wire", "netserve", "sched", "hix", "hixrt", "gpu", "mem", "mmu",
	"pcie", "sgx", "osim", "gdev", "sim", "runtime", "syscall",
}

// cpuByModule reads a CPU profile through `go tool pprof -traces` and
// returns each module's share of the samples, in percent.
func cpuByModule(profile string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", exe, profile)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w: %s", err, stderr.String())
	}
	return parseTraces(bytes.NewReader(out))
}

// parseTraces aggregates the text `pprof -traces` prints: blocks divided
// by dashed lines, each a sample value followed by its stack, innermost
// frame first. A sample goes to the innermost frame that lies in
// repro/internal/<module>, so crypto/aes under ocb is ocb and memclr
// under mem.AddDRAM is mem. A sample with no such frame is syscall if
// any frame is in the syscall packages, else runtime (the Go runtime
// and the benchmark's own harness code).
func parseTraces(r io.Reader) (map[string]float64, error) {
	known := map[string]bool{}
	for _, m := range cpuModules {
		known[m] = true
	}
	total := map[string]time.Duration{}
	var sum time.Duration

	var value time.Duration
	var module string
	var inSample, sawSyscall bool
	flush := func() {
		if !inSample {
			return
		}
		switch {
		case module != "":
		case sawSyscall:
			module = "syscall"
		default:
			module = "runtime"
		}
		total[module] += value
		sum += value
		inSample, module, sawSyscall = false, "", false
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	header := true
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			header = false
			continue
		}
		if header {
			continue // File:, Type:, Time:, Duration: lines
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		frame := fields[0]
		if !inSample {
			// The first line of a block is "<value> <innermost frame>".
			v, err := time.ParseDuration(fields[0]) // "10ms", "1.52s"
			if err != nil {
				return nil, fmt.Errorf("sample line %q: %w", line, err)
			}
			value, inSample = v, true
			if len(fields) < 2 {
				continue
			}
			frame = fields[1]
		}
		if rest, ok := strings.CutPrefix(frame, "repro/internal/"); ok && module == "" {
			// rest is "<module>.<symbol>" or "<module>/<subpackage>.<symbol>".
			if end := strings.IndexAny(rest, "./"); end > 0 && known[rest[:end]] {
				module = rest[:end]
			}
		}
		if strings.HasPrefix(frame, "syscall.") || strings.HasPrefix(frame, "internal/poll.") ||
			strings.HasPrefix(frame, "internal/runtime/syscall.") || strings.HasPrefix(frame, "runtime/internal/syscall.") {
			sawSyscall = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()

	shares := map[string]float64{}
	if sum > 0 {
		for m, d := range total {
			shares[m] = 100 * float64(d) / float64(sum)
		}
	}
	return shares, nil
}
