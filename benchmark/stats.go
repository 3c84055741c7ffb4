package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of the samples by linear
// interpolation between order statistics, so the median of an even
// count is the mean of the middle two. It sorts a copy; NaN when empty.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// stopwatch accumulates wall and CPU time over the timed intervals of a
// measured phase, so untimed work between ops (heap scavenging, readback
// comparison set-up) is charged to neither.
type stopwatch struct {
	wall, cpu time.Duration
	t0        time.Time
	c0        time.Duration
}

func (s *stopwatch) start() { s.c0, s.t0 = cpuTime(), time.Now() }

func (s *stopwatch) stop() {
	s.wall += time.Since(s.t0)
	s.cpu += cpuTime() - s.c0
}
