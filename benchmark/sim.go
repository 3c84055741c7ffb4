package main

import (
	"strings"

	"repro/internal/sim"
)

// simBusyMetrics names the per-op busy-time metric of each resource
// family the simulated timeline schedules work on.
var simBusyMetrics = map[sim.Resource]string{
	sim.ResCPUCrypto:  "sim.busy_cpu_crypto_ms_per_op",
	sim.ResGPUCompute: "sim.busy_gpu_compute_ms_per_op",
	sim.ResGPUDMA:     "sim.busy_gpu_dma_ms_per_op",
	sim.ResGECore:     "sim.busy_ge_core_ms_per_op",
}

// simLayer turns a traced timeline into the exact simulated per-op
// numbers: busy time per resource family, summed the way
// bench.BreakdownHIX sums it, and the interval count. A change meant only
// to speed up the simulator must leave all of them identical.
func simLayer(trace []sim.Interval, simNS int64, ops int, out map[string]float64) {
	busy := map[sim.Resource]sim.Duration{}
	for _, iv := range trace {
		// Lanes and partitions of one family are "<family>#n" or "<family>@d.p".
		family, _, _ := strings.Cut(strings.ReplaceAll(string(iv.Resource), "@", "#"), "#")
		busy[sim.Resource(family)] += iv.End.Sub(iv.Start)
	}
	n := float64(ops)
	out["sim.ms_per_op"] = float64(simNS) / 1e6 / n
	for family, name := range simBusyMetrics {
		out[name] = float64(busy[family]) / 1e6 / n
	}
	out["sim.spans_per_op"] = float64(len(trace)) / n
}
