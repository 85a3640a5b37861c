package hypercube

import (
	"testing"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/network"
)

// BenchmarkStep is internal/network's BenchmarkStep on the 256-node binary
// cube: uniform traffic, a 1/8 hot spot with combining on, the same hot
// spot with combining off, and the fault-mode cycle — bench/run.sh's
// cube_faulted machine (rate 0.6, the hot spot, seeded crash windows and
// 0.5 % drops both ways).  A switch visit here is one router in one of the
// two drains.
func BenchmarkStep(b *testing.B) {
	const n = 256
	// The crash plan scatters its windows over [0, horizon): the faulted
	// machine is rebuilt, off the clock, each time it steps past it, so every
	// measured cycle is one the plan covers.
	const warm, horizon = 1000, 4000
	for _, bc := range []struct {
		name    string
		rate    float64
		hot     float64
		waitCap int
		faulted bool
	}{
		{"uniform", 0.9, 0, core.Unbounded, false},
		{"hot8", 0.9, 0.125, core.Unbounded, false},
		{"hot8_nocombine", 0.9, 0.125, 0, false},
		{"faulted", 0.6, 0.125, core.Unbounded, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			build := func() *Sim {
				inj := make([]engine.Injector, n)
				for p := range inj {
					inj[p] = network.NewStochastic(p, n, network.TrafficConfig{Rate: bc.rate, HotFraction: bc.hot, Window: 4}, 5)
				}
				cfg, warmup := Config{Nodes: n, WaitBufCap: bc.waitCap}, 2000
				if bc.faulted {
					cfg.Faults = faults.GenCrashPlan(5, 6, horizon, 40)
					cfg.Faults.DropFwd, cfg.Faults.DropRev = 0.005, 0.005
					warmup = warm
				}
				sim := NewSim(cfg, inj)
				sim.Run(warmup)
				return sim
			}
			sim := build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.faulted && sim.Cycle() == horizon {
					b.StopTimer()
					sim = build()
					b.StartTimer()
				}
				sim.Step()
			}
			perCycle := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(perCycle, "ns/cycle")
			b.ReportMetric(perCycle/float64(2*n), "ns/switch-visit")
		})
	}
}
