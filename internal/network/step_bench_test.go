package network

import (
	"testing"

	"combining/internal/core"
	"combining/internal/faults"
)

// BenchmarkStep prices one serial cycle of the 256-processor omega machine
// under the three regimes bench/run.sh's omega workloads run (rate 0.9,
// window 4): uniform traffic, a 1/8 hot spot with combining on, and the same
// hot spot with combining off (tree saturation: full queues, credit holds and
// a refused tail scan per held request per cycle).  A fourth case, faulted,
// is the staged engine's fault rim: the hot spot at rate 0.6 under seeded
// crash windows, 0.5 % drops both ways and one slowdown window over every
// module, so module ticks run both the quiet-cycle skip and its guards.  A
// fifth, hot8_wait4, is A1's partial combining: the hot spot with
// four-record wait buffers, whose room changes under a blocked head, so its
// refusals never park (engine/park.go) and every blocked head is visited
// each cycle — the path parking must not slow.
// ns/cycle is the cost of a Step; ns/switch-visit divides it by the stages ×
// switches the two sweeps visit, the unit bench/'s
// engine.host_ns_per_switch_visit reports.  `make stepbench` runs it with
// the hypercube twin; `make profile` profiles it.
func BenchmarkStep(b *testing.B) {
	const n = 256
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
		{"hot8_wait4", 0.9, 0.125, 4, false},
		{"faulted", 0.6, 0.125, core.Unbounded, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			build := func() *Sim {
				inj := make([]Injector, n)
				for p := range inj {
					inj[p] = NewStochastic(p, n, TrafficConfig{Rate: bc.rate, HotFraction: bc.hot, Window: 4}, 5)
				}
				cfg, warmup := Config{Procs: n, WaitBufCap: bc.waitCap}, 2000
				if bc.faulted {
					cfg.Faults, warmup = stepPlan(), faultedWarm
				}
				sim := NewSim(cfg, inj)
				sim.Run(warmup) // queues and the metadata boxes at their working size
				return sim
			}
			sim := build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.faulted && sim.Cycle() == faultedHorizon {
					b.StopTimer()
					sim = build()
					b.StartTimer()
				}
				sim.Step()
			}
			perCycle := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			visits := float64(2 * sim.k * sim.ns)
			b.ReportMetric(perCycle, "ns/cycle")
			b.ReportMetric(perCycle/visits, "ns/switch-visit")
		})
	}
}

// The faulted cases' crash plan scatters its windows over
// [0, faultedHorizon): their machine warms for faultedWarm cycles and is
// rebuilt, off the clock, each time it steps past the horizon, so every
// measured cycle is one the plan covers.
const faultedWarm, faultedHorizon = 1000, 4000

// stepPlan is the faulted cases' plan: seeded crash windows, 0.5 % drops
// both ways and one slowdown window over every module.
func stepPlan() *faults.Plan {
	plan := faults.GenCrashPlan(5, 6, faultedHorizon, 40)
	plan.DropFwd, plan.DropRev = 0.005, 0.005
	plan.MemStalls = []faults.Window{{Stage: -1, Index: -1, From: 2000, To: 2200}}
	return plan
}
