package network

import (
	"testing"

	"combining/internal/core"
)

// BenchmarkStep prices one serial cycle of the 256-processor omega machine
// under the three regimes bench/run.sh's omega workloads run (rate 0.9,
// window 4): uniform traffic, a 1/8 hot spot with combining on, and the same
// hot spot with combining off (tree saturation: full queues, credit holds and
// a refused tail scan per held request per cycle).  ns/cycle is the cost of a
// Step; ns/switch-visit divides it by the stages × switches the two sweeps
// visit, the unit bench/'s engine.host_ns_per_switch_visit reports.  `make
// stepbench` runs it with the hypercube twin; `make profile` profiles it.
func BenchmarkStep(b *testing.B) {
	const n = 256
	for _, bc := range []struct {
		name    string
		hot     float64
		waitCap int
	}{
		{"uniform", 0, core.Unbounded},
		{"hot8", 0.125, core.Unbounded},
		{"hot8_nocombine", 0.125, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			inj := make([]Injector, n)
			for p := range inj {
				inj[p] = NewStochastic(p, n, TrafficConfig{Rate: 0.9, HotFraction: bc.hot, Window: 4}, 5)
			}
			sim := NewSim(Config{Procs: n, WaitBufCap: bc.waitCap}, inj)
			sim.Run(2000) // queues and the metadata boxes at their working size
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
			perCycle := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			visits := float64(2 * sim.k * sim.ns)
			b.ReportMetric(perCycle, "ns/cycle")
			b.ReportMetric(perCycle/visits, "ns/switch-visit")
		})
	}
}
