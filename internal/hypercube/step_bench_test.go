package hypercube

import (
	"testing"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/network"
)

// BenchmarkStep is internal/network's BenchmarkStep on the 256-node binary
// cube: uniform traffic, a 1/8 hot spot with combining on, and the same hot
// spot with combining off.  A switch visit here is one router in one of the
// two drains.
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
			inj := make([]engine.Injector, n)
			for p := range inj {
				inj[p] = network.NewStochastic(p, n, network.TrafficConfig{Rate: 0.9, HotFraction: bc.hot, Window: 4}, 5)
			}
			sim := NewSim(Config{Nodes: n, WaitBufCap: bc.waitCap}, inj)
			sim.Run(2000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
			perCycle := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(perCycle, "ns/cycle")
			b.ReportMetric(perCycle/float64(2*n), "ns/switch-visit")
		})
	}
}
