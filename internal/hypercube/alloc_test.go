package hypercube

import (
	"fmt"
	"runtime"
	"testing"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/network"
)

// TestFaultedStepAllocs is internal/network's TestFaultedStepAllocs on the
// 16-node cube under cube_faulted's traffic (rate 0.6, a 1/8 hot spot,
// window 4) with a plan armed that drops and crashes nothing: the steady
// state allocates nothing per uncombined operation and at most four times
// per combine (the composed mapping, the combined lineage and the exact
// reply's leaf list; see the network test for the count), serially and at
// width 3.
func TestFaultedStepAllocs(t *testing.T) {
	const n, cycles, perCombine = 16, 4000, 4
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			inj := make([]engine.Injector, n)
			for p := range inj {
				inj[p] = network.NewStochastic(p, n, network.TrafficConfig{Rate: 0.6, HotFraction: 0.125, Window: 4}, 5)
			}
			sim := NewSim(Config{Nodes: n, Workers: workers, WaitBufCap: core.Unbounded, Faults: &faults.Plan{Seed: 1}}, inj)
			sim.pool.Start()
			defer sim.pool.Stop()
			sim.Run(2048)
			before := sim.Totals()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			for range cycles {
				sim.Step()
			}
			runtime.ReadMemStats(&ms)
			allocs := ms.Mallocs - mallocs
			after := sim.Totals()
			combines, ops := after.Combines-before.Combines, after.Completed-before.Completed
			if combines == 0 || ops == 0 {
				t.Fatalf("%d combines, %d operations in %d cycles — the hot spot never met itself in a queue", combines, ops, cycles)
			}
			t.Logf("%.3f allocs/cycle, %.3f ops/cycle, %.3f combines/cycle: %.3f allocs per combine",
				float64(allocs)/cycles, float64(ops)/cycles, float64(combines)/cycles, float64(allocs)/float64(combines))
			if allocs > perCombine*uint64(combines) {
				t.Errorf("faulted step: %d allocs over %d cycles for %d combines and %d operations, want at most %d per combine and none per operation",
					allocs, cycles, combines, ops, perCombine)
			}
		})
	}
}
