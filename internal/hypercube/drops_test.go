package hypercube

import (
	"testing"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/network"
)

// TestDropsDoNotSaturate is the cube's drop collapse, held closed: the
// 256-node cube under a 1/8 hot spot (rate 0.6, window 4) with 0.5 % drops
// each way and no other fault.  Retransmits combine like fresh requests, so
// the hot tree keeps combining through the drops: over cycles 1000–4000 it
// completes at least 60 operations a cycle and is never saturated.  When a
// retransmit could not combine, the uncombinable copies filled the tree
// within the first thousand cycles and it stayed saturated on every cycle
// after, at 8.1 operations a cycle.
func TestDropsDoNotSaturate(t *testing.T) {
	const n, warm, cycles = 256, 1000, 3000
	inj := make([]engine.Injector, n)
	for p := range inj {
		inj[p] = network.NewStochastic(p, n, network.TrafficConfig{Rate: 0.6, HotFraction: 0.125, Window: 4}, 5)
	}
	sim := NewSim(Config{Nodes: n, WaitBufCap: core.Unbounded, Faults: &faults.Plan{Seed: 5, DropFwd: 0.005, DropRev: 0.005}}, inj)
	sim.Run(warm)
	before := sim.Totals()
	sim.Run(cycles)
	after := sim.Totals()
	perCycle := float64(after.Completed-before.Completed) / cycles
	saturated := after.SaturationCycles - before.SaturationCycles
	t.Logf("%.2f ops/cycle, %d saturated cycles, %.2f combines/cycle", perCycle, saturated, float64(after.Combines-before.Combines)/cycles)
	if perCycle < 60 || saturated != 0 {
		t.Errorf("drops only: %.2f ops/cycle and %d saturated cycles of %d; want at least 60 and none", perCycle, saturated, cycles)
	}
}
