package model

import (
	"math"
	"testing"

	"combining/internal/network"
	"combining/internal/wiring"
)

func TestKruskalSnirWaitShape(t *testing.T) {
	// Zero at zero load; increasing in p; decreasing in k; hyperbolic
	// blow-up toward p → 1.
	if got := KruskalSnirWait(0, 2); got != 0 {
		t.Fatalf("W(0) = %g", got)
	}
	if !(KruskalSnirWait(0.6, 2) > KruskalSnirWait(0.3, 2)) {
		t.Error("W must increase with load")
	}
	// Per stage the wait grows with radix (more merged streams)…
	if !(KruskalSnirWait(0.5, 4) > KruskalSnirWait(0.5, 2)) {
		t.Error("per-stage W must grow with radix")
	}
	// …but the network total falls, because depth shrinks faster.
	tot := func(k int) float64 {
		return float64(Stages(4096, k)) * KruskalSnirWait(0.5, k)
	}
	if !(tot(4) < tot(2)) {
		t.Error("total queueing cost must fall with radix")
	}
	if !(KruskalSnirWait(0.95, 2) > 10*KruskalSnirWait(0.5, 2)) {
		t.Error("W must blow up near saturation")
	}
	// The exact value at p=1/2, k=2: (1/2)(1/2)/(2·(1/2)) = 1/4.
	if got := KruskalSnirWait(0.5, 2); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("W(0.5, 2) = %g, want 0.25", got)
	}
}

// TestModelAgainstSimulator: the 1983 formula predicts the simulator's
// uniform-traffic latency.  The formula assumes independent uniform
// arrivals and infinite buffers; the simulator has finite buffers,
// windows, and correlated closed-loop arrivals, so we accept generous
// tolerance — the point is that the load/latency curve has the predicted
// shape and magnitude.
func TestModelAgainstSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	for _, w := range []struct {
		name  string
		radix int
	}{{"omega", 2}, {"omega4", 4}} {
		radix := w.radix
		const n = 64
		for _, p := range []float64{0.2, 0.4, 0.6} {
			inj := make([]network.Injector, n)
			for q := 0; q < n; q++ {
				// A deep window keeps the offered load close to the
				// Bernoulli rate.
				inj[q] = network.NewStochastic(q, n, network.TrafficConfig{
					Rate: p, Window: 32,
				}, 3)
			}
			build, err := wiring.New(w.name, wiring.Config{Procs: n, QueueCap: 64, WaitBufCap: 0})
			if err != nil {
				t.Fatal(err)
			}
			sim := build(inj)
			sim.Run(6000)
			measured := sim.Totals().MeanLatency()
			predicted := UniformLatency(n, radix, p)
			ratio := measured / predicted
			t.Logf("radix=%d p=%.1f: measured %.2f, Kruskal–Snir %.2f (ratio %.2f)",
				radix, p, measured, predicted, ratio)
			if ratio < 0.75 || ratio > 1.45 {
				t.Errorf("radix=%d p=%.1f: measured %.2f vs predicted %.2f out of tolerance",
					radix, p, measured, predicted)
			}
		}
	}
}

// TestSaturationModel: the simulator's hot-spot ceiling matches the
// analytic limit (restating E8's asymptote through the model package).
func TestSaturationModel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	const n, h = 64, 0.25
	res := network.RunHotspot(n, 0.9, h, false, 4000, 7)
	limit := HotspotBandwidth(n, h)
	ratio := res.Stats.Bandwidth() / limit
	t.Logf("hot-spot bandwidth %.2f vs limit %.2f (ratio %.2f)", res.Stats.Bandwidth(), limit, ratio)
	if ratio < 0.8 || ratio > 1.1 {
		t.Errorf("saturated bandwidth %.2f should sit at the analytic limit %.2f",
			res.Stats.Bandwidth(), limit)
	}
	// And the saturation load formula: below it the network keeps up.
	pSat := SaturationLoad(n, h)
	low := network.RunHotspot(n, pSat*0.5, h, false, 4000, 7)
	offered := float64(low.Stats.Issued) / 4000
	if low.Stats.Bandwidth() < 0.9*offered {
		t.Errorf("below saturation (p=%.3f) the network delivered %.2f of %.2f offered",
			pSat*0.5, low.Stats.Bandwidth(), offered)
	}
}
