package network

import (
	"testing"

	"combining/internal/model"
)

// Experiments E8/E9: the hot-spot phenomena of Pfister & Norton [20] that
// motivate the paper, reproduced on the cycle simulator.  These tests
// assert the qualitative shape — who wins and by how much — not absolute
// cycle counts.

const hotspotCycles = 4000

// TestHotspotBandwidthCollapse (E8): without combining, hot-spot traffic
// collapses delivered bandwidth toward the single-module saturation limit
// 1/(h + (1−h)/N); combining restores most of the uniform-traffic
// bandwidth.
func TestHotspotBandwidthCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	const n = 64
	const rate = 0.6
	const h = 0.125

	uniform := RunHotspot(n, rate, 0, false, hotspotCycles, 1)
	noComb := RunHotspot(n, rate, h, false, hotspotCycles, 1)
	comb := RunHotspot(n, rate, h, true, hotspotCycles, 1)

	bwUniform := uniform.Stats.Bandwidth()
	bwNo := noComb.Stats.Bandwidth()
	bwComb := comb.Stats.Bandwidth()
	t.Logf("N=%d h=%.3f: uniform %.2f, no-combining %.2f, combining %.2f ops/cycle (limit %.2f)",
		n, h, bwUniform, bwNo, bwComb, model.HotspotBandwidth(n, h))

	// Without combining the hot module is the bottleneck: delivered
	// bandwidth must sit near (below ~1.5×) the analytic limit and far
	// below the uniform bandwidth.
	limit := model.HotspotBandwidth(n, h)
	if bwNo > 1.5*limit {
		t.Errorf("no-combining bandwidth %.2f exceeds saturation limit %.2f by >50%%", bwNo, limit)
	}
	if bwNo > bwUniform/2 {
		t.Errorf("no-combining bandwidth %.2f did not collapse (uniform %.2f)", bwNo, bwUniform)
	}
	// Combining must recover a large factor.
	if bwComb < 2*bwNo {
		t.Errorf("combining bandwidth %.2f is not ≥2× the uncombined %.2f", bwComb, bwNo)
	}
	// And approach the uniform level.
	if bwComb < 0.6*bwUniform {
		t.Errorf("combining bandwidth %.2f recovers <60%% of uniform %.2f", bwComb, bwUniform)
	}
}

// TestTreeSaturation (E9): the striking Pfister–Norton result is that hot
// spots delay *everyone*: the latency of requests that never touch the hot
// module blows up, because the saturated tree of full queues backs up into
// shared links.  Combining removes the effect.
func TestTreeSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	const n = 64
	const h = 0.25
	// Moderate load (so the baseline is uncongested) with windows deep
	// enough that processors keep issuing past stalled hot requests —
	// the regime where Pfister & Norton observed tree saturation.  The
	// effect is bounded in this closed-loop model: windows eventually
	// fill with stuck hot requests and throttle the sources, so cold
	// latency roughly doubles rather than diverging.
	mkTraffic := func(h float64) TrafficConfig {
		return TrafficConfig{Rate: 0.3, HotFraction: h, Window: 16}
	}
	baseline := RunHotspotTraffic(n, mkTraffic(0), false, hotspotCycles, 2)
	noComb := RunHotspotTraffic(n, mkTraffic(h), false, hotspotCycles, 2)
	comb := RunHotspotTraffic(n, mkTraffic(h), true, hotspotCycles, 2)

	base := baseline.Stats.ColdMeanLatency()
	saturated := noComb.Stats.ColdMeanLatency()
	relieved := comb.Stats.ColdMeanLatency()
	t.Logf("cold-traffic latency: baseline %.1f, hot-spot no-combining %.1f, combining %.1f cycles",
		base, saturated, relieved)

	if saturated < 1.7*base {
		t.Errorf("tree saturation missing: cold latency %.1f under hot spot vs %.1f baseline", saturated, base)
	}
	if relieved > 1.3*base {
		t.Errorf("combining failed to relieve tree saturation: cold latency %.1f vs baseline %.1f", relieved, base)
	}
}

// TestHotspotMonotoneCollapse (E8 sweep shape): without combining,
// delivered bandwidth is non-increasing as h grows through
// {0, 1/16, 1/8, 1/4}, with a substantial drop overall; with combining the
// drop is small.
func TestHotspotMonotoneCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	const n = 64
	const rate = 0.6
	hs := []float64{0, 1.0 / 16, 1.0 / 8, 1.0 / 4}

	var noComb, comb []float64
	for _, h := range hs {
		noComb = append(noComb, RunHotspot(n, rate, h, false, hotspotCycles, 3).Stats.Bandwidth())
		comb = append(comb, RunHotspot(n, rate, h, true, hotspotCycles, 3).Stats.Bandwidth())
	}
	t.Logf("h=%v  no-combining=%v  combining=%v", hs, noComb, comb)

	for i := 1; i < len(hs); i++ {
		// Allow 10% simulation noise on the monotonicity check.
		if noComb[i] > noComb[i-1]*1.1 {
			t.Errorf("no-combining bandwidth rose from %.2f to %.2f as h grew to %.3f",
				noComb[i-1], noComb[i], hs[i])
		}
	}
	if noComb[len(hs)-1] > noComb[0]/3 {
		t.Errorf("no-combining bandwidth at h=1/4 (%.2f) did not collapse vs h=0 (%.2f)",
			noComb[len(hs)-1], noComb[0])
	}
	if comb[len(hs)-1] < comb[0]/2 {
		t.Errorf("combining bandwidth at h=1/4 (%.2f) collapsed vs h=0 (%.2f)",
			comb[len(hs)-1], comb[0])
	}
}

// TestTrafficReductionAtHotspot (E11 in the network): with combining, the
// number of requests reaching the hot memory module and the total value
// slots moved must not exceed the uncombined run's.
func TestTrafficReductionAtHotspot(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	const n = 64
	noComb := RunHotspot(n, 0.6, 0.25, false, hotspotCycles, 4)
	comb := RunHotspot(n, 0.6, 0.25, true, hotspotCycles, 4)

	// Per completed operation, combining must reduce memory-side load.
	memPerOpNo := float64(noComb.Stats.MemRequests) / float64(noComb.Stats.Completed)
	memPerOpComb := float64(comb.Stats.MemRequests) / float64(comb.Stats.Completed)
	t.Logf("memory requests per completed op: no-combining %.3f, combining %.3f", memPerOpNo, memPerOpComb)
	if memPerOpComb >= memPerOpNo {
		t.Errorf("combining did not reduce memory traffic per op: %.3f vs %.3f", memPerOpComb, memPerOpNo)
	}
	if comb.Stats.Combines == 0 {
		t.Error("no combining events under a heavy hot spot")
	}
}
