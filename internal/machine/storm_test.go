package machine

import (
	"testing"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/network"
	"combining/internal/wiring"
)

// TestRetransmitStormBounded runs the cube_faulted machine — the 256-node
// hypercube under a hot spot of 1/8 at rate 0.6 with a window of 4, six
// seeded crash windows of each kind and 0.5 % drops each way — for the
// benchmark's 1 000 warm-up and 3 000 timed cycles, and bounds the share of
// completions that are suppressed duplicate replies.  A retransmit timeout
// below the machine's round trip resends nearly every request (every reply
// waits in its module for the next checkpoint, and the hot spot's tail
// latency runs to thousands of cycles): over the timed window a fixed
// 64-cycle timeout reads 0.33–0.35 at seeds 1–3, the estimated one about 0.05.
func TestRetransmitStormBounded(t *testing.T) {
	const (
		nodes       = 256
		warm, timed = 1000, 3000
		maxDupShare = 0.15
	)
	for seed := uint64(1); seed <= 3; seed++ {
		plan := faults.GenCrashPlan(seed, 6, warm+timed, 40)
		plan.DropFwd, plan.DropRev = 0.005, 0.005
		inj := make([]engine.Injector, nodes)
		for p := range inj {
			inj[p] = network.NewStochastic(p, nodes, network.TrafficConfig{
				Rate: 0.6, HotFraction: 0.125, Window: 4}, seed)
		}
		eng := wired(t, "hypercube", wiring.Config{Procs: nodes, WaitBufCap: core.Unbounded, Faults: plan})(inj)
		eng.Run(warm)
		before := eng.Snapshot()
		eng.Run(timed)
		if eng.Stalled() {
			t.Fatalf("seed %d: watchdog tripped:\n%s", seed, eng.StallReport())
		}
		after := eng.Snapshot()
		delta := func(k string) int64 { return after.Counters[k] - before.Counters[k] }
		completed, dups := delta("completed"), delta("duplicates_suppressed")
		share := float64(dups) / float64(completed)
		t.Logf("seed %d: %d timed ops, %.3f retransmits per completion, %.3f duplicate share, %d dedup hits, RTO %d cycles",
			seed, completed, float64(delta("retries"))/float64(completed), share, delta("dedup_hits"),
			after.Gauges["retry_timeout_cycles"])
		if share >= maxDupShare {
			t.Errorf("seed %d: %d suppressed duplicates over %d completions = %.3f, want < %.2f: a retransmit storm",
				seed, dups, completed, share, maxDupShare)
		}
	}
}

// TestReplyCacheBounded runs the same machine for 4 000 cycles and holds
// the modules' reply caches to what the ports can have outstanding: a leaf
// leaves the cache at the first checkpoint after its processor's delivered
// floor passes it, so at every 500-cycle mark the caches hold at most four
// windows' worth of leaves per processor — executed since the last
// checkpoint, or at or above a floor an undelivered request holds down —
// however many the run has completed.  A cache that forgets nothing holds
// every executed leaf: over 33 000 at cycle 4 000.
func TestReplyCacheBounded(t *testing.T) {
	const nodes, window = 256, 4
	for seed := uint64(1); seed <= 3; seed++ {
		plan := faults.GenCrashPlan(seed, 6, 4000, 40)
		plan.DropFwd, plan.DropRev = 0.005, 0.005
		inj := make([]engine.Injector, nodes)
		for p := range inj {
			inj[p] = network.NewStochastic(p, nodes, network.TrafficConfig{
				Rate: 0.6, HotFraction: 0.125, Window: window}, seed)
		}
		eng := wired(t, "hypercube", wiring.Config{Procs: nodes, WaitBufCap: core.Unbounded, Faults: plan})(inj)
		for cycle := 500; cycle <= 4000; cycle += 500 {
			eng.Run(500)
			cached, completed := eng.Memory().CachedLeaves(), eng.Snapshot().Counters["completed"]
			if cached > 4*window*nodes {
				t.Fatalf("seed %d, cycle %d: the reply caches hold %d leaves (%d completed, %d in flight), want at most %d",
					seed, cycle, cached, completed, eng.InFlight(), 4*window*nodes)
			}
		}
	}
}
