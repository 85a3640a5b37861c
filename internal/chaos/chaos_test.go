package chaos

import (
	"slices"
	"strings"
	"testing"

	"combining/internal/engine"
	"combining/internal/machine"
	"combining/internal/wiring"
)

// TestChaosCleanAllWirings runs a small fixed-seed fuzz budget on every
// wiring with the repaired engines: zero violations expected, and across
// the whole budget each adversarial fault kind must actually have fired
// (the vacuous-pass guard at test scale; cmd/check -chaos applies the same
// guard over its larger budget).
func TestChaosCleanAllWirings(t *testing.T) {
	total := map[string]int64{}
	index := 0
	for _, topo := range wiring.Names() {
		for round := 0; round < 2; round++ {
			sc := NewScenario(topo, 1, index)
			index++
			counters, err := Run(sc)
			if err != nil {
				t.Errorf("%s #%d: %v\nreplay: %s", topo, index-1, err, ReproCommand(sc))
				continue
			}
			for k, v := range counters {
				total[k] += v
			}
		}
	}
	for _, key := range []string{"faults_injected", "reordered_held", "dup_injected", "corrupt_dropped"} {
		if total[key] == 0 {
			t.Errorf("vacuous pass — %s is zero across the whole budget", key)
		}
	}
}

// TestBatteryKeepsCallerTrace: the battery folds the trace into its
// certificate without taking it from the caller — a caller's cfg.Trace
// receives every event, the same list the machine traces without the
// battery.
func TestBatteryKeepsCallerTrace(t *testing.T) {
	progs := Programs(3, 16, 6, 2)
	for _, topo := range wiring.Names() {
		var got, want engine.TraceLog
		cfg := wiring.Config{Procs: 16, WaitBufCap: 4, Trace: got.Record}
		if _, _, _, err := Battery(topo, cfg, progs, maxCycles); err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		cfg.Trace = want.Record
		build, err := wiring.New(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		machine.New(progs, build).Run(maxCycles)
		if len(want.Events) == 0 || !slices.Equal(got.Events, want.Events) {
			t.Errorf("%s: the caller's sink got %d events, the bare machine traced %d", topo, len(got.Events), len(want.Events))
		}
	}
}

// TestChaosDeterminism pins that Run is a pure function of the Scenario:
// both the verdict and the counters replay exactly.
func TestChaosDeterminism(t *testing.T) {
	sc := NewScenario("omega", 7, 3)
	c1, err1 := Run(sc)
	c2, err2 := Run(sc)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("verdict differs across replays: %v vs %v", err1, err2)
	}
	for k, v := range c1 {
		if c2[k] != v {
			t.Errorf("counter %s differs across replays: %d vs %d", k, v, c2[k])
		}
	}
}

// TestChaosCanaryFoundAndShrunk is the end-to-end acceptance check for
// the fuzzer: with the seeded reply-cache bug armed (Canary "nodedup" —
// the cache records replies but never answers from them, so duplicated
// deliveries double-execute), the fuzzer must find a violation within a
// small budget, shrink it to at most two fault windows, and the shrunk
// scenario must replay the violation deterministically.  Double execution
// needs a duplicate or a retransmit, so the battery checks these runs by
// search, and the failure class printed is the search's.
func TestChaosCanaryFoundAndShrunk(t *testing.T) {
	const class = "per-location serializability violated: "
	var found *Scenario
	for index := 0; index < 12 && found == nil; index++ {
		sc := NewScenario("omega", 1, index)
		sc.Plan.Canary = "nodedup"
		if _, err := Run(sc); err != nil {
			if !strings.HasPrefix(err.Error(), class) {
				t.Fatalf("canary found as %q, want the class %q", err, class)
			}
			found = &sc
		}
	}
	if found == nil {
		t.Fatal("canary bug not found within 12 scenarios — the fuzzer cannot see double-execution")
	}
	shrunk, runs := Shrink(*found, 200)
	if w := Windows(shrunk.Plan); w > 2 {
		t.Errorf("shrunk plan keeps %d fault windows, want <= 2: %v", w, shrunk.Plan)
	}
	_, err1 := Run(shrunk)
	if err1 == nil {
		t.Fatal("shrunk scenario no longer fails — shrinker accepted a passing candidate")
	}
	_, err2 := Run(shrunk)
	if err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("shrunk scenario does not replay deterministically:\nfirst:  %v\nsecond: %v", err1, err2)
	}
	if !strings.HasPrefix(err1.Error(), class) {
		t.Errorf("shrunk scenario fails as %q, want the class %q", err1, class)
	}
	repro := ReproCommand(shrunk)
	for _, part := range []string{"-chaos", "-topology omega", "-plan '", "canary=nodedup"} {
		if !strings.Contains(repro, part) {
			t.Errorf("reproducer %q missing %q", repro, part)
		}
	}
	t.Logf("canary shrunk after %d reruns to %d window(s): %s", runs, Windows(shrunk.Plan), repro)
}

// TestChaosRejectsUnknownTopology pins the one-line config error path.
func TestChaosRejectsUnknownTopology(t *testing.T) {
	sc := NewScenario("omega", 1, 0)
	sc.Topology = "ring"
	if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "unknown topology") {
		t.Fatalf("want unknown-topology error, got %v", err)
	}
}

// TestSamplePlanCoversKinds checks the sampler actually mixes all seven
// fault kinds over a modest index range — the property the fuzzer's
// coverage rests on.
func TestSamplePlanCoversKinds(t *testing.T) {
	var drops, stalls, crashes, reorders, dups, corrupts int
	for i := 0; i < 40; i++ {
		p := NewScenario("omega", 99, i).Plan
		if p.DropFwd > 0 || p.DropRev > 0 {
			drops++
		}
		if len(p.Stalls) > 0 || len(p.MemStalls) > 0 {
			stalls++
		}
		if p.HasCrashes() {
			crashes++
		}
		if p.Reorder > 0 {
			reorders++
		}
		if p.Dup > 0 {
			dups++
		}
		if p.Corrupt > 0 {
			corrupts++
		}
		if p.HasCrashes() && p.CheckpointEvery == 0 {
			t.Errorf("plan %d has crash windows but no checkpoint cadence", i)
		}
	}
	for name, n := range map[string]int{
		"drops": drops, "stalls": stalls, "crashes": crashes,
		"reorders": reorders, "dups": dups, "corrupts": corrupts,
	} {
		if n == 0 {
			t.Errorf("sampler never produced %s across 40 plans", name)
		}
	}
}

// TestShrinkPreservesSeedAndTopology pins that the shrinker only ever
// narrows the plan and program — it must not wander to a different
// wiring, workload, or fault seed, or the reproducer would not replay the
// original bug.
func TestShrinkPreservesSeedAndTopology(t *testing.T) {
	var sc Scenario
	triggered := false
	for index := 0; index < 12 && !triggered; index++ {
		sc = NewScenario("bus", 5, index)
		sc.Plan.Canary = "nodedup"
		_, err := Run(sc)
		triggered = err != nil
	}
	if !triggered {
		t.Skip("no bus scenario triggers the canary at this seed; covered by the omega test")
	}
	shrunk, _ := Shrink(sc, 120)
	if shrunk.Topology != sc.Topology || shrunk.WorkloadSeed != sc.WorkloadSeed ||
		shrunk.Plan.Seed != sc.Plan.Seed || shrunk.Plan.Canary != sc.Plan.Canary {
		t.Fatalf("shrinker changed scenario identity: %+v -> %+v", sc, shrunk)
	}
	if shrunk.Ops > sc.Ops || Windows(shrunk.Plan) > Windows(sc.Plan) {
		t.Fatalf("shrinker grew the scenario: ops %d->%d windows %d->%d",
			sc.Ops, shrunk.Ops, Windows(sc.Plan), Windows(shrunk.Plan))
	}
}
