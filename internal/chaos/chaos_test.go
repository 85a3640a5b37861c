package chaos

import (
	"flag"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"combining/internal/engine"
	"combining/internal/faults"
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

// dupsFail is a planted failure over real Run counters: a scenario "fails"
// while its network duplicated a message.  The shrinker must keep it
// failing while it drops every window and fault kind the duplicates do not
// need.
func dupsFail(t *testing.T) func(Scenario) bool {
	return func(c Scenario) bool {
		counters, err := Run(c)
		if err != nil {
			t.Fatalf("%s: %v", ReproCommand(c), err)
		}
		return counters["dup_injected"] > 0
	}
}

// TestShrinkKeepsFailure is the shrinker's acceptance check, on a failure
// planted through the unexported seam: from the first omega scenario with
// more than two fault windows whose network duplicates a message, it must
// shrink to at most two fault windows, and the shrunk scenario must still fail, replay its counters
// exactly and print a reproducer that carries the machine and the plan.
// That the fuzzer finds a real bug end to end is mutants.txt's nodedup
// entry.
func TestShrinkKeepsFailure(t *testing.T) {
	fails := dupsFail(t)
	var found *Scenario
	for index := 0; index < 12 && found == nil; index++ {
		if sc := NewScenario("omega", 1, index); Windows(sc.Plan) > 2 && fails(sc) {
			found = &sc
		}
	}
	if found == nil {
		t.Fatal("no omega scenario of 12 has more than two windows and duplicates a message")
	}
	shrunk, runs := shrink(*found, 200, fails)
	if w := Windows(shrunk.Plan); w > 2 {
		t.Errorf("shrunk plan keeps %d fault windows, want <= 2: %v", w, shrunk.Plan)
	}
	if !fails(shrunk) {
		t.Fatal("shrunk scenario no longer fails — shrinker accepted a passing candidate")
	}
	c1, _ := Run(shrunk)
	c2, _ := Run(shrunk)
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("shrunk scenario does not replay deterministically:\nfirst:  %v\nsecond: %v", c1, c2)
	}
	repro := ReproCommand(shrunk)
	for _, part := range []string{"-chaos", "-machine omega,procs=8,wait=64 ", "-plan '", "dup="} {
		if !strings.Contains(repro, part) {
			t.Errorf("reproducer %q missing %q", repro, part)
		}
	}
	t.Logf("shrunk after %d reruns to %d window(s): %s", runs, Windows(shrunk.Plan), repro)
}

// TestReproCommandReplays: a reproducer's one-liner carries the whole
// scenario, the machine's shape included.  Parsed back the way cmd/replay
// parses it, it rebuilds an equal Scenario, and Run on that gives the same
// verdict and counters — for one drawn scenario per wiring and for a
// machine with small queues, small wait buffers and reversal.
func TestReproCommandReplays(t *testing.T) {
	var scs []Scenario
	for i, name := range wiring.Names() {
		scs = append(scs, NewScenario(name, 1, i))
	}
	shaped := NewScenario("omega", 1, 0)
	shaped.Config.QueueCap, shaped.Config.WaitBufCap, shaped.Config.AllowReversal = 2, 4, true
	scs = append(scs, shaped)
	for _, sc := range scs {
		repro := ReproCommand(sc)
		args, ok := strings.CutPrefix(repro, "go run ./cmd/replay ")
		if !ok {
			t.Fatalf("reproducer %q does not run cmd/replay", repro)
		}
		var back Scenario
		fs := flag.NewFlagSet("replay", flag.ContinueOnError)
		fs.Bool("chaos", false, "")
		machineSpec := fs.String("machine", "", "")
		fs.IntVar(&back.Ops, "ops", 0, "")
		fs.IntVar(&back.Addrs, "addrs", 0, "")
		fs.Uint64Var(&back.WorkloadSeed, "seed", 0, "")
		planSpec := fs.String("plan", "", "")
		if err := fs.Parse(strings.Fields(args)); err != nil || fs.NArg() != 0 {
			t.Fatalf("reproducer %q does not parse as replay flags: %v", repro, err)
		}
		var err error
		if back.Wiring, back.Config, err = wiring.ParseMachine(*machineSpec); err != nil {
			t.Fatalf("reproducer %q: %v", repro, err)
		}
		if back.Plan, err = faults.ParsePlan(strings.Trim(*planSpec, "'")); err != nil {
			t.Fatalf("reproducer %q: %v", repro, err)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Errorf("reproducer %q rebuilds\n%+v\nnot\n%+v", repro, back, sc)
			continue
		}
		c1, err1 := Run(sc)
		c2, err2 := Run(back)
		if fmt.Sprint(err1) != fmt.Sprint(err2) || !maps.Equal(c1, c2) {
			t.Errorf("reproducer %q replays differently: %v, %v vs %v, %v", repro, err1, c1, err2, c2)
		}
	}
	if want := "-machine omega,procs=8,queue=2,wait=4,reversal "; !strings.Contains(ReproCommand(shaped), want) {
		t.Errorf("reproducer %q does not carry %q", ReproCommand(shaped), want)
	}
}

// TestChaosRejectsUnknownTopology pins the one-line config error path.
func TestChaosRejectsUnknownTopology(t *testing.T) {
	sc := NewScenario("omega", 1, 0)
	sc.Wiring = "ring"
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
	fails := dupsFail(t)
	var sc Scenario
	triggered := false
	for index := 0; index < 12 && !triggered; index++ {
		sc = NewScenario("bus", 5, index)
		triggered = fails(sc)
	}
	if !triggered {
		t.Fatal("no bus scenario of 12 duplicates a message")
	}
	shrunk, _ := shrink(sc, 120, fails)
	if shrunk.Wiring != sc.Wiring || !reflect.DeepEqual(shrunk.Config, sc.Config) || shrunk.WorkloadSeed != sc.WorkloadSeed ||
		shrunk.Plan.Seed != sc.Plan.Seed {
		t.Fatalf("shrinker changed scenario identity: %+v -> %+v", sc, shrunk)
	}
	if shrunk.Ops > sc.Ops || Windows(shrunk.Plan) > Windows(sc.Plan) {
		t.Fatalf("shrinker grew the scenario: ops %d->%d windows %d->%d",
			sc.Ops, shrunk.Ops, Windows(sc.Plan), Windows(shrunk.Plan))
	}
}
