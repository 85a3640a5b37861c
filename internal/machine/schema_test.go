package machine

import (
	"reflect"
	"sort"
	"testing"

	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/wiring"
)

// Snapshot-schema parity: every engine must publish exactly the canonical
// counter key set — engine.CounterKeys() on a clean run, plus
// faults.CounterKeys() under a fault plan — so tooling that reads one
// engine's snapshot reads them all.  This is the regression test for the
// schema drift hand-rolled snapshot builders had accumulated: the key sets
// are compared across engines, not just against the constant, so a key
// added to one engine without the core helper fails loudly.

func counterKeys(t *testing.T, name string, counters map[string]int64) []string {
	t.Helper()
	if len(counters) == 0 {
		t.Fatalf("%s: snapshot has no counters", name)
	}
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runSchemaEngine drives the named wiring through a short hot-spot workload
// and returns its sorted snapshot counter keys.  Delivery accounting is
// written once in the rim, so on every cycle engine each completion is
// counted as exactly one of hot or cold — checked here with the requests
// tagged, so the hot half is not vacuously zero.
func runSchemaEngine(t *testing.T, name string, plan *faults.Plan) []string {
	t.Helper()
	const nprocs, reqs = 16, 4
	progs := hotPrograms(nprocs, reqs)
	build := wired(t, name, wiring.Config{Procs: nprocs, Faults: plan})
	m := New(progs, func(inj []engine.Injector) engine.Machine {
		for p := range inj {
			inj[p] = hotTagged{inj[p]}
		}
		return build(inj)
	})
	eng := m.Engine()
	if !m.Run(2000000) {
		t.Fatalf("%s: did not complete (%d in flight)", name, eng.InFlight())
	}
	snap := eng.Snapshot()
	// The retry tracker's timeout is a gauge of every faulted snapshot and
	// of no clean one.
	if _, ok := snap.Gauges["retry_timeout_cycles"]; ok != (plan != nil) {
		t.Errorf("%s: retry_timeout_cycles gauge present = %v under plan %v", name, ok, plan != nil)
	}
	c := snap.Counters
	if c["hot_completed"]+c["cold_completed"] != c["completed"] || c["hot_completed"] == 0 {
		t.Errorf("%s: hot_completed %d + cold_completed %d, completed %d",
			name, c["hot_completed"], c["cold_completed"], c["completed"])
	}
	return counterKeys(t, name, c)
}

func TestSnapshotSchemaParity(t *testing.T) {
	// Four plan regimes: clean (engine keys only), message faults,
	// crash–restart plans, and adversarial delivery (reorder, duplication,
	// corruption).  Every faulted regime must publish the same canonical
	// key set — the crash counters (crashes, restores, checkpoints,
	// lost_in_flight, replayed_requests, crash_cycles) and the adversarial
	// counters (reordered_held, dup_injected, corrupt_dropped) are part of
	// faults.CounterKeys(), present as structural zeros on engines or
	// plans that never exercise them.
	for _, mode := range []string{"clean", "faults", "crash", "adversarial"} {
		want := engine.CounterKeys()
		if mode != "clean" {
			want = append(want, faults.CounterKeys()...)
			sort.Strings(want)
		}

		var netPlan, cubePlan, busPlan *faults.Plan
		switch mode {
		case "faults":
			netPlan, cubePlan, busPlan = faults.Default(41), faults.Default(42), faults.Default(43)
		case "crash":
			netPlan, cubePlan, busPlan = crashDropPlan(41), crashDropPlan(42), crashDropPlan(43)
		case "adversarial":
			netPlan, cubePlan, busPlan = faults.DefaultAdversarial(41), faults.DefaultAdversarial(42), faults.DefaultAdversarial(43)
		}

		got := map[string][]string{
			"omega":     runSchemaEngine(t, "omega", netPlan),
			"hypercube": runSchemaEngine(t, "hypercube", cubePlan),
			"bus":       runSchemaEngine(t, "bus", busPlan),
		}

		for name, keys := range got {
			if !reflect.DeepEqual(keys, want) {
				t.Errorf("mode=%s: %s counter keys diverge from canonical schema:\ngot:  %v\nwant: %v",
					mode, name, keys, want)
			}
		}
	}
}
