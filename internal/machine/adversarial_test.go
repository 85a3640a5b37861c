package machine

import (
	"testing"

	"combining/internal/faults"
	"combining/internal/serial"
	"combining/internal/wiring"
	"combining/internal/word"
)

// Adversarial-delivery soaks: on top of the PR-2 message-loss plan, the
// terminal links reorder deliveries (bounded deferral), re-emit messages
// the sender never retransmitted, and flip payload bits.  The end-to-end
// integrity layer (per-message checksum stamped in the trusted zone,
// verified at the consumer boundary) plus the retransmit/reply-cache
// machinery must still give exactly-once completion and per-location
// serializability — DESIGN.md §8.

// advWirings enumerates the six wirings every adversarial check runs on.
// The 16-processor wiring runs shorter programs: the M2 checker's search
// grows steeply with ops per hot address, and the extra processors
// already double the draws each fault kind gets.
var advWirings = []struct {
	name   string // the subtest
	wiring string
	procs  int
	ops    int
}{
	{"omega2", "omega", 8, 12},
	{"omega4", "omega4", 16, 8},
	{"fattree", "fattree", 8, 12},
	{"busnet", "bus", 8, 12},
	{"hypercube", "hypercube", 8, 12},
	{"torus", "torus", 8, 12},
}

// runAdversarialSoak drives hot-spot programs on one wiring under the
// default adversarial plan and checks exactly-once completion plus M2; it
// returns the snapshot counters so the caller can aggregate the
// vacuous-pass guard across seeds (a short run may legitimately draw zero
// of one kind at one seed).
func runAdversarialSoak(t *testing.T, name, wiringName string, procs, ops int, seed uint64) map[string]int64 {
	t.Helper()
	plan := faults.DefaultAdversarial(seed)
	progs := faultPrograms(procs, ops)
	m := New(progs, wired(t, wiringName, wiring.Config{Procs: procs, WaitBufCap: 64, Faults: plan}))
	eng := m.Engine()
	if !m.Run(400000) {
		t.Fatalf("%s seed %d: programs did not complete (in flight %d)", name, seed, eng.InFlight())
	}
	final := map[word.Addr]word.Word{}
	for a := word.Addr(0); a < 32; a++ {
		final[a] = eng.Memory().Peek(a)
	}
	if err := serial.CheckM2WithFinal(m.History(), nil, final); err != nil {
		t.Fatalf("%s seed %d: M2 violated under adversarial delivery: %v", name, seed, err)
	}
	snap := eng.Snapshot()
	if snap.Counters["issued"] != snap.Counters["completed"] {
		t.Fatalf("%s seed %d: issued %d != completed %d", name, seed,
			snap.Counters["issued"], snap.Counters["completed"])
	}
	if got := eng.InFlight(); got != 0 {
		t.Fatalf("%s seed %d: %d requests never delivered", name, seed, got)
	}
	return snap.Counters
}

// TestAdversarialPlanAllWirings soaks all six wirings under the default
// adversarial plan at several seeds, with a vacuous-pass guard per
// wiring: summed over the seeds, every adversarial fault kind must have
// actually fired.
func TestAdversarialPlanAllWirings(t *testing.T) {
	for _, w := range advWirings {
		t.Run(w.name, func(t *testing.T) {
			total := map[string]int64{}
			for _, seed := range []uint64{1, 3, 9} {
				for k, v := range runAdversarialSoak(t, w.name, w.wiring, w.procs, w.ops, seed) {
					total[k] += v
				}
			}
			for _, key := range []string{"reordered_held", "dup_injected", "corrupt_dropped"} {
				if total[key] == 0 {
					t.Errorf("%s: vacuous pass — %s is zero across all seeds\n%v",
						w.name, key, total)
				}
			}
		})
	}
}

// TestAdversarialDeterminism checks that an adversarial run replays
// exactly: same seed, same injected faults, same delivered history.
func TestAdversarialDeterminism(t *testing.T) {
	run := func() (counters map[string]int64, hist *serial.History) {
		plan := faults.DefaultAdversarial(42)
		progs := faultPrograms(8, 10)
		m := New(progs, wired(t, "omega", wiring.Config{Procs: 8, WaitBufCap: 64, Faults: plan}))
		if !m.Run(200000) {
			t.Fatal("programs did not complete")
		}
		return m.Engine().Snapshot().Counters, m.History()
	}
	c1, h1 := run()
	c2, h2 := run()
	for k, v := range c1 {
		if c2[k] != v {
			t.Fatalf("counter %s differs across replays: %d vs %d", k, v, c2[k])
		}
	}
	ops1, ops2 := h1.Ops(), h2.Ops()
	if len(ops1) != len(ops2) {
		t.Fatalf("history length differs: %d vs %d", len(ops1), len(ops2))
	}
	for i := range ops1 {
		if ops1[i] != ops2[i] {
			t.Fatalf("op %d differs across replays: %+v vs %+v", i, ops1[i], ops2[i])
		}
	}
}

// TestNetworkDupSuppression is the reply-cache hardening table test: a
// plan that injects only network-born duplicates (no drops, so Attempt
// numbers always collide at 0) must complete exactly-once on every
// engine, with the duplicate machinery visibly engaged — the second copy
// of a request is answered from the reply cache and its reply either
// orphans (no metadata) or is suppressed at delivery.
func TestNetworkDupSuppression(t *testing.T) {
	for _, w := range advWirings {
		t.Run(w.name, func(t *testing.T) {
			plan := &faults.Plan{Seed: 7, Dup: 0.05, RetryTimeout: 512}
			progs := faultPrograms(w.procs, w.ops)
			m := New(progs, wired(t, w.wiring, wiring.Config{Procs: w.procs, WaitBufCap: 64, Faults: plan}))
			eng := m.Engine()
			if !m.Run(400000) {
				t.Fatalf("programs did not complete (in flight %d)", eng.InFlight())
			}
			final := map[word.Addr]word.Word{}
			for a := word.Addr(0); a < 32; a++ {
				final[a] = eng.Memory().Peek(a)
			}
			if err := serial.CheckM2WithFinal(m.History(), nil, final); err != nil {
				t.Fatalf("M2 violated under duplication: %v", err)
			}
			snap := eng.Snapshot()
			if snap.Counters["dup_injected"] == 0 {
				t.Fatalf("vacuous pass — no duplicates injected\n%v", snap.Counters)
			}
			if snap.Counters["issued"] != snap.Counters["completed"] {
				t.Fatalf("issued %d != completed %d under duplication",
					snap.Counters["issued"], snap.Counters["completed"])
			}
			// Every injected duplicate is accounted for: answered from the
			// reply cache (dedup_hits), orphaned at the metadata shard, or
			// suppressed at delivery (duplicates_suppressed).
			accounted := snap.Counters["dedup_hits"] + snap.Counters["orphan_replies"] +
				snap.Counters["duplicates_suppressed"]
			if accounted == 0 {
				t.Errorf("duplicates injected (%d) but none accounted for\n%v",
					snap.Counters["dup_injected"], snap.Counters)
			}
		})
	}
}
