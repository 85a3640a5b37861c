package machine

import (
	"testing"

	"combining/internal/faults"
	"combining/internal/serial"
	"combining/internal/wiring"
	"combining/internal/word"
)

// Crash–restart soaks: whole components die mid-run — a switch flushes its
// queues and wait buffers, a memory module rolls back to its last
// checkpoint, a link drops every message for a burst — and the existing
// retransmit/reply-cache machinery must re-drive everything that was lost.
// The acceptance bar is the same as for message-loss faults: exactly-once
// completion, per-location serializability (Theorem 4.2), and byte-identical
// runs at every Workers width.

// crashDropPlan combines the PR-2 message-loss plan with the crash
// windows — components die while messages are also being lost, the
// hardest recovery regime the soaks run.
func crashDropPlan(seed uint64) *faults.Plan {
	p := faults.Default(seed)
	c := faults.DefaultCrash(seed)
	p.Crashes, p.MemCrashes, p.LinkCrashes = c.Crashes, c.MemCrashes, c.LinkCrashes
	p.CheckpointEvery = c.CheckpointEvery
	return p
}

// runCrashSoak drives hot-spot programs on the named wiring, 8 processors
// (the bus with 4 banks), under a crash plan and checks exactly-once
// completion, M2 serializability, and that the crash machinery actually
// engaged (crashes, restores, checkpoints all nonzero — a plan whose
// windows never hit is a vacuous pass).
func runCrashSoak(t *testing.T, name string, seed uint64) {
	t.Helper()
	progs := faultPrograms(8, 16)
	m := New(progs, wired(t, name, wiring.Config{Procs: 8, Banks: 4, WaitBufCap: 64, Faults: crashDropPlan(seed)}))
	eng := m.Engine()
	if !m.Run(400000) {
		t.Fatalf("%s seed %d: programs did not complete (in flight %d)", name, seed, eng.InFlight())
	}
	final := map[word.Addr]word.Word{}
	for a := word.Addr(0); a < 32; a++ {
		final[a] = eng.Memory().Peek(a)
	}
	if err := serial.CheckM2WithFinal(m.History(), nil, final); err != nil {
		t.Fatalf("%s seed %d: M2 violated under crashes: %v", name, seed, err)
	}
	snap := eng.Snapshot()
	if snap.Counters["issued"] != snap.Counters["completed"] {
		t.Fatalf("%s seed %d: issued %d != completed %d", name, seed,
			snap.Counters["issued"], snap.Counters["completed"])
	}
	if got := eng.InFlight(); got != 0 {
		t.Fatalf("%s seed %d: %d requests never delivered", name, seed, got)
	}
	for _, key := range []string{"crashes", "restores", "checkpoints", "crash_cycles"} {
		if snap.Counters[key] == 0 {
			t.Errorf("%s seed %d: counter %s is zero — crash machinery never engaged\n%v",
				name, seed, key, snap.Counters)
		}
	}
	if snap.Counters["replayed_requests"] != snap.Counters["lost_in_flight"] {
		t.Errorf("%s seed %d: %d operations lost in flight but %d replayed — recovery incomplete",
			name, seed, snap.Counters["lost_in_flight"], snap.Counters["replayed_requests"])
	}
}

func TestUnderCrashPlan(t *testing.T) {
	eachWiring(t, 8, func(t *testing.T, name string, _ uint64) {
		for _, seed := range []uint64{1, 2, 3, 7} {
			runCrashSoak(t, name, seed)
		}
	})
}

// Cross-worker determinism under crash plans: the 64-processor hot-spot
// workload at Workers = 1/2/3/4/GOMAXPROCS must stay byte-identical while
// components crash and restart, with the Workers=1 run checked against the
// core.SerialReplies ground truth (the exactly-once acceptance bar).
func TestCrashDeterminism(t *testing.T) {
	eachWiring(t, 64, func(t *testing.T, name string, seed uint64) {
		runDeterminismCheck(t, name+"/crash", 64, 4, 2000000, byName(t, name, crashDropPlan(50+seed)))
	})
}

// Seed parity: a generated crash schedule is a pure function of its seed,
// so the same GenCrashPlan arguments must replay the identical execution —
// same counters, same history — on every wiring.  This is the replay
// guarantee `cmd/replay -crashseed` leans on.
func TestCrashSeedParityAcrossWirings(t *testing.T) {
	wirings := []struct {
		name  string
		procs int
	}{
		{"omega", 8}, {"omega4", 16}, {"fattree", 8}, {"bus", 8}, {"hypercube", 8}, {"torus", 8},
	}
	const seed = 99
	for _, w := range wirings {
		run := func() (map[string]int64, []serial.Op) {
			plan := faults.GenCrashPlan(seed, 2, 2000, 80)
			plan.DropFwd, plan.DropRev = 0.01, 0.01
			progs := faultPrograms(w.procs, 12)
			m := New(progs, wired(t, w.name, wiring.Config{Procs: w.procs, WaitBufCap: 64, Faults: plan}))
			eng := m.Engine()
			if !m.Run(400000) {
				t.Fatalf("%s: programs did not complete (in flight %d)", w.name, eng.InFlight())
			}
			return eng.Snapshot().Counters, m.History().Ops()
		}
		c1, h1 := run()
		c2, h2 := run()
		for k, v := range c1 {
			if c2[k] != v {
				t.Errorf("%s: counter %s differs across replays of the same crash seed: %d vs %d",
					w.name, k, v, c2[k])
			}
		}
		if len(h1) != len(h2) {
			t.Fatalf("%s: history length differs: %d vs %d", w.name, len(h1), len(h2))
		}
		for i := range h1 {
			if h1[i] != h2[i] {
				t.Fatalf("%s: op %d differs across replays: %+v vs %+v", w.name, i, h1[i], h2[i])
			}
		}
	}
}
