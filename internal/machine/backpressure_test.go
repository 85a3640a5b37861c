package machine

import (
	"sort"
	"testing"

	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/rmw"
	"combining/internal/wiring"
	"combining/internal/word"
)

// Deadlock-freedom soaks: every queue in every engine bounded at its
// minimum capacity, a 64-processor hot spot driven through it, clean and
// under the PR 2 fault plans.  The runs must complete with zero progress-
// watchdog trips, reverse/memory high-water marks within the reserved-
// credit bounds, and replies matching core.SerialReplies (fetch-and-add
// replies are the serial prefix sums, so the sorted reply multiset must
// be exactly 0..N·R−1 and the final cell N·R).

const hotCell = word.Addr(0)

// hotPrograms builds nprocs programs of reqs fetch-and-add(1)s on one
// cell — the pure hot-spot workload of Pfister & Norton.
func hotPrograms(nprocs, reqs int) [][]Instr {
	progs := make([][]Instr, nprocs)
	for p := range progs {
		for i := 0; i < reqs; i++ {
			progs[p] = append(progs[p], RMW(hotCell, rmw.FetchAdd(1)))
		}
	}
	return progs
}

// runBackpressureSoak drives the hot-spot programs and checks completion,
// serial-reply correctness, zero watchdog trips, and the gauge bounds.
func runBackpressureSoak(t *testing.T, name string, nprocs, reqs, maxCycles int,
	build func([]engine.Injector) engine.Machine, gaugeBounds map[string]int64) {
	t.Helper()
	progs := hotPrograms(nprocs, reqs)
	m := New(progs, build)
	eng := m.Engine()
	if !m.Run(maxCycles) {
		if eng.Stalled() {
			t.Fatalf("%s: watchdog tripped:\n%s", name, eng.StallReport())
		}
		t.Fatalf("%s: did not complete in %d cycles (%d in flight)", name, maxCycles, eng.InFlight())
	}

	total := nprocs * reqs
	ops := make([]rmw.Mapping, total)
	for i := range ops {
		ops[i] = rmw.FetchAdd(1)
	}
	serialReplies, final := serialGroundTruth(ops)
	if got := eng.Memory().Peek(hotCell); got != final {
		t.Fatalf("%s: final cell %d, serial ground truth %d", name, got.Val, final.Val)
	}
	var all []int64
	for p := 0; p < nprocs; p++ {
		for i := 0; i < reqs; i++ {
			all = append(all, m.Proc(p).Reply(i).Val)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != serialReplies[i].Val {
			t.Fatalf("%s: sorted reply %d = %d, serial ground truth %d", name, i, v, serialReplies[i].Val)
		}
	}

	snap := eng.Snapshot()
	if trips := snap.Counters["watchdog_trips"]; trips != 0 {
		t.Fatalf("%s: %d watchdog trips on a run that completed", name, trips)
	}
	for gauge, bound := range gaugeBounds {
		got, ok := snap.Gauges[gauge]
		if !ok {
			t.Fatalf("%s: snapshot missing gauge %q", name, gauge)
		}
		if got > bound {
			t.Fatalf("%s: gauge %s = %d exceeds bound %d", name, gauge, got, bound)
		}
	}
}

func serialGroundTruth(ops []rmw.Mapping) ([]word.Word, word.Word) {
	replies := make([]word.Word, len(ops))
	cur := word.W(0)
	for i, op := range ops {
		replies[i] = cur
		cur = op.Apply(cur)
	}
	return replies, cur
}

// Minimal-capacity configs: every queue at capacity 1, a small bounded
// wait buffer so reserved credits are actually exercised.  The reverse
// bound is RevQueueCap + WaitBufCap (each extra decombined leaf consumes
// a wait record — see DESIGN.md).
const soakWaitCap = 4

// soak is the minimal-capacity configuration: 64 processors, the bus with
// 8 banks.
func soak(plan *faults.Plan, workers int) wiring.Config {
	return wiring.Config{Procs: 64, Banks: 8, QueueCap: 1, RevQueueCap: 1, MemQueueCap: 1,
		WaitBufCap: soakWaitCap, Faults: plan, Workers: workers}
}

func TestBackpressureSoakNetwork(t *testing.T) {
	bounds := map[string]int64{
		"max_rev_queue": 1 + soakWaitCap,
		"max_mem_queue": 1,
	}
	runBackpressureSoak(t, "network/clean", 64, 16, 400000, wired(t, "omega", soak(nil, 0)), bounds)
	runBackpressureSoak(t, "network/faults", 64, 8, 2000000, wired(t, "omega", soak(faults.Default(11), 0)), bounds)
}

func TestBackpressureSoakHypercube(t *testing.T) {
	bounds := map[string]int64{
		"max_rev_queue": 1 + soakWaitCap,
		"max_mem_queue": 1,
	}
	runBackpressureSoak(t, "hypercube/clean", 64, 16, 400000, wired(t, "hypercube", soak(nil, 0)), bounds)
	runBackpressureSoak(t, "hypercube/faults", 64, 8, 2000000, wired(t, "hypercube", soak(faults.Default(12), 0)), bounds)
}

func TestBackpressureSoakBusnet(t *testing.T) {
	bounds := map[string]int64{
		"max_mem_queue": 1,
	}
	runBackpressureSoak(t, "busnet/clean", 64, 16, 400000, wired(t, "bus", soak(nil, 0)), bounds)
	runBackpressureSoak(t, "busnet/faults", 64, 8, 2000000, wired(t, "bus", soak(faults.Default(13), 0)), bounds)
}

// wedgedEngine is a transport whose watchdog trips after a fixed number
// of steps — a stand-in for a livelocked network (a real clean engine is
// deadlock-free by construction and cannot be wedged from outside).  The
// embedded nil engine.Machine fills out the method set Run never touches.
type wedgedEngine struct {
	engine.Machine
	steps, tripAt int
}

func (w *wedgedEngine) Step()         { w.steps++ }
func (w *wedgedEngine) InFlight() int { return 1 }
func (w *wedgedEngine) Stalled() bool { return w.steps >= w.tripAt }

// TestRunFailsFastOnStall: Machine.Run on a watchdog-equipped engine
// returns as soon as the watchdog declares a stall instead of burning
// the remaining cycle budget on a wedged transport.
func TestRunFailsFastOnStall(t *testing.T) {
	progs := hotPrograms(1, 1)
	eng := &wedgedEngine{tripAt: 500}
	m := New(progs, func([]engine.Injector) engine.Machine { return eng })
	const budget = 1000000
	if m.Run(budget) {
		t.Fatal("Run reported completion on a wedged engine")
	}
	if eng.steps >= budget {
		t.Fatalf("Run burned the whole %d-cycle budget instead of failing fast", budget)
	}
	if eng.steps != 500 {
		t.Fatalf("Run stopped after %d steps, want 500 (the trip point)", eng.steps)
	}
}
