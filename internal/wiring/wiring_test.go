package wiring

import (
	"fmt"
	"strings"
	"testing"

	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/machine"
	"combining/internal/network"
	"combining/internal/rmw"
	"combining/internal/word"
)

// TestEveryNameBuildsAndRuns: each registered wiring builds at 16
// processors and carries a pure hot spot to completion, combining on the way.
func TestEveryNameBuildsAndRuns(t *testing.T) {
	const procs, ops = 16, 8
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			progs := make([][]machine.Instr, procs)
			for p := range progs {
				for i := 0; i < ops; i++ {
					progs[p] = append(progs[p], machine.RMW(word.Addr(0), rmw.FetchAdd(1)))
				}
			}
			m, inj := machine.NewInjectors(progs)
			eng, err := New(name, Config{Procs: procs, WaitBufCap: 64}, inj)
			if err != nil {
				t.Fatal(err)
			}
			m.BindEngine(eng)
			if !m.Run(100000) {
				t.Fatalf("hot-spot run did not complete (%d in flight)", eng.InFlight())
			}
			if got := eng.Memory().Peek(0).Val; got != procs*ops {
				t.Errorf("final counter %d, want %d", got, procs*ops)
			}
			if eng.Snapshot().Counters["combines"] == 0 {
				t.Error("a 16-processor hot spot never combined")
			}
		})
	}
}

// TestValidateErrors pins the two one-line rejections a command prints: a
// processor count the wiring cannot have, and a name not in the registry —
// the latter listing the names that are.
func TestValidateErrors(t *testing.T) {
	if err := Validate("omega4", Config{Procs: 8}); err == nil || strings.Contains(err.Error(), "\n") {
		t.Errorf("omega4 at 8 processors: want a one-line error, got %v", err)
	}
	err := Validate("ring", Config{Procs: 16})
	if err == nil || strings.Contains(err.Error(), "\n") {
		t.Fatalf("unknown name: want a one-line error, got %v", err)
	}
	for _, want := range append(Names(), `unknown topology "ring"`) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-name error %q does not mention %q", err, want)
		}
	}
	if _, err := New("ring", Config{Procs: 16}, nil); err == nil {
		t.Error("New built an unregistered wiring")
	}
}

// budgeted caps an injector's issues so a drain can finish.
type budgeted struct {
	engine.Injector
	left int
}

func (b *budgeted) Next(cycle int64) (engine.Injection, bool) {
	if b.left == 0 {
		return engine.Injection{}, false
	}
	in, ok := b.Injector.Next(cycle)
	if ok {
		b.left--
	}
	return in, ok
}

// TestLoadsMatchQueues holds the occupancy index (engine.Shell.Loads and the
// per-module counts beside it) to the queues it stands for: on every wiring,
// healthy, under drops, under station, module and link crashes with their
// flushes, restarts and output commit, under a reordering, duplicating link,
// and under switch stalls and module slowdowns, serially and at Workers 3, a
// recount after every cycle of a hot-spot run must agree with the index
// (Shell.CheckLoads: a module counts its queue and its released replies) —
// the hops skip a station or a module on the index alone, so an entry one
// short hides a message for good.  The same recount holds the message store
// closed: every live body is named by one queue entry, wait record or
// metadata entry, so a hop that drops a handle without freeing its body, or
// frees one still named, fails it.  Every machine must then drain to an
// index of zeros, the healthy one to an empty store; under a fault plan the
// bodies left are exactly those of the wait records and metadata a lost
// message left stale, which the machine keeps by design
// (core.WaitBuffer.PopMatch).
func TestLoadsMatchQueues(t *testing.T) {
	const procs, cycles = 16, 400
	plans := []struct {
		name    string
		plan    func() *faults.Plan
		engaged []string
	}{
		{"healthy", func() *faults.Plan { return nil }, nil},
		{"drop", func() *faults.Plan { return &faults.Plan{Seed: 3, DropFwd: 0.02, DropRev: 0.02} }, []string{"drops_fwd", "drops_rev"}},
		{"crash", func() *faults.Plan { return faults.GenCrashPlan(5, 3, 300, 40) }, []string{"crashes", "restores", "lost_in_flight"}},
		{"reorder+dup", func() *faults.Plan { return &faults.Plan{Seed: 7, Reorder: 0.05, ReorderMax: 8, Dup: 0.05} },
			[]string{"reordered_held", "dup_injected"}},
		{"slowdown", func() *faults.Plan {
			return &faults.Plan{Seed: 9,
				Stalls:    []faults.Window{{Stage: -1, Index: 0, From: 50, To: 90}},
				MemStalls: []faults.Window{{Stage: -1, Index: -1, From: 100, To: 160}, {Stage: -1, Index: 1, From: 200, To: 260}},
			}
		}, []string{"stall_cycles", "mem_stall_cycles"}},
	}
	for _, name := range Names() {
		for _, pl := range plans {
			for _, w := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%s/w%d", name, pl.name, w), func(t *testing.T) {
					inj := make([]engine.Injector, procs)
					for p := range inj {
						inj[p] = &budgeted{network.NewStochastic(p, procs,
							network.TrafficConfig{Rate: 0.9, HotFraction: 0.25, Window: 4}, 11), 1 << 30}
					}
					eng, err := New(name, Config{Procs: procs, WaitBufCap: 4, Workers: w, Faults: pl.plan()}, inj)
					if err != nil {
						t.Fatal(err)
					}
					for c := 0; c < cycles; c++ {
						eng.Step()
						if err := eng.CheckLoads(); err != nil {
							t.Fatal(err)
						}
					}
					counters := eng.Snapshot().Counters
					for _, key := range append(pl.engaged, "completed", "combines") {
						if counters[key] == 0 {
							t.Errorf("%s = 0 after %d cycles: the run never exercised it", key, cycles)
						}
					}
					for p := range inj {
						inj[p].(*budgeted).left = 0
					}
					if !eng.Drain(10000) {
						t.Fatalf("did not drain:\n%s", eng.StallReport())
					}
					// Under a fault plan the ledger drains first: a
					// superseded copy may still be on its way.
					eng.Run(3000)
					if err := eng.CheckLoads(); err != nil {
						t.Fatal(err)
					}
					if bodies := eng.(interface{ Bodies() int }).Bodies(); pl.plan() == nil && bodies != 0 {
						t.Errorf("%d bodies live on a drained machine", bodies)
					}
					for at, l := range eng.(interface{ Loads() []engine.Load }).Loads() {
						if l != (engine.Load{}) {
							t.Errorf("station %d still counts %+v on a drained machine", at, l)
						}
					}
				})
			}
		}
	}
}
