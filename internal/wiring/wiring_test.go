package wiring

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"combining/internal/core"
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
			build, err := New(name, Config{Procs: procs, WaitBufCap: 64})
			if err != nil {
				t.Fatal(err)
			}
			m := machine.New(progs, build)
			eng := m.Engine()
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

// TestBuilderIsReusable: the function New returns holds no per-machine
// state, so one result builds any number of machines.  On every wiring, under
// crashes and drops, two machines built by one builder over identical fresh
// programs and run one after the other must leave the same snapshot and
// memory, byte for byte.
func TestBuilderIsReusable(t *testing.T) {
	const procs, ops = 16, 8
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			plan := faults.GenCrashPlan(5, 3, 300, 40)
			plan.DropFwd, plan.DropRev = 0.01, 0.01
			build, err := New(name, Config{Procs: procs, WaitBufCap: 4, Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			digest := func() []byte {
				progs := make([][]machine.Instr, procs)
				for p := range progs {
					for i := 0; i < ops; i++ {
						progs[p] = append(progs[p], machine.RMW(word.Addr(i%3), rmw.FetchAdd(int64(p+1))))
					}
				}
				m := machine.New(progs, build)
				if !m.Run(200000) {
					t.Fatalf("run did not complete (%d in flight)", m.Engine().InFlight())
				}
				return fmt.Appendf(m.Engine().Snapshot().JSON(), "|%v|%v|%v",
					m.Memory().Peek(0), m.Memory().Peek(1), m.Memory().Peek(2))
			}
			if first, second := digest(), digest(); string(first) != string(second) {
				t.Errorf("a second machine from the same builder differs:\n%s\nagainst\n%s", first, second)
			}
		})
	}
}

// TestTraceReachesEveryWiring: Config.Trace turns the shell's event trace on
// for every registered wiring.  The trace is the same at Workers 1 and 3;
// every delivered id belongs to a combine group (ids joined by Combined
// events) that some module Served; and tracing is unobservable in the
// result: the snapshot and memory digest is the same with the sink as
// without it.
func TestTraceReachesEveryWiring(t *testing.T) {
	const procs, ops = 16, 8
	run := func(name string, workers int, trace func(engine.Event)) string {
		progs := make([][]machine.Instr, procs)
		for p := range progs {
			for i := 0; i < ops; i++ {
				progs[p] = append(progs[p], machine.RMW(word.Addr(i%2), rmw.FetchAdd(int64(p+1))))
			}
		}
		build, err := New(name, Config{Procs: procs, WaitBufCap: 64, Workers: workers, Trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		m := machine.New(progs, build)
		eng := m.Engine()
		if !m.Run(100000) {
			t.Fatalf("run did not complete (%d in flight)", eng.InFlight())
		}
		h := fnv.New64a()
		h.Write(eng.Snapshot().JSON())
		fmt.Fprintf(h, "|%v|%v", eng.Memory().Peek(0), eng.Memory().Peek(1))
		return fmt.Sprintf("%016x", h.Sum64())
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			var log, log3 engine.TraceLog
			traced := run(name, 1, log.Record)
			run(name, 3, log3.Record)
			if len(log.Events) != len(log3.Events) {
				t.Fatalf("%d events at Workers 1, %d at Workers 3", len(log.Events), len(log3.Events))
			}
			for i, e := range log.Events {
				if e != log3.Events[i] {
					t.Fatalf("event %d: %v at Workers 1, %v at Workers 3", i, e, log3.Events[i])
				}
			}

			group := map[word.ReqID]word.ReqID{}
			root := func(id word.ReqID) word.ReqID {
				for up, ok := group[id]; ok; up, ok = group[id] {
					id = up
				}
				return id
			}
			served := map[word.ReqID]bool{}
			var delivered []word.ReqID
			for _, e := range log.Events {
				switch e.Kind {
				case engine.Combined:
					if a, b := root(e.ID), root(e.ID2); a != b {
						group[b] = a
					}
				case engine.Served:
					served[e.ID] = true
				case engine.Delivered:
					delivered = append(delivered, e.ID)
				}
			}
			if len(delivered) != procs*ops {
				t.Fatalf("trace delivered %d ids, want %d", len(delivered), procs*ops)
			}
			groupServed := map[word.ReqID]bool{}
			for id := range served {
				groupServed[root(id)] = true
			}
			for _, id := range delivered {
				if !groupServed[root(id)] {
					t.Fatalf("delivered id %d: no module served it or any id combined with it", id)
				}
			}
			if plain := run(name, 1, nil); traced != plain {
				t.Errorf("digest %s with tracing, %s without", traced, plain)
			}
		})
	}
}

// TestValidateErrors pins the two one-line rejections a command prints: a
// processor count the wiring cannot have, and a name not in the registry —
// the latter listing the names that are.
func TestValidateErrors(t *testing.T) {
	if _, err := New("omega4", Config{Procs: 8}); err == nil || strings.Contains(err.Error(), "\n") {
		t.Errorf("omega4 at 8 processors: want a one-line error, got %v", err)
	}
	build, err := New("ring", Config{Procs: 16})
	if err == nil || strings.Contains(err.Error(), "\n") {
		t.Fatalf("unknown name: want a one-line error, got %v", err)
	}
	for _, want := range append(Names(), `unknown topology "ring"`) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-name error %q does not mention %q", err, want)
		}
	}
	if build != nil {
		t.Error("New returned a builder for an unregistered wiring")
	}
}

// TestStallReportNamesWiring: a stall report leads with the wiring's name,
// not the engine's, so the torus and the cube (one engine, one
// Snapshot.Engine) tell apart.
func TestStallReportNamesWiring(t *testing.T) {
	for _, name := range Names() {
		build, err := New(name, Config{Procs: 16})
		if err != nil {
			t.Fatal(err)
		}
		eng := build(make([]engine.Injector, 16))
		want := name + ":"
		if name == "omega4" {
			want = "omega:" // the radix-4 omega network is an omega wiring
		}
		if rep := eng.StallReport(); !strings.HasPrefix(rep, want) {
			t.Errorf("%s: the stall report begins %q, want %q", name, rep[:min(len(rep), 20)], want)
		}
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
// (core.WaitBuffer.PopMatch).  The recount holds the occupancy words too:
// at 16 processors a stage fits in one word, so omega and the cube also run
// at 256, under crashes, at Workers 1, 2 and 3, where one word holds
// stations that different workers hop (omega) or tick (the cube).  Those
// rows' wait buffers hold four records, so no refused head parks
// (engine/park.go); the parking rows — omega and the cube at 64
// processors, one-slot queues, wait buffers of capacity 0 and unbounded,
// healthy and under crashes with drops, at Workers 1, 2 and 3 — must park,
// and the recount then also holds the parked heads, the waiter masks and
// the wakes to each other.
func TestLoadsMatchQueues(t *testing.T) {
	const cycles = 400
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
	plans = append(plans, struct {
		name    string
		plan    func() *faults.Plan
		engaged []string
	}{"crash+drop", func() *faults.Plan {
		p := faults.GenCrashPlan(5, 3, 300, 40)
		p.DropFwd, p.DropRev = 0.01, 0.01
		return p
	}, []string{"crashes", "restores", "drops_fwd"}})
	type row struct {
		name, label       string
		procs, w          int
		plan              int
		queueCap, waitCap int
	}
	var rows []row
	for _, name := range Names() {
		for i, pl := range plans[:5] {
			for _, w := range []int{1, 3} {
				rows = append(rows, row{name, fmt.Sprintf("%s/%s/w%d", name, pl.name, w), 16, w, i, 0, 4})
			}
		}
	}
	for _, name := range []string{"omega", "hypercube"} {
		for _, w := range []int{1, 2, 3} {
			rows = append(rows, row{name, fmt.Sprintf("%s/n256/crash/w%d", name, w), 256, w, 2, 0, 4})
		}
		for _, wait := range []int{0, core.Unbounded} {
			for _, i := range []int{0, 5} {
				for _, w := range []int{1, 2, 3} {
					rows = append(rows, row{name, fmt.Sprintf("%s/parked/wait%d/%s/w%d", name, wait, plans[i].name, w), 64, w, i, 1, wait})
				}
			}
		}
	}
	for _, r := range rows {
		name, procs, w, pl := r.name, r.procs, r.w, plans[r.plan]
		t.Run(r.label, func(t *testing.T) {
			inj := make([]engine.Injector, procs)
			for p := range inj {
				inj[p] = &budgeted{network.NewStochastic(p, procs,
					network.TrafficConfig{Rate: 0.9, HotFraction: 0.25, Window: 4}, 11), 1 << 30}
			}
			build, err := New(name, Config{Procs: procs, QueueCap: r.queueCap, WaitBufCap: r.waitCap, Workers: w, Faults: pl.plan()})
			if err != nil {
				t.Fatal(err)
			}
			eng := build(inj)
			for c := 0; c < cycles; c++ {
				eng.Step()
				if err := eng.CheckLoads(); err != nil {
					t.Fatal(err)
				}
			}
			counters, combined := eng.Snapshot().Counters, "combines"
			if r.waitCap == 0 {
				combined = "combine_rejects"
			}
			for _, key := range append(pl.engaged, "completed", combined) {
				if counters[key] == 0 {
					t.Errorf("%s = 0 after %d cycles: the run never exercised it", key, cycles)
				}
			}
			if parks := eng.Totals().Parks; (parks != 0) != (r.waitCap != 4) {
				t.Errorf("%d refused heads parked after %d cycles with a wait buffer of %d", parks, cycles, r.waitCap)
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
					t.Errorf("station %d still marks %+v on a drained machine", at, l)
				}
			}
		})
	}
}

// counted counts its injector's Next calls and, when strip is set, clears
// UntilReply from every answer, so that the shell asks it every cycle as it
// did before a port could sleep.
type counted struct {
	engine.Injector
	strip bool
	calls *int
}

func (c counted) Next(cycle int64) (engine.Injection, bool) {
	*c.calls++
	in, ok := c.Injector.Next(cycle)
	if c.strip {
		in.UntilReply = false
	}
	return in, ok
}

// TestSleepingPortsUnobservable: a port that sleeps until a reply — its
// injector at its window or behind a fence or a data dependency
// (Injection.UntilReply), or its pending request held back by the retry
// tracker — must change nothing but the number of Next calls.  On every
// wiring, healthy and under crashes with drops, with stochastic hot-spot
// traffic and with programs of fences and dependencies, the snapshot and
// the event trace must be the same bytes as a run whose injectors never
// say UntilReply, and the sleeping run must ask its injectors less often.
func TestSleepingPortsUnobservable(t *testing.T) {
	const procs, cycles = 16, 600
	plans := []struct {
		name string
		plan func() *faults.Plan
	}{
		{"healthy", func() *faults.Plan { return nil }},
		{"crash+drop", func() *faults.Plan {
			p := faults.GenCrashPlan(5, 3, cycles, 40)
			p.DropFwd, p.DropRev = 0.01, 0.01
			return p
		}},
	}
	traffic := map[string]func(build func([]engine.Injector) engine.Machine) engine.Machine{
		"stochastic": func(build func([]engine.Injector) engine.Machine) engine.Machine {
			inj := make([]engine.Injector, procs)
			for p := range inj {
				inj[p] = network.NewStochastic(p, procs, network.TrafficConfig{Rate: 0.9, HotFraction: 0.25, Window: 4}, 11)
			}
			return build(inj)
		},
		"programs": func(build func([]engine.Injector) engine.Machine) engine.Machine {
			progs := make([][]machine.Instr, procs)
			for p := range progs {
				for i := 0; i < 12; i++ {
					progs[p] = append(progs[p], machine.RMW(word.Addr(i%3), rmw.FetchAdd(1)),
						machine.Instr{Addr: word.Addr(p), Op: rmw.FetchAdd(1), After: []int{len(progs[p])}},
						machine.Fence())
				}
			}
			return machine.New(progs, build).Engine()
		},
	}
	for _, name := range Names() {
		for _, pl := range plans {
			for _, kind := range []string{"stochastic", "programs"} {
				t.Run(name+"/"+pl.name+"/"+kind, func(t *testing.T) {
					run := func(strip bool) (snap string, trace []engine.Event, calls int) {
						cfg := Config{Procs: procs, WaitBufCap: 4, Faults: pl.plan(),
							Trace: func(e engine.Event) { trace = append(trace, e) }}
						build, err := New(name, cfg)
						if err != nil {
							t.Fatal(err)
						}
						eng := traffic[kind](func(inj []engine.Injector) engine.Machine {
							for p := range inj {
								inj[p] = counted{inj[p], strip, &calls}
							}
							return build(inj)
						})
						eng.Run(cycles)
						return string(eng.Snapshot().JSON()), trace, calls
					}
					snap, trace, calls := run(false)
					awake, awakeTrace, awakeCalls := run(true)
					if snap != awake {
						t.Fatalf("sleeping ports moved the snapshot:\n%s\nagainst\n%s", snap, awake)
					}
					if len(trace) != len(awakeTrace) {
						t.Fatalf("sleeping ports moved the trace: %d events against %d", len(trace), len(awakeTrace))
					}
					for i := range trace {
						if trace[i] != awakeTrace[i] {
							t.Fatalf("event %d: %+v with sleeping ports, %+v without", i, trace[i], awakeTrace[i])
						}
					}
					if calls >= awakeCalls {
						t.Errorf("sleeping ports asked their injectors %d times, awake ones %d", calls, awakeCalls)
					}
				})
			}
		}
	}
}

// TestParkingUnobservable: a station with an Intercept hook keeps no
// refusal memo and parks nothing (engine/park.go), so every refusal takes
// the full path, as before either existed.  On every wiring, with wait
// buffers of fixed room (capacity 0, where refusals reject, and unbounded),
// one-slot queues and a saturating hot spot, healthy and under crashes
// with drops — where a bus transfer lost on the link stops the walk short
// of parked ports (Shell.InjectPorts) — the snapshot must read the same
// with a no-op hook as without one at every hundredth cycle, while the
// run without it parks heads or ports and keeps its index whole.
func TestParkingUnobservable(t *testing.T) {
	const procs, cycles = 16, 600
	crashDrop := func() *faults.Plan {
		p := faults.GenCrashPlan(5, 3, 300, 40)
		p.DropFwd, p.DropRev = 0.02, 0.01
		return p
	}
	for _, name := range Names() {
		for _, wait := range []int{0, core.Unbounded} {
			for _, plan := range []func() *faults.Plan{func() *faults.Plan { return nil }, crashDrop} {
				t.Run(fmt.Sprintf("%s/wait%d/faulted=%v", name, wait, plan() != nil), func(t *testing.T) {
					build, err := New(name, Config{Procs: procs, QueueCap: 1, WaitBufCap: wait, Faults: plan()})
					if err != nil {
						t.Fatal(err)
					}
					var engs [2]engine.Machine
					for i := range engs {
						inj := make([]engine.Injector, procs)
						for p := range inj {
							inj[p] = network.NewStochastic(p, procs, network.TrafficConfig{Rate: 0.9, HotFraction: 0.5, Window: 4}, 13)
						}
						engs[i] = build(inj)
					}
					engs[1].(interface{ Stations() *engine.Stations }).Stations().Intercept =
						func(*engine.Stations, int, int, engine.FwdEntry, engine.Path, uint32, *engine.Lane) bool {
							return false
						}
					for c := 1; c <= cycles; c++ {
						engs[0].Step()
						engs[1].Step()
						if err := engs[0].CheckLoads(); err != nil {
							t.Fatal(err)
						}
						if c%100 != 0 {
							continue
						}
						if a, b := engs[0].Snapshot().JSON(), engs[1].Snapshot().JSON(); string(a) != string(b) {
							t.Fatalf("cycle %d: parking moved the snapshot:\n%s\nagainst\n%s", c, a, b)
						}
					}
					if engs[0].Totals().Parks == 0 || engs[1].Totals().Parks != 0 {
						t.Errorf("%d parks with the memo, %d without: want some, then none", engs[0].Totals().Parks, engs[1].Totals().Parks)
					}
				})
			}
		}
	}
}
