package network

// Regression tests for the duplicate-delivery aliasing bug: the dup
// branches once shallow-copied messages, so the original and the duplicate
// shared the reply's leaf list (and, while path headers were pooled byte
// slices, the header's backing array — it is a value now, engine.Path, and
// cannot be shared).  The rim's duplicate is a core.Reply.Clone.

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/rmw"
	"combining/internal/word"
)

// TestReplyCloneIndependence: a duplicated reply (processor-side dup
// branch of the rim's terminal link) must own its leaf list outright.
func TestReplyCloneIndependence(t *testing.T) {
	r := core.Reply{
		ID:     7,
		Val:    word.W(42),
		Leaves: &[]core.LeafVal{{ID: 7, Val: word.W(42)}, {ID: 9, Val: word.W(43)}},
	}
	c := r.Clone()
	if c.Leaves == r.Leaves || &(*c.Leaves)[0] == &(*r.Leaves)[0] {
		t.Fatalf("Clone shares the leaf list")
	}
	(*c.Leaves)[0].Val = word.W(99)
	if v, _ := r.Leaf(7); v != word.W(42) {
		t.Errorf("mutating the clone's leaf list changed the original: %v", *r.Leaves)
	}
	if c.ID != r.ID || c.Val != r.Val || len(*c.Leaves) != len(*r.Leaves) {
		t.Errorf("Clone dropped fields: %+v vs %+v", c, r)
	}
}

// TestRequestCloneIndependence: a duplicated request (memory-side dup
// branch) must own its Srcs and Reps slices; the request here is combined
// under bookkeeping, so it carries both.
func TestRequestCloneIndependence(t *testing.T) {
	r, _, ok := core.Combine(core.NewRequest(3, 17, rmw.FetchAdd(1), 2), core.NewRequest(4, 17, rmw.FetchAdd(1), 6),
		core.Policy{AllowReversal: true, Bookkeeping: true})
	if !ok || len(r.Srcs()) != 2 || len(r.Reps()) != 2 {
		t.Fatalf("setup: combined %v, sources %v, leaves %v", ok, r.Srcs(), r.Reps())
	}
	c := r.Clone()
	if &c.Srcs()[0] == &r.Srcs()[0] {
		t.Fatalf("Clone shares the Srcs backing array")
	}
	if &c.Reps()[0] == &r.Reps()[0] {
		t.Fatalf("Clone shares the Reps backing array")
	}
	c.Srcs()[0] = 5
	c.Reps()[0].Src = 5
	if r.Srcs()[0] != 2 || r.Reps()[0].Src != 2 {
		t.Errorf("mutating the clone changed the original: %v %v", r.Srcs(), r.Reps())
	}
}

// TestDupDeliveryDrains is the end-to-end regression: under a
// duplication-heavy plan every request issued is answered exactly once —
// the duplicates, which own their route and their leaf list, are suppressed at
// the port and decombine nothing twice — and the machine drains.
func TestDupDeliveryDrains(t *testing.T) {
	const n, budget = 16, 200
	inj := make([]Injector, n)
	for p := range inj {
		inj[p] = &stopAfter{
			Stochastic: NewStochastic(p, n, TrafficConfig{
				Rate: 0.8, HotFraction: 0.5, Window: 4,
			}, 11),
			remaining: budget,
		}
	}
	plan := &faults.Plan{Seed: 5, Dup: 0.25}
	sim := NewSim(Config{Procs: n, Faults: plan}, inj)
	if !sim.Drain(50000) {
		t.Fatalf("drain did not reach quiescence")
	}
	if got := sim.Stats().Completed; got != n*budget {
		t.Fatalf("%d completions for %d requests under the dup plan", got, n*budget)
	}
	if sim.Snapshot().Counters["dup_injected"] == 0 {
		t.Fatalf("the dup plan never duplicated a message")
	}
}

// stopAfter bounds a Stochastic injector to a fixed request budget, so a
// Drain can reach quiescence (the raw injector offers traffic forever).
type stopAfter struct {
	*Stochastic
	remaining int
}

func (z *stopAfter) Next(cycle int64) (Injection, bool) {
	if z.remaining <= 0 {
		return Injection{}, false
	}
	inj, ok := z.Stochastic.Next(cycle)
	if ok {
		z.remaining--
	}
	return inj, ok
}

// TestDeliveryCommitOverlap pins the claim in phaseWorker that a worker's
// delivery commit may overlap the later phases of the others under a fault
// plan: at width 8 and at GOMAXPROCS, under a lossy plan and a crash plan,
// the race detector sees the overlap on every cycle and the snapshot still
// matches the serial stepper byte for byte.
func TestDeliveryCommitOverlap(t *testing.T) {
	widths := []int{8, runtime.GOMAXPROCS(0)}
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{
		{"faulted", faults.Default(33)},
		{"crash", faults.DefaultCrash(33)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := snapshotAfter(1, tc.plan, 2500)
			for _, w := range widths {
				if got := snapshotAfter(w, tc.plan, 2500); !bytes.Equal(got, want) {
					t.Errorf("Workers=%d snapshot differs from serial under %s plan:\nserial: %s\nparallel: %s",
						w, tc.name, want, got)
				}
			}
		})
	}
}

// TestOwnPortsOverlap: every worker commits its own lane and injects its
// own processors while the others still hop — clean, under crash+drop and
// adversarial plans, and traced — and body handles come from the lanes or,
// under the store's lock, from the store.  At width 8 and at GOMAXPROCS, on
// omega and on the fat-tree (whose processors sit on their own lines, not
// the shuffled ones), the race detector sees the overlap on every cycle and
// the snapshot (and the trace) still match the serial stepper's.
func TestOwnPortsOverlap(t *testing.T) {
	crashDrop := faults.DefaultCrash(34)
	crashDrop.DropFwd, crashDrop.DropRev = 0.005, 0.005
	cases := []struct {
		name   string
		plan   *faults.Plan
		traced bool
		cycles int
	}{
		{"clean", nil, false, 800},
		{"crashdrop", crashDrop, false, 1000}, // past the last crash window, 900–940
		{"adversarial", faults.DefaultAdversarial(35), false, 800},
		{"traced", nil, true, 400},
	}
	run := func(workers int, topo engine.Staged, plan *faults.Plan, traced bool, cycles int) ([]byte, []engine.Event) {
		const n = 64
		inj := make([]Injector, n)
		for p := range inj {
			inj[p] = NewStochastic(p, n, TrafficConfig{Rate: 0.7, HotFraction: 0.4, Window: 4}, 99)
		}
		cfg := Config{Procs: n, Topology: topo, Workers: workers, Faults: plan}
		log := &engine.TraceLog{}
		if traced {
			cfg.Trace = log.Record
		}
		sim := NewSim(cfg, inj)
		sim.Run(cycles)
		if err := sim.CheckLoads(); err != nil {
			t.Fatal(err)
		}
		return sim.Snapshot().JSON(), log.Events
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, topo := range []engine.Staged{engine.OmegaOf(64, 2), engine.FatTreeOf(64, 2)} {
				want, wantEvents := run(1, topo, tc.plan, tc.traced, tc.cycles)
				if tc.traced && len(wantEvents) == 0 {
					t.Fatalf("%s: the traced run recorded no events", topo.Name())
				}
				for _, w := range []int{8, runtime.GOMAXPROCS(0)} {
					got, events := run(w, topo, tc.plan, tc.traced, tc.cycles)
					if !bytes.Equal(got, want) {
						t.Errorf("%s, Workers=%d snapshot differs from serial:\nserial: %s\nparallel: %s", topo.Name(), w, want, got)
					}
					if !slices.Equal(events, wantEvents) {
						t.Errorf("%s, Workers=%d: %d trace events, serial %d, or in another order", topo.Name(), w, len(events), len(wantEvents))
					}
				}
			}
		})
	}
}

// fixedInjector drives the zero-allocation audit: window-4 fetch-and-add
// traffic to a per-processor private address, so no two requests ever
// combine (combining boxes the composed mapping, a semantic allocation the
// audit must exclude).  The operation and the one-source lineage are
// cached, as in the production Stochastic injector.
type fixedInjector struct {
	ids         *word.IDGen
	nprocs      int
	addr        word.Addr
	op          rmw.Mapping
	lin         *core.Lineage
	outstanding int
	// hotEvery > 0 sends every hotEvery-th request to the shared address
	// nprocs instead (module 0's second cell): a hot spot.
	hotEvery, issued int
}

func newFixedInjector(proc, nprocs int) *fixedInjector {
	return &fixedInjector{
		ids:    word.Partition(proc, nprocs),
		nprocs: nprocs,
		addr:   word.Addr(proc),
		op:     rmw.FetchAdd(1),
		lin:    core.SourceOf(word.ProcID(proc)),
	}
}

func (f *fixedInjector) Next(cycle int64) (Injection, bool) {
	if f.outstanding >= 4 {
		return Injection{}, false
	}
	f.outstanding++
	f.issued++
	id := f.ids.NextPartitioned(f.nprocs)
	addr := f.addr
	if f.hotEvery > 0 && f.issued%f.hotEvery == 0 {
		addr = word.Addr(f.nprocs)
	}
	return Injection{Req: core.Request{ID: id, Addr: addr, Op: f.op, Lin: f.lin}}, true
}

func (f *fixedInjector) Deliver(core.Reply, int64) { f.outstanding-- }

// TestParallelStepZeroAlloc: after warmup — queues and delivery buffers at
// capacity — a clean parallel cycle allocates nothing.
func TestParallelStepZeroAlloc(t *testing.T) {
	const n = 16
	inj := make([]Injector, n)
	for p := range inj {
		inj[p] = newFixedInjector(p, n)
	}
	sim := NewSim(Config{Procs: n, Workers: 4}, inj)
	// Bare Step() below bypasses Run's pool bracket; keep the workers
	// persistent so the measurement covers channel dispatch, not spawns.
	sim.pool.Start()
	defer sim.pool.Stop()
	sim.Run(512)
	if allocs := testing.AllocsPerRun(200, func() { sim.Step() }); allocs != 0 {
		t.Errorf("steady-state parallel step: %.1f allocs/op, want 0", allocs)
	}
}

// TestSerialStepZeroAlloc: the serial stepper's steady state is
// allocation-free too — the value-typed pending slots are shared with the
// parallel path.
func TestSerialStepZeroAlloc(t *testing.T) {
	const n = 16
	inj := make([]Injector, n)
	for p := range inj {
		inj[p] = newFixedInjector(p, n)
	}
	sim := NewSim(Config{Procs: n}, inj)
	sim.Run(512)
	if allocs := testing.AllocsPerRun(200, func() { sim.Step() }); allocs != 0 {
		t.Errorf("steady-state serial step: %.1f allocs/op, want 0", allocs)
	}
}

// TestSaturatedStepZeroAlloc: a hot spot with combining off — every arrival
// at a queue holding the hot address finds a combinable partner and is
// refused by the zero-capacity wait buffer, and held requests repeat the
// scan every cycle — allocates nothing either: rmw.Combinable is a
// predicate, and the refused combine builds no mapping.
func TestSaturatedStepZeroAlloc(t *testing.T) {
	const n = 16
	inj := make([]Injector, n)
	for p := range inj {
		f := newFixedInjector(p, n)
		f.hotEvery = 8
		inj[p] = f
	}
	sim := NewSim(Config{Procs: n, WaitBufCap: 0}, inj)
	sim.Run(2048)
	if sim.Stats().Rejects == 0 {
		t.Fatalf("no combine was refused in %d cycles — the hot spot never met itself in a queue", sim.Cycle())
	}
	if allocs := testing.AllocsPerRun(200, func() { sim.Step() }); allocs != 0 {
		t.Errorf("steady-state saturated step: %.1f allocs/op, want 0", allocs)
	}
}

// TestCombiningStepAllocs: with combining on, a hot spot's steady state
// allocates at most once per combine, serially and at width 3.  The one
// allocation left is the composed mapping rmw.Compose boxes; the wait
// records, the combined request (no lineage without reversal or
// bookkeeping), the module cells and the metadata boxes reuse storage.
func TestCombiningStepAllocs(t *testing.T) {
	const n, runs = 16, 200
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			inj := make([]Injector, n)
			for p := range inj {
				f := newFixedInjector(p, n)
				f.hotEvery = 8
				inj[p] = f
			}
			sim := NewSim(Config{Procs: n, Workers: workers, WaitBufCap: core.Unbounded}, inj)
			sim.pool.Start()
			defer sim.pool.Stop()
			sim.Run(2048)
			before := sim.Stats().Combines
			allocs := testing.AllocsPerRun(runs, func() { sim.Step() })
			// AllocsPerRun steps once more, unmeasured, before its runs.
			combines := float64(sim.Stats().Combines-before) / (runs + 1)
			if combines == 0 {
				t.Fatalf("no request combined in %d cycles — the hot spot never met itself in a queue", runs+1)
			}
			t.Logf("%.2f allocs/op, %.2f combines/op", allocs, combines)
			if allocs > combines {
				t.Errorf("steady-state combining step: %.2f allocs/op for %.2f combines/op, want at most one per combine", allocs, combines)
			}
		})
	}
}

// TestFaultedStepAllocs: with a fault plan armed — no drops, no crashes,
// so the exactly-once path runs on every operation but nothing is lost —
// the hot spot's steady state allocates nothing per uncombined operation
// and at most four times per combine, serially and at width 3: the composed
// mapping rmw.Compose boxes, the combined message's lineage (its
// representation list: one allocation for two leaves, two beyond) and the
// exact reply's leaf list (likewise, one list per combined message, so at
// most one per combine when it has two leaves and two per combine beyond).
// An uncombined request carries no lineage of its own and its reply carries
// its one leaf's value inline.  Mallocs are counted over many cycles, since
// AllocsPerRun truncates to an integer.
func TestFaultedStepAllocs(t *testing.T) {
	const n, cycles, perCombine = 16, 4000, 4
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			inj := make([]Injector, n)
			for p := range inj {
				f := newFixedInjector(p, n)
				f.hotEvery = 8
				inj[p] = f
			}
			sim := NewSim(Config{Procs: n, Workers: workers, WaitBufCap: core.Unbounded, Faults: &faults.Plan{Seed: 1}}, inj)
			sim.pool.Start()
			defer sim.pool.Stop()
			sim.Run(2048)
			before := sim.Stats().Totals
			allocs := countMallocs(func() {
				for range cycles {
					sim.Step()
				}
			})
			after := sim.Stats().Totals
			combines, ops := after.Combines-before.Combines, after.Completed-before.Completed
			if combines == 0 || ops == 0 {
				t.Fatalf("%d combines, %d operations in %d cycles — the hot spot never met itself in a queue", combines, ops, cycles)
			}
			t.Logf("%.3f allocs/cycle, %.3f ops/cycle, %.3f combines/cycle: %.3f allocs per combine",
				float64(allocs)/cycles, float64(ops)/cycles, float64(combines)/cycles, float64(allocs)/float64(combines))
			if allocs > perCombine*uint64(combines) {
				t.Errorf("faulted step: %d allocs over %d cycles for %d combines and %d operations, want at most %d per combine and none per operation",
					allocs, cycles, combines, ops, perCombine)
			}
		})
	}
}

// countMallocs returns the heap allocations f makes, read from the
// runtime's cumulative count.
func countMallocs(f func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	f()
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}
