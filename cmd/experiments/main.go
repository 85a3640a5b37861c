// Command experiments regenerates every experiment in EXPERIMENTS.md in
// one run: the Section 5 tables, the correctness demonstrations, the
// Section 6 counts, and the performance sweeps.  Each section states what
// the paper predicts and what this implementation measures.
package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"

	combining "combining"
	"combining/internal/engine"
	"combining/internal/machine"
)

var quick = flag.Bool("quick", false, "shorter simulation runs")

func section(id, title string) {
	fmt.Printf("\n===== %s — %s =====\n", id, title)
}

func main() {
	flag.Parse()
	if *bench {
		runBench()
		return
	}
	cycles := 4000
	if *quick {
		cycles = 1500
	}

	tablesT1T3()
	e1RMWImplementations()
	e2Collier()
	e4Theorem42()
	e5FullEmpty()
	e7Prefix()
	e8e9Hotspot(cycles)
	e10SimultaneousFAA()
	e11Traffic(cycles)
	e12Arithmetic()
	a1PartialCombining(cycles)
	a2Variants(cycles)
	a6Model(cycles)
	fmt.Println("\nall experiments completed")
}

func tablesT1T3() {
	section("T1–T3", "Section 5 composition tables")
	fmt.Println("regenerated and verified by `go run ./cmd/tables` (exact match)")
	// Verify silently here too.
	h, _ := combining.Compose(combining.Load{}, combining.StoreOf(1))
	if c, ok := h.(combining.Const); !ok || !c.NeedOld {
		panic("T1 violated: load∘store must be a swap")
	}
	if got := combining.ComposeBoolUnary(combining.BComp, combining.BComp); got != combining.BLoad {
		panic("T3 violated: comp∘comp must be load")
	}
	fmt.Println("spot checks: load∘store = swap ✓, comp∘comp = load ✓")
}

func e1RMWImplementations() {
	section("E1", "memory-side vs processor-side RMW (Section 2)")
	const n, perProc = 16, 20
	memSide := make([][]combining.Instr, n)
	procSide := make([][]combining.Instr, n)
	for p := 0; p < n; p++ {
		for i := 0; i < perProc; i++ {
			memSide[p] = append(memSide[p], combining.RMW(3, combining.FetchAdd(1)))
			loadIdx := len(procSide[p])
			procSide[p] = append(procSide[p],
				combining.RMW(3, combining.Load{}),
				combining.Instr{
					Addr: 3,
					DynOp: func(rep []combining.Word) combining.Mapping {
						return combining.StoreOf(rep[loadIdx].Val + 1)
					},
					After: []int{loadIdx},
				})
		}
	}
	run := func(progs [][]combining.Instr) (engine.Totals, int64) {
		m := combining.NewMachine(progs, wired("omega", combining.WiringConfig{Procs: n, WaitBufCap: combining.Unbounded}))
		m.Run(1000000)
		return m.Engine().Totals(), m.Memory().Peek(3).Val
	}
	st1, v1 := run(memSide)
	st2, v2 := run(procSide)
	fmt.Printf("paper: memory-side exchanges 2 messages/op and stays atomic;\n")
	fmt.Printf("       processor-side exchanges 4 and loses atomicity without a bus lock.\n")
	fmt.Printf("measured: memory-side    %4d messages, %5d cycles, counter %d/%d\n",
		st1.Issued, st1.Cycles, v1, n*perProc)
	fmt.Printf("          processor-side %4d messages, %5d cycles, counter %d/%d (lost updates)\n",
		st2.Issued, st2.Cycles, v2, n*perProc)
}

func e2Collier() {
	section("E2/E3", "Collier's example and the load-forwarding bug (Sections 3.2, 5.1)")
	fmt.Println("machine-level demonstrations live in the test suite:")
	fmt.Println("  TestCollierExample          — M2-only pipelining admits a=1,b=0 (not SC)")
	fmt.Println("  TestCollierWithFences       — the RP3 fence restores SC")
	fmt.Println("  TestLoadForwardingIncorrect — the early-reply optimization yields b=2 ∧ A=1")
	fmt.Println("  TestBuggyForwardingDetected — the Theorem 4.2 checker catches it stochastically")
}

func e4Theorem42() {
	section("E4", "Theorem 4.2 — combining executions are per-location serializable")
	// One randomized machine run with full combining, checked here.
	const n = 16
	progs := make([][]combining.Instr, n)
	for p := 0; p < n; p++ {
		for i := 0; i < 12; i++ {
			progs[p] = append(progs[p], combining.RMW(combining.Addr(i%3), combining.FetchAdd(int64(p+1))))
		}
	}
	m := combining.NewMachine(progs,
		wired("omega", combining.WiringConfig{Procs: n, WaitBufCap: combining.Unbounded, AllowReversal: true}))
	m.Run(100000)
	final := map[combining.Addr]combining.Word{}
	for a := combining.Addr(0); a < 3; a++ {
		final[a] = m.Memory().Peek(a)
	}
	if err := combining.CheckM2WithFinal(m.History(), nil, final); err != nil {
		panic(err)
	}
	fmt.Printf("checked %d operations across 3 hot cells: witness serialization found ✓\n",
		m.History().Len())
	fmt.Println("(the test suite repeats this across engines, seeds, families, and wait-buffer sizes)")
}

func e5FullEmpty() {
	section("E5/E6", "full/empty bits and data-level synchronization (Sections 5.5, 5.6)")
	chain := []combining.Mapping{
		combining.FEStoreIfClearSet(1),
		combining.FELoadClear(),
		combining.FEStoreSet(2),
		combining.StoreOf(3),
		combining.FEStoreIfClearClear(4),
	}
	h, _ := combining.ComposeAll(chain...)
	t := h.(combining.Table)
	fmt.Printf("a 5-deep mixed full/empty combine carries %d store value(s); paper bound: |S| = 2\n",
		len(t.StoreValues()))
	// The paper's worst case: store-if-clear meets store-if-set — both
	// values must be forwarded, in either order.
	h2, _ := combining.ComposeAll(
		combining.FEStoreIfClear(7),
		combining.FEStoreIfSet(8),
	)
	fmt.Printf("store-if-clear combined with store-if-set carries %d store values (the tight case)\n",
		len(h2.(combining.Table).StoreValues()))
	g, err := combining.CompilePath("(open (read | write)* close)*")
	if err != nil {
		panic(err)
	}
	fmt.Printf("path expression \"(open (read|write)* close)*\" → %d-state automaton (≤ %d store values when combined)\n",
		g.States(), g.States())
}

func e7Prefix() {
	section("E7", "parallel prefix: the combining tree the machine builds (Section 6)")
	burst := func(w string, n int) machine.TreeCount {
		progs := make([][]combining.Instr, n)
		for p := range progs {
			progs[p] = []combining.Instr{combining.RMW(0, combining.FetchAdd(1))}
		}
		var log combining.NetTraceLog
		cfg := combining.WiringConfig{Procs: n, WaitBufCap: combining.Unbounded, Trace: log.Record}
		if _, _, _, err := combining.CheckBattery(w, cfg, progs, 10_000); err != nil {
			panic(err)
		}
		return machine.CountTree(log.Events)
	}
	fmt.Println("one synchronized burst of n FetchAdd(1) to one zeroed cell on omega, unbounded wait buffers, battery-checked")
	fmt.Println("    n | compositions 2n−2 | accesses | trivial lg n | nontrivial 2n−2−lg n | cycles 2 lg n−2 | root combine, decombine | combines by stage")
	for _, n := range []int{4, 16, 64, 256, 1024} {
		c := burst("omega", n)
		total := c.CombineTotal() + c.Decombines
		fmt.Printf(" %4d | %-17s | %8d | %-12s | %-20s | %-15s | c%-3d c%-17d | %s\n", n,
			fmt.Sprintf("%6d = %d", total, 2*n-2), c.Served,
			fmt.Sprintf("%4d = %d", c.Trivial, 2*n-2-machine.PaperNontrivial(n)),
			fmt.Sprintf("%8d = %d", total-c.Trivial, machine.PaperNontrivial(n)),
			fmt.Sprintf("%4d = %d+2", len(c.Cycles), machine.PaperCycles(n)),
			c.RootCombine, c.RootDecombine, strings.Trim(fmt.Sprint(c.Combines), "[]"))
	}
	fmt.Println("the 2 extra cycles are two named events: the root combine (stage lg n−1, cycle lg n), whose total")
	fmt.Println("§6's schedule never waits on, and the root decombine (cycle lg n+2), the identity multiplication §6 skips")
	fmt.Println("\nthe same burst on the other wirings (omega4, fattree: one n-leaf tree; the rest: forests, not asserted)")
	fmt.Println(" wiring       n | combines | decombines | accesses | on served paths | composition cycles")
	for _, w := range []struct {
		name string
		ns   []int
	}{{"omega4", []int{16, 64, 256}}, {"fattree", []int{16, 64, 256}},
		{"hypercube", []int{256}}, {"torus", []int{256}}, {"bus", []int{256}}} {
		for _, n := range w.ns {
			c := burst(w.name, n)
			fmt.Printf(" %-9s %4d | %8d | %10d | %8d | %15d | %d\n",
				w.name, n, c.CombineTotal(), c.Decombines, c.Served, c.Trivial, len(c.Cycles))
		}
	}
}

func e8e9Hotspot(cycles int) {
	section("E8", "hot-spot bandwidth collapse and recovery (Pfister–Norton)")
	fmt.Println("   N     h    | limit  | no-combining | combining")
	for _, n := range []int{16, 64, 256} {
		for _, h := range []float64{0, 0.0625, 0.125, 0.25} {
			no := combining.RunHotspot(n, 0.6, h, false, cycles, 1)
			yes := combining.RunHotspot(n, 0.6, h, true, cycles, 1)
			fmt.Printf(" %4d  %6.4f | %6.2f | %9.2f    | %8.2f   ops/cycle\n",
				n, h, combining.AsymptoticHotBandwidth(n, h),
				no.Stats.Bandwidth(), yes.Stats.Bandwidth())
		}
	}

	section("E9", "tree saturation — hot spots delay everyone")
	traffic := func(h float64) combining.TrafficConfig {
		return combining.TrafficConfig{Rate: 0.3, HotFraction: h, Window: 16}
	}
	base := combining.RunHotspotTraffic(64, traffic(0), false, cycles, 2)
	sat := combining.RunHotspotTraffic(64, traffic(0.25), false, cycles, 2)
	rel := combining.RunHotspotTraffic(64, traffic(0.25), true, cycles, 2)
	fmt.Printf("cold-traffic latency: baseline %.1f, h=0.25 no-combining %.1f (×%.2f), combining %.1f\n",
		base.Stats.ColdMeanLatency(), sat.Stats.ColdMeanLatency(),
		sat.Stats.ColdMeanLatency()/base.Stats.ColdMeanLatency(),
		rel.Stats.ColdMeanLatency())
}

func e10SimultaneousFAA() {
	section("E10", "simultaneous fetch-and-adds = parallel prefix (omega, unbounded wait buffers)")
	const n, rounds = 16, 30
	progs := make([][]combining.Instr, n)
	for p := range progs {
		for r := 0; r < rounds; r++ {
			progs[p] = append(progs[p], combining.RMW(0, combining.FetchAdd(1)))
		}
	}
	m, eng, c, err := combining.CheckBattery("omega",
		combining.WiringConfig{Procs: n, WaitBufCap: combining.Unbounded}, progs, 100_000)
	if err != nil {
		panic(err)
	}
	all := m.Replies()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	perm := true
	for i, v := range all {
		perm = perm && v == int64(i)
	}
	fmt.Printf("%d×%d concurrent FAA(X,1): final %d, replies form a permutation of 0..%d: %v\n",
		n, rounds, eng.Memory().Peek(0).Val, n*rounds-1, perm)
	fmt.Printf("combining events: %d of %d requests\n", c["combines"], n*rounds)
}

func e11Traffic(cycles int) {
	section("E11", "combining never increases value traffic (Section 5.1/5.5)")
	no := combining.RunHotspot(64, 0.6, 0.25, false, cycles, 4)
	yes := combining.RunHotspot(64, 0.6, 0.25, true, cycles, 4)
	per := func(r combining.HotspotResult, v int64) float64 {
		return float64(v) / float64(r.Stats.Completed)
	}
	fmt.Printf("per completed op at h=0.25:           no-combining   combining\n")
	fmt.Printf("  memory requests                      %8.3f     %8.3f\n",
		per(no, no.Stats.MemRequests), per(yes, yes.Stats.MemRequests))
	fmt.Printf("  forward link·value slots             %8.3f     %8.3f\n",
		per(no, no.Stats.FwdSlots), per(yes, yes.Stats.FwdSlots))
	fmt.Printf("  reverse link·value slots             %8.3f     %8.3f\n",
		per(no, no.Stats.RevSlots), per(yes, yes.Stats.RevSlots))
}

func e12Arithmetic() {
	section("E12", "arithmetic combining (Section 5.4)")
	// Exact affine combining.
	f := combining.Affine{A: 3, B: 5}
	g := combining.Affine{A: -7, B: 11}
	h, _ := combining.Compose(f, g)
	x := combining.W(123456789)
	exact := h.Apply(x) == g.Apply(f.Apply(x))
	fmt.Printf("wrap-around affine combining is bit-exact: %v\n", exact)
	fmt.Println("float64 Möbius chains with division diverge from serial evaluation")
	fmt.Println("(TestMoebiusDivisionInstability) while the exact rational family does not;")
	fmt.Println("one guard bit preserves fixed-point overflow detection (TestGuardBits).")
}

func a1PartialCombining(cycles int) {
	section("A1", "partial combining — wait-buffer capacity ablation")
	fmt.Println(" wait-buffer |  ops/cycle  combines  rejected")
	for _, cap := range []struct {
		name string
		cap  int
	}{
		{"0 (off)", 0}, {"1", 1}, {"4", 4}, {"unbounded", combining.Unbounded},
	} {
		inj := make([]combining.Injector, 64)
		for p := 0; p < 64; p++ {
			inj[p] = combining.NewStochastic(p, 64, combining.TrafficConfig{
				Rate: 0.6, HotFraction: 0.25,
			}, 5)
		}
		sim := wired("omega", combining.WiringConfig{Procs: 64, WaitBufCap: cap.cap})(inj)
		sim.Run(cycles)
		st := sim.Totals()
		fmt.Printf(" %-11s | %9.2f  %8d  %8d\n", cap.name, st.Bandwidth(), st.Combines,
			sim.Snapshot().Counter("combine_rejects"))
	}
}

func a6Model(cycles int) {
	section("A6", "the Kruskal–Snir 1983 analytic model vs this simulator")
	fmt.Println("uniform traffic, mean round-trip latency (cycles):")
	fmt.Println(" radix   load | measured  predicted  ratio")
	for _, w := range []struct {
		name  string
		radix int
	}{{"omega", 2}, {"omega4", 4}} {
		for _, p := range []float64{0.2, 0.4, 0.6} {
			inj := make([]combining.Injector, 64)
			for q := 0; q < 64; q++ {
				inj[q] = combining.NewStochastic(q, 64, combining.TrafficConfig{Rate: p, Window: 32}, 3)
			}
			sim := wired(w.name, combining.WiringConfig{Procs: 64, QueueCap: 64, WaitBufCap: 0})(inj)
			sim.Run(cycles)
			meas := sim.Totals().MeanLatency()
			pred := combining.PredictUniformLatency(64, w.radix, p)
			fmt.Printf("   %d    %.2f  | %7.2f   %7.2f    %.2f\n", w.radix, p, meas, pred, meas/pred)
		}
	}
}

func a2Variants(cycles int) {
	section("A2", "combining on other topologies (Section 7)")
	// Hypercube.
	runCube := func(comb bool) engine.Totals {
		waitCap := 0
		if comb {
			waitCap = combining.Unbounded
		}
		inj := make([]combining.Injector, 64)
		for p := 0; p < 64; p++ {
			inj[p] = combining.NewStochastic(p, 64, combining.TrafficConfig{
				Rate: 0.5, HotFraction: 0.25, Window: 8,
			}, 11)
		}
		sim := wired("hypercube", combining.WiringConfig{Procs: 64, WaitBufCap: waitCap})(inj)
		sim.Run(cycles)
		return sim.Totals()
	}
	cn, cy := runCube(false), runCube(true)
	fmt.Printf("hypercube (64 nodes, h=0.25): %.2f → %.2f ops/cycle, latency %.1f → %.1f\n",
		cn.Bandwidth(), cy.Bandwidth(), cn.MeanLatency(), cy.MeanLatency())

	// Bus.
	runBus := func(comb bool) engine.Totals {
		waitCap := 0
		if comb {
			waitCap = combining.Unbounded
		}
		inj := make([]combining.Injector, 16)
		for p := 0; p < 16; p++ {
			inj[p] = combining.NewStochastic(p, 16, combining.TrafficConfig{
				Rate: 1.0, HotFraction: 0.5, Window: 4, AddrSpace: 64,
			}, 21)
		}
		sim := wired("bus", combining.WiringConfig{Procs: 16, Banks: 8, WaitBufCap: waitCap})(inj)
		sim.Run(cycles)
		return sim.Totals()
	}
	bn, by := runBus(false), runBus(true)
	fmt.Printf("bus FIFO (16 procs, 8 banks, h=0.5): %.3f → %.3f ops/cycle, HOL blocking %d → %d cycles\n",
		bn.Bandwidth(), by.Bandwidth(), bn.HoldsMem, by.HoldsMem)
}
