package combining_test

import (
	"fmt"
	"sort"

	combining "combining"
)

// The Figure 1 cycle: combine, execute once, decombine.
func ExampleCombine() {
	a := combining.NewRequest(1, 100, combining.FetchAdd(3), 0)
	b := combining.NewRequest(2, 100, combining.FetchAdd(5), 1)
	comb, rec, _ := combining.Combine(a, b, combining.Policy{})

	cell := combining.W(10)
	reply := combining.Execute(&cell, comb)
	ra, rb := combining.Decombine(rec, reply)
	fmt.Println(ra, rb, cell)
	// Output: ⟨1, 10⟩ ⟨2, 13⟩ 18
}

// Section 5.1: a load behind a store combines into a swap; with reversal
// allowed and distinct processors it becomes a plain store instead.
func ExampleCompose() {
	h, _ := combining.Compose(combining.Load{}, combining.StoreOf(7))
	fmt.Println(h)

	a := combining.NewRequest(1, 0, combining.Load{}, 0)
	b := combining.NewRequest(2, 0, combining.StoreOf(7), 1)
	comb, rec, _ := combining.Combine(a, b, combining.Policy{AllowReversal: true})
	fmt.Println(comb.Op, rec.Reversed)
	// Output:
	// swap(7)
	// store(7) true
}

// Section 5.5: full/empty operations are two-state tables; conditional
// stores fail on a full cell and the old tag is the negative ack.
func ExampleFEStoreIfClearSet() {
	cell := combining.WT(0, combining.Empty)
	op := combining.FEStoreIfClearSet(42)

	r1 := combining.Execute(&cell, combining.NewRequest(1, 0, op, 0))
	r2 := combining.Execute(&cell, combining.NewRequest(2, 0, op, 1))
	fmt.Println(cell, op.Failed(r1.Val.Tag), op.Failed(r2.Val.Tag))
	// Output: 42/s1 false true
}

// Section 5.6: a path expression compiles to combinable guard mappings.
func ExampleCompilePath() {
	g, _ := combining.CompilePath("(produce consume)*")
	fmt.Println(g.States(), g.Accepts("produce", "consume"), g.Accepts("consume"))
	// Output: 2 true false
}

// Simultaneous fetch-and-adds on the combining Omega machine serialize
// exactly; the battery checks the run before the replies are read.
func ExampleCheckBattery() {
	progs := make([][]combining.Instr, 4)
	for p := range progs {
		progs[p] = []combining.Instr{combining.RMW(0, combining.FetchAdd(1))}
	}
	m, eng, _, err := combining.CheckBattery("omega",
		combining.WiringConfig{Procs: 4, WaitBufCap: combining.Unbounded}, progs, 1000)
	if err != nil {
		panic(err)
	}
	replies := make([]int64, 4)
	for p := range replies {
		replies[p] = m.Proc(p).Reply(0).Val
	}
	sort.Slice(replies, func(i, j int) bool { return replies[i] < replies[j] })
	fmt.Println(replies, eng.Memory().Peek(0).Val)
	// Output: [0 1 2 3] 4
}

// The hot-spot experiment in three lines.
func ExampleRunHotspot() {
	no := combining.RunHotspot(64, 0.6, 0.25, false, 2000, 1)
	yes := combining.RunHotspot(64, 0.6, 0.25, true, 2000, 1)
	fmt.Println(yes.Stats.Bandwidth() > 3*no.Stats.Bandwidth())
	// Output: true
}
