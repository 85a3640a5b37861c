package machine

import (
	"fmt"
	"sort"
	"testing"

	"combining/internal/core"
	"combining/internal/faults"
	"combining/internal/rmw"
	"combining/internal/wiring"
	"combining/internal/word"
)

// TestProcessorLinkDown: a link-down window on a processor's own link — the
// hop with fault coordinate stage 0 — takes that link down on every cycle
// machine.  The plan's only fault is one window, one cycle long, over the
// cycle in which every processor makes its first offer and nothing else is
// in flight; it must drop exactly the offers made on the selected link
// (drops_fwd counts them, nothing is lost on the way back), and the retry
// machinery must still complete every operation exactly once.  Stage -1, the
// wildcard, selects the same link in that cycle.
//
// The injection link used to be three copies of one loop, and the direct
// machine's copy drew only the Bernoulli drop there: the window took down
// two machines' injection links and silently not the third's.
func TestProcessorLinkDown(t *testing.T) {
	const (
		procs = 8
		first = 15  // every processor's first offer
		later = 300 // its second, after the retransmit of the first
	)
	for _, tc := range []struct {
		name  string
		index int
		// offers is how many processors offer on the selected link in one
		// cycle: both processors entering stage-0 switch 1 of the omega
		// network, node 1's own processor, and on the bus — one medium,
		// index 0 — the one processor that wins the arbitration.
		offers int64
	}{
		{"omega", 1, 2},
		{"hypercube", 1, 1},
		{"bus", 0, 1},
	} {
		for _, stage := range []int{0, -1} {
			t.Run(fmt.Sprintf("%s/stage%d", tc.name, stage), func(t *testing.T) {
				plan := &faults.Plan{Seed: 9, LinkCrashes: []faults.Window{
					{Stage: stage, Index: tc.index, From: first, To: first + 1}}}
				progs := make([][]Instr, procs)
				for p := range progs {
					progs[p] = []Instr{RMW(0, rmw.FetchAdd(1)), RMW(0, rmw.FetchAdd(1))}
					progs[p][0].MinCycle, progs[p][1].MinCycle = first, later
				}
				m := New(progs, wired(t, tc.name, wiring.Config{Procs: procs, WaitBufCap: 8, Faults: plan}))
				eng := m.Engine()
				if !m.Run(100000) {
					t.Fatalf("programs did not complete (%d in flight):\n%s", eng.InFlight(), eng.StallReport())
				}
				c := eng.Snapshot().Counters
				if c["drops_fwd"] != tc.offers || c["drops_rev"] != 0 {
					t.Errorf("drops_fwd = %d, drops_rev = %d; the window covers %d offers and no reply",
						c["drops_fwd"], c["drops_rev"], tc.offers)
				}
				if c["retries"] < tc.offers || c["issued"] != 2*procs || c["completed"] != 2*procs {
					t.Errorf("issued %d, completed %d, retries %d; want %d operations and a retransmit per drop",
						c["issued"], c["completed"], c["retries"], 2*procs)
				}
				// Exactly once: the fetch-and-adds saw, in some serial order,
				// exactly the values a serial memory hands out.
				var got []int64
				for p := 0; p < procs; p++ {
					got = append(got, m.Proc(p).Reply(0).Val, m.Proc(p).Reply(1).Val)
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				ops := make([]rmw.Mapping, len(got))
				for i := range ops {
					ops[i] = rmw.FetchAdd(1)
				}
				want, final := core.SerialReplies(word.Word{}, ops)
				for i := range got {
					if got[i] != want[i].Val {
						t.Fatalf("sorted reply %d = %d, serial %d (lost or doubled add)", i, got[i], want[i].Val)
					}
				}
				if cell := eng.Memory().Peek(0); cell != final {
					t.Errorf("cell 0 = %v, serial %v", cell, final)
				}
			})
		}
	}
}
