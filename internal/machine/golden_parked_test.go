package machine

import (
	"fmt"
	"hash/fnv"
	"testing"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/network"
	"combining/internal/wiring"
	"combining/internal/word"
)

// Parked golden digests.  Neither earlier table parks a refused head
// (engine/park.go): goldenTable's wait buffers hold eight records and
// TestGoldenSaturated's two, and a bounded buffer's room changes under a
// blocked head, so its refusals are revisited every cycle.  These rows are
// TestGoldenSaturated's traffic and one-slot queues with wait buffers whose
// room is fixed — capacity 0 (combining off: every refusal with a partner
// counts a rejection) and unbounded — on the staged and on the direct
// engine, clean and under crashes with drops, at Workers 1 and 3.  Every
// row must park (Totals.Parks, a host-side count in no snapshot); the
// combining-off rows must count memory holds and rejections, the combining
// rows combines, and every crash+drop row drops and crashes.  The table was
// computed with the engine before parking existed, which gives the same
// bytes: parking must not move a counter.
func TestGoldenParked(t *testing.T) {
	for _, name := range []string{"omega", "hypercube"} {
		for _, wait := range []struct {
			name     string
			cap      int
			counters []string
		}{{"wait0", 0, []string{"holds_mem", "combine_rejects"}}, {"unbounded", core.Unbounded, []string{"combines"}}} {
			for _, pl := range satPlans {
				for _, w := range []int{1, 3} {
					key := fmt.Sprintf("%s/%s/%s/w%d", name, wait.name, pl.name, w)
					inj := make([]engine.Injector, satProcs)
					for p := range inj {
						inj[p] = &budget{network.NewStochastic(p, satProcs, network.TrafficConfig{
							Rate: 0.9, HotFraction: 0.25, AddrSpace: satAddrs, Window: 4}, 75), satOpsEach, fnv.New64a()}
					}
					eng := wired(t, name, wiring.Config{Procs: satProcs, QueueCap: satQueueCap,
						WaitBufCap: wait.cap, Faults: pl.plan(), Workers: w})(inj)
					if !eng.Drain(400000) {
						t.Fatalf("%s: did not drain (%d in flight):\n%s", key, eng.InFlight(), eng.StallReport())
					}
					if eng.Totals().Parks == 0 {
						t.Errorf("%s: no refused head parked", key)
					}
					snap := eng.Snapshot()
					for _, counter := range append(wait.counters, pl.engaged...) {
						if snap.Counters[counter] == 0 {
							t.Errorf("%s: %s = 0: the row never reached the regime it pins", key, counter)
						}
					}
					h := fnv.New64a()
					h.Write(snap.JSON())
					for a := word.Addr(0); a < satAddrs; a++ {
						fmt.Fprintf(h, "|%d=%v", a, eng.Memory().Peek(a))
					}
					for p := range inj {
						fmt.Fprintf(h, "|p%d:%016x", p, inj[p].(*budget).replies.Sum64())
					}
					if got, want := fmt.Sprintf("%016x", h.Sum64()), goldenParkedTable[key]; got != want {
						t.Errorf("parked golden digest moved:\n\t%q: %q,   (committed: %q)", key, got, want)
					}
				}
			}
		}
	}
}

// goldenParkedTable was computed at the commit before parking, with the
// Parks check left out; this engine gives the same bytes.
var goldenParkedTable = map[string]string{
	"omega/wait0/clean/w1":             "a3c589883949279b",
	"omega/wait0/clean/w3":             "a3c589883949279b",
	"omega/wait0/crashdrop/w1":         "040a4e70b65f479e",
	"omega/wait0/crashdrop/w3":         "040a4e70b65f479e",
	"omega/unbounded/clean/w1":         "5b092231fe294966",
	"omega/unbounded/clean/w3":         "5b092231fe294966",
	"omega/unbounded/crashdrop/w1":     "77a421f226ba96d9",
	"omega/unbounded/crashdrop/w3":     "77a421f226ba96d9",
	"hypercube/wait0/clean/w1":         "fef0b7ecaa3c10e1",
	"hypercube/wait0/clean/w3":         "fef0b7ecaa3c10e1",
	"hypercube/wait0/crashdrop/w1":     "bbe28ec427c87d16",
	"hypercube/wait0/crashdrop/w3":     "bbe28ec427c87d16",
	"hypercube/unbounded/clean/w1":     "6d1dc314eb3092f4",
	"hypercube/unbounded/clean/w3":     "6d1dc314eb3092f4",
	"hypercube/unbounded/crashdrop/w1": "3ce3877ea4b23185",
	"hypercube/unbounded/crashdrop/w3": "3ce3877ea4b23185",
}
