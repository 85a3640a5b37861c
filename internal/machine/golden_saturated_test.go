package machine

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/network"
	"combining/internal/wiring"
	"combining/internal/word"
)

// Saturated golden digests.  The program set of TestGoldenDigests leaves the
// machines' full-queue paths cold: its requests are spaced out, so queues
// rarely fill, a wait buffer rarely refuses a combine and memory rarely
// holds a request back.  These rows drive the other regime — hot-spot
// stochastic traffic into one-slot queues and two-record wait buffers,
// clean and under crashes with drops, on the staged and on the direct
// engine, at Workers 1 and 3 — where a request is refused, parked, retried
// against a moved queue, combined, dropped, flushed and retransmitted in
// the same few cycles.  Every row must count memory holds and combine
// rejections, and every crash+drop row drops and crashes: a row whose
// regime never engaged is a vacuous pin.  Stochastic traffic checks no
// value, so the digest folds in every reply each processor was handed, in
// order, beside the snapshot and the memory image.  As with the first table, a change
// that means to move a counter edits exactly the rows it moves and says
// why; the w1 and w3 rows of a pair are equal by construction.

const (
	satProcs    = 64
	satOpsEach  = 48
	satAddrs    = 64
	satQueueCap = 1
	satWaitCap  = 2
)

// budget stops an injector after its share of issues, so the run drains,
// and writes down the replies it is handed.
type budget struct {
	engine.Injector
	left    int
	replies hash.Hash64
}

func (b *budget) Next(cycle int64) (engine.Injection, bool) {
	if b.left == 0 {
		return engine.Injection{}, false
	}
	in, ok := b.Injector.Next(cycle)
	if ok {
		b.left--
	}
	return in, ok
}

func (b *budget) Deliver(rep core.Reply, cycle int64) {
	fmt.Fprintf(b.replies, "%d:%d=%v|", cycle, rep.ID, rep.Val)
	b.Injector.Deliver(rep, cycle)
}

var satPlans = []struct {
	name    string
	plan    func() *faults.Plan
	engaged []string
}{
	{"clean", func() *faults.Plan { return nil }, nil},
	{"crashdrop", func() *faults.Plan { return crashDropPlan(74) }, []string{"drops_fwd", "crashes"}},
}

func TestGoldenSaturated(t *testing.T) {
	for _, name := range []string{"omega", "hypercube"} {
		for _, pl := range satPlans {
			for _, w := range []int{1, 3} {
				key := fmt.Sprintf("%s/%s/w%d", name, pl.name, w)
				inj := make([]engine.Injector, satProcs)
				for p := range inj {
					inj[p] = &budget{network.NewStochastic(p, satProcs, network.TrafficConfig{
						Rate: 0.9, HotFraction: 0.25, AddrSpace: satAddrs, Window: 4}, 75), satOpsEach, fnv.New64a()}
				}
				eng := wired(t, name, wiring.Config{Procs: satProcs, QueueCap: satQueueCap,
					WaitBufCap: satWaitCap, Faults: pl.plan(), Workers: w})(inj)
				if !eng.Drain(400000) {
					t.Fatalf("%s: did not drain (%d in flight):\n%s", key, eng.InFlight(), eng.StallReport())
				}
				snap := eng.Snapshot()
				for _, counter := range append([]string{"holds_mem", "combine_rejects", "combines"}, pl.engaged...) {
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
				if got, want := fmt.Sprintf("%016x", h.Sum64()), goldenSaturatedTable[key]; got != want {
					t.Errorf("saturated golden digest moved:\n\t%q: %q,   (committed: %q)", key, got, want)
				}
			}
		}
	}
}

// goldenSaturatedTable was committed with the message store (store.go in
// internal/engine); the engine before it, which kept whole messages in its
// queues, produces the same bytes.
var goldenSaturatedTable = map[string]string{
	"omega/clean/w1":         "3a327a0fbca37a2f",
	"omega/clean/w3":         "3a327a0fbca37a2f",
	"omega/crashdrop/w1":     "dd69526ba00b6a3d",
	"omega/crashdrop/w3":     "dd69526ba00b6a3d",
	"hypercube/clean/w1":     "71de956571cb3edf",
	"hypercube/clean/w3":     "71de956571cb3edf",
	"hypercube/crashdrop/w1": "77a403aba76e1488",
	"hypercube/crashdrop/w3": "77a403aba76e1488",
}
