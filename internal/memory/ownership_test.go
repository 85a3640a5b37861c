package memory

import (
	"sync"
	"testing"

	"combining/internal/core"
	"combining/internal/par"
	"combining/internal/rmw"
	"combining/internal/word"
)

// TestModuleOwnershipHandoff states the cycle API's ownership rule by
// construction, for the race detector to check: Enqueue, CanEnqueue, Tick and
// QueueLen take no lock, and that is sound because a module has one owner per
// barrier-separated phase.  Two workers share module 0 the way the parallel
// stepper's phases do — one feeds it in the forward phase, the other ticks
// it in the memory phase, and they swap roles every cycle so each method is
// called from both goroutines — with nothing but the phase barrier between
// them.  A third goroutine meanwhile hammers a different module of the same
// Array through the locked monitor path (Do, Peek).
func TestModuleOwnershipHandoff(t *testing.T) {
	const cycles = 2000
	arr := NewArray(2, WithServiceTime(1), WithQueueCap(2))
	owned := arr.Module(0)
	bar := par.NewBarrier(2)

	var served [2]int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := word.ReqID(w * cycles)
			for c := 0; c < cycles; c++ {
				// Memory phase: this cycle's ticker owns the module.
				if c%2 == w {
					if _, ok := owned.Tick(); ok {
						served[w]++
					}
				}
				bar.Sync(w)
				// Forward phase: the other worker owns it.
				if c%2 != w && owned.CanEnqueue() {
					id++
					owned.Enqueue(core.NewRequest(id, 0, rmw.FetchAdd(1), word.ProcID(w)))
					if owned.QueueLen() == 0 {
						t.Errorf("worker %d cycle %d: queue empty right after Enqueue", w, c)
					}
				}
				bar.Sync(w)
			}
		}(w)
	}

	const direct = 5000
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < direct; i++ {
			arr.Do(core.NewRequest(word.ReqID(1<<20+i), 1, rmw.FetchAdd(1), 2))
			arr.Peek(1)
		}
	}()
	wg.Wait()

	for owned.QueueLen() > 0 {
		if _, ok := owned.Tick(); ok {
			served[0]++
		}
	}
	if got, want := owned.Peek(0).Val, served[0]+served[1]; got != want || want == 0 {
		t.Errorf("owned module's cell = %d after %d served requests", got, want)
	}
	if got := arr.Peek(1).Val; got != direct {
		t.Errorf("monitor module's cell = %d after %d Do calls", got, direct)
	}
}
