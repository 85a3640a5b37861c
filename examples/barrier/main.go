// Barrier: the classic fetch-and-add barrier.
//
// 32 goroutine "processors" synchronize over ten phases.  Each phase every
// participant takes a ticket from one fetch-and-add counter — the textbook
// hot spot a combining network merges before it reaches memory — and then
// waits at pkg/sync's Barrier, the software combining tree that does the
// same merging for the barrier's own arrivals.  The participants spin,
// which a cycle-machine program cannot do, so the counter is a native
// atomic.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	csync "combining/pkg/sync"
)

func main() {
	const n = 32
	const phases = 10

	bar := csync.NewBarrier(n)
	var ctr atomic.Int64

	var wg sync.WaitGroup
	order := make([][]int, phases)
	var mu sync.Mutex
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for ph := 0; ph < phases; ph++ {
				// Do some "work": grab a ticket on a phase-wide
				// counter, then wait for everyone.
				ticket := ctr.Add(1) - 1
				mu.Lock()
				order[ph] = append(order[ph], int(ticket))
				mu.Unlock()
				bar.Wait(id)
			}
		}(id)
	}
	wg.Wait()

	for ph := 0; ph < phases; ph++ {
		lo, hi := order[ph][0], order[ph][0]
		for _, tk := range order[ph] {
			if tk < lo {
				lo = tk
			}
			if tk > hi {
				hi = tk
			}
		}
		// The barrier guarantees phase ph's tickets all precede phase
		// ph+1's: tickets of phase ph are exactly [ph·n, ph·n+n).
		fmt.Printf("phase %2d: %2d tickets in [%3d, %3d]\n", ph, len(order[ph]), lo, hi)
		if lo != ph*n || hi != ph*n+n-1 {
			fmt.Println("  ERROR: phases interleaved — barrier broken")
		}
	}
	fmt.Println("\nall phases separated ✓")
}
