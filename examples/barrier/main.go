// Barrier: the classic fetch-and-add barrier.
//
// 32 goroutine "processors" synchronize over ten phases.  Each barrier
// episode is a burst of fetch-and-adds to one cell — the textbook hot spot
// a combining network merges before it reaches memory.  The participants
// spin on the generation cell, which a cycle-machine program cannot do, so
// the cells here are native atomics (combining.NewNativeMemory).
package main

import (
	"fmt"
	"sync"

	combining "combining"
)

func main() {
	const n = 32
	const phases = 10

	mem := combining.NewNativeMemory()

	// Each participant builds its own view of the shared barrier cells at
	// address 0.
	var wg sync.WaitGroup
	order := make([][]int, phases)
	var mu sync.Mutex
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			bar := combining.NewBarrier(mem, 0, n)
			ctr := combining.NewCounter(mem, 100)
			for ph := 0; ph < phases; ph++ {
				// Do some "work": grab a ticket on a phase-wide
				// counter, then wait for everyone.
				ticket := ctr.Inc()
				mu.Lock()
				order[ph] = append(order[ph], int(ticket))
				mu.Unlock()
				bar.Await()
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
