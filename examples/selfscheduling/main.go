// Selfscheduling: the Ultracomputer operating-system idiom the paper's
// introduction motivates — "they can form the basis for a completely
// parallel, decentralized operating system".
//
// A parallel loop is scheduled with no central dispatcher: workers grab
// iteration indexes with fetch-and-add on a shared counter (combinable, so
// a burst of idle workers costs one memory access) and synchronize phases
// at pkg/sync's combining-tree Barrier.  The workers spin, which a
// cycle-machine program cannot do, so the counter is a native atomic.
package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	csync "combining/pkg/sync"
)

func main() {
	const (
		workers    = 8
		iterations = 200
	)
	bar := csync.NewBarrier(workers)
	var ctr atomic.Int64

	results := make([]int64, iterations)
	var grabbed [workers]int
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Phase 1: self-scheduled loop — once every worker is
			// present, each pulls the next free iteration until the
			// range is exhausted, yielding its processor after each
			// body as a longer one would be descheduled.
			bar.Wait(id)
			for {
				i := ctr.Add(1) - 1
				if i >= iterations {
					break
				}
				results[i] = i * i // the loop body
				grabbed[id]++
				runtime.Gosched()
			}
			bar.Wait(id)

			// Phase 2: worker 0 validates while the others wait at
			// the next barrier.
			if id == 0 {
				for i := int64(0); i < iterations; i++ {
					if results[i] != i*i {
						fmt.Printf("iteration %d computed wrongly\n", i)
					}
				}
			}
			bar.Wait(id)
		}(id)
	}
	wg.Wait()

	total := 0
	fmt.Println("iterations grabbed per worker (self-balanced, no dispatcher):")
	for id, g := range grabbed {
		fmt.Printf("  worker %d: %3d\n", id, g)
		total += g
	}
	fmt.Printf("total %d / %d\n", total, iterations)
	if total == iterations {
		fmt.Println("every iteration executed exactly once ✓")
	}
}
