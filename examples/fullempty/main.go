// Fullempty: HEP-style producer/consumer synchronization (Section 5.5).
//
// A shared cell carries a full/empty bit (pkg/sync's FECell).  The producer
// writes with store-if-clear-and-set (fails on a full cell); the consumer
// reads with load-and-clear-if-set (fails on an empty cell).  Failed
// operations are busy-wait retried — the paper's busy-waiting model — and
// every datum crosses the cell exactly once, in order.
package main

import (
	"fmt"
	"runtime"
	"sync"

	csync "combining/pkg/sync"
)

func main() {
	const items = 20
	var cell csync.FECell

	var wg sync.WaitGroup
	wg.Add(2)

	go func() { // producer
		defer wg.Done()
		for i := int64(1); i <= items; i++ {
			for !cell.TryPut(i * i) {
				// Cell still full: the consumer has not taken the
				// previous item; retry.
				runtime.Gosched()
			}
		}
	}()

	go func() { // consumer
		defer wg.Done()
		got := 0
		for got < items {
			v, ok := cell.TryTake()
			if !ok {
				runtime.Gosched()
				continue // empty: retry
			}
			got++
			fmt.Printf("item %2d: %4d\n", got, v)
		}
	}()

	wg.Wait()
	if !cell.Full() {
		fmt.Println("cell empty at the end ✓")
	}
}
