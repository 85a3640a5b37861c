package memory

// Section 5.5's closing claim: "An alternative mechanism is to queue a
// request at memory until it is executable.  This decreases the network
// traffic."  We run the same producer/consumer workload both ways — the
// busy-waiting model (failed conditional operations are NAKed and retried)
// versus the queueing memory (inapplicable requests park at the
// controller) — and count the requests each needs.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"combining/internal/core"
	"combining/internal/rmw"
	"combining/internal/word"
)

func TestQueueingDecreasesTraffic(t *testing.T) {
	const items = 150
	const cell = word.Addr(3)

	// Busy-waiting at a plain module: every NAK is retried after a yield,
	// and every retry is another request.
	busyRequests := func() int64 {
		m := NewModule()
		var issued atomic.Int64
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			var n int64
			for i := int64(1); i <= items; i++ {
				for {
					n++
					if m.Do(core.NewRequest(word.ReqID(n), cell, rmw.FEStoreIfClearSet(i), 0)).Val.Tag == word.Empty {
						break
					}
					runtime.Gosched()
				}
			}
			issued.Add(n)
		}()
		go func() {
			defer wg.Done()
			var n int64
			got := 0
			for got < items {
				n++
				if m.Do(core.NewRequest(word.ReqID(1<<32+n), cell, rmw.FELoadIfSetClear(), 3)).Val.Tag == word.Full {
					got++
					continue
				}
				runtime.Gosched()
			}
			issued.Add(n)
		}()
		wg.Wait()
		return issued.Load()
	}()

	// Queueing at the controller: each operation is issued exactly once.
	qmem := NewQueueingModule()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(1); i <= items; i++ {
			qmem.Do(core.NewRequest(word.ReqID(i), cell, rmw.FEStoreIfClearSet(i), 0))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < items; i++ {
			qmem.Do(core.NewRequest(word.ReqID(1000+i), cell, rmw.FELoadIfSetClear(), 3))
		}
	}()
	wg.Wait()
	queueRequests := qmem.Served

	t.Logf("requests issued: busy-waiting %d, queueing %d (workload minimum %d)",
		busyRequests, queueRequests, 2*items)
	if queueRequests != 2*items {
		t.Fatalf("queueing memory served %d requests, want exactly %d", queueRequests, 2*items)
	}
	if busyRequests <= queueRequests {
		t.Fatalf("busy-waiting issued %d requests, expected more than the queueing minimum %d",
			busyRequests, queueRequests)
	}
}
