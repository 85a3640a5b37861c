package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	combining "combining"
	csync "combining/pkg/sync"
)

// synclibSoak is the acceptance soak for the pkg/sync primitives
// (ISSUE: contention-free synchronization library).  It runs under the
// race detector in `make check` and CI:
//
//   - MCSLock guarding a deliberately non-atomic counter at hot-spot
//     scale, with every critical section's observed old value checked
//     against the Lemma 4.1 serial oracle on the same fetch-and-add trace;
//   - the combining-tree Barrier holding ~hot-spot-many participants in phase
//     lockstep across episodes;
//   - the sharded Counter against combining.SerialReplies on the full
//     trace of adds.
//
// Sizes are fixed, not shrunk by -quick: the acceptance bar is 100k
// goroutines on one hot spot.
func synclibSoak(verbose bool) (checked, failed int) {
	const hotGoroutines = 100_000

	// --- MCSLock: mutual exclusion + differential serial oracle ---------
	{
		var (
			l    csync.MCSLock
			v    int64 // non-atomic: the lock is the only protection
			olds = make([]int64, 0, hotGoroutines)
			wg   sync.WaitGroup
		)
		wg.Add(hotGoroutines)
		for g := 0; g < hotGoroutines; g++ {
			go func() {
				defer wg.Done()
				q := l.Lock()
				olds = append(olds, v) // protected by the lock
				v++
				l.Unlock(q)
			}()
		}
		wg.Wait()
		checked++
		ops := make([]combining.Mapping, len(olds))
		for i := range ops {
			ops[i] = combining.FetchAdd(1)
		}
		replies, final := combining.SerialReplies(combining.W(0), ops)
		bad := false
		for i, old := range olds {
			if old != replies[i].Val {
				fmt.Printf("FAIL synclib/mcs: critical section %d observed %d, serial oracle says %d\n", i, old, replies[i].Val)
				failed++
				bad = true
				break
			}
		}
		if !bad && v != final.Val {
			fmt.Printf("FAIL synclib/mcs: final counter %d, serial oracle says %d\n", v, final.Val)
			failed++
			bad = true
		}
		if !bad && verbose {
			fmt.Printf("ok   synclib/mcs: %d critical sections match the serial oracle\n", len(olds))
		}
		fmt.Printf("%-18s %d goroutines, every critical section serial-oracle checked\n", "synclib/mcs", hotGoroutines)
	}

	// --- Barrier: phase lockstep at width 4096, plus a 100k-wide episode -
	{
		const n, episodes = 4096, 8
		b := csync.NewBarrier(n)
		phase := make([]atomic.Int64, n)
		var wg sync.WaitGroup
		var violations atomic.Int64
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for e := int64(1); e <= episodes; e++ {
					phase[w].Store(e)
					b.Wait(w)
					for j := 0; j < n; j += 37 { // sampled scan keeps the soak O(n²/37)
						if p := phase[j].Load(); p < e || p > e+1 {
							violations.Add(1)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		checked++
		if violations.Load() != 0 {
			fmt.Printf("FAIL synclib/barrier: lockstep violated at width %d\n", n)
			failed++
		} else if verbose {
			fmt.Printf("ok   synclib/barrier: width %d held lockstep for %d episodes\n", n, episodes)
		}

		// One hot-spot-scale episode: every participant arrives once; none
		// may be released before all have arrived.
		wide := csync.NewBarrier(hotGoroutines)
		var arrived atomic.Int64
		var early atomic.Int64
		var ww sync.WaitGroup
		ww.Add(hotGoroutines)
		for w := 0; w < hotGoroutines; w++ {
			go func(w int) {
				defer ww.Done()
				arrived.Add(1)
				wide.Wait(w)
				if arrived.Load() < hotGoroutines {
					early.Add(1)
				}
			}(w)
		}
		ww.Wait()
		checked++
		if early.Load() != 0 {
			fmt.Printf("FAIL synclib/barrier: %d participants released before all %d arrived\n", early.Load(), hotGoroutines)
			failed++
		}
		fmt.Printf("%-18s width %d lockstep ×%d episodes, one %d-wide episode\n", "synclib/barrier", n, episodes, hotGoroutines)
	}

	// --- Counter: hot-spot adds vs the serial oracle --------------------
	{
		c := csync.NewCounter()
		var wg sync.WaitGroup
		wg.Add(hotGoroutines)
		for g := 0; g < hotGoroutines; g++ {
			go func(g int) {
				defer wg.Done()
				c.Add(int64(g%7 + 1))
			}(g)
		}
		wg.Wait()
		checked++
		ops := make([]combining.Mapping, hotGoroutines)
		for g := range ops {
			ops[g] = combining.FetchAdd(int64(g%7 + 1))
		}
		_, final := combining.SerialReplies(combining.W(0), ops)
		if got := c.Read(); got != final.Val {
			fmt.Printf("FAIL synclib/counter: Read() = %d, serial oracle final = %d\n", got, final.Val)
			failed++
		} else if verbose {
			fmt.Printf("ok   synclib/counter: %d adds sum to the serial oracle final\n", hotGoroutines)
		}
		fmt.Printf("%-18s %d hot-spot adds vs the serial oracle\n", "synclib/counter", hotGoroutines)
	}

	return checked, failed
}
