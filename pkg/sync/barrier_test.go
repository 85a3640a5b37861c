package sync_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	stdsync "sync"
	"sync/atomic"
	"testing"
	"time"

	"combining/internal/core"
	"combining/internal/par"
	"combining/internal/rmw"
	"combining/internal/word"
	csync "combining/pkg/sync"
)

// TestBarrierLockstep checks the defining property at a spread of widths,
// including non-powers-of-two (byes in the tree): between episodes no
// participant is ever more than one phase ahead of any other, and
// everything written before an episode's Wait is visible after it.
func TestBarrierLockstep(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 64} {
		const episodes = 200
		b := csync.NewBarrier(n)
		phase := make([]atomic.Int64, n)
		var wg stdsync.WaitGroup
		failed := atomic.Bool{}
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for e := int64(1); e <= episodes; e++ {
					phase[w].Store(e)
					b.Wait(w)
					for j := 0; j < n; j++ {
						p := phase[j].Load()
						if p < e || p > e+1 {
							failed.Store(true)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if failed.Load() {
			t.Fatalf("width %d: lockstep violated — a participant left an episode early", n)
		}
	}
}

// TestBarrierDifferentialFAA validates the barrier as the paper's combined
// faa-and-test: each arrival performs a fetch-and-add on one hot cell, and
// the barrier's episode structure must partition the replies exactly as
// the serial oracle partitions the trace — episode e sees replies
// [e·n, (e+1)·n), and the full sorted reply set equals
// core.SerialReplies on the same fetch-and-add chain.
func TestBarrierDifferentialFAA(t *testing.T) {
	const n, episodes = 8, 100
	b := csync.NewBarrier(n)
	var ctr atomic.Int64
	replies := make([][]int64, n)
	var wg stdsync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for e := 0; e < episodes; e++ {
				r := ctr.Add(1) - 1 // fetch-and-add(1): the arrival
				replies[w] = append(replies[w], r)
				b.Wait(w)
				if r < int64(e*n) || r >= int64((e+1)*n) {
					t.Errorf("participant %d episode %d drew arrival %d outside [%d,%d)",
						w, e, r, e*n, (e+1)*n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	ops := make([]rmw.Mapping, n*episodes)
	for i := range ops {
		ops[i] = rmw.FetchAdd(1)
	}
	want, final := core.SerialReplies(word.W(0), ops)
	var all []int64
	for _, rs := range replies {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != want[i].Val {
			t.Fatalf("sorted arrival %d = %d, serial oracle says %d (lost or duplicated arrival)", i, v, want[i].Val)
		}
	}
	if got := ctr.Load(); got != final.Val {
		t.Fatalf("final arrival count %d, serial oracle says %d", got, final.Val)
	}
}

// TestBarrierWide pushes the tree depth: 8192 participants for several
// episodes, then one episode 100k wide, every goroutine waiting only on
// its own flag; none may be released before all have arrived.
func TestBarrierWide(t *testing.T) {
	for _, tc := range []struct{ n, episodes int }{{8192, 4}, {100_000, 1}} {
		b := csync.NewBarrier(tc.n)
		var arrived atomic.Int64
		var wg stdsync.WaitGroup
		for w := 0; w < tc.n; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for e := 0; e < tc.episodes; e++ {
					arrived.Add(1)
					b.Wait(w)
					if got := arrived.Load(); got < int64((e+1)*tc.n) {
						t.Errorf("width %d: participant %d released in episode %d with only %d arrivals", tc.n, w, e, got)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// runScripted drives b through len(orders) episodes in which the
// participants arrive in the order orders[e] lists them: each waits for a
// token from the one before it and hands it on just before its own Wait.
// (Under one P that order is exact — the token's sender runs on into Wait
// before its receiver is scheduled; under two it is a strong bias, which is
// all a test of a property that holds in any order needs.)  Every episode is
// checked for lockstep; a run that does not finish is reported as a hang.
func runScripted(t *testing.T, b *csync.Barrier, orders [][]int) {
	t.Helper()
	n := b.Participants()
	pos := make([][]int, len(orders)) // pos[e][w]: w's place in orders[e]
	for e, order := range orders {
		pos[e] = make([]int, n)
		for p, w := range order {
			pos[e][w] = p
		}
	}
	turn := make([]chan struct{}, n)
	for w := range turn {
		turn[w] = make(chan struct{}, 1)
	}
	phase := make([]atomic.Int64, n)
	var broke atomic.Int64 // first episode seen out of lockstep
	var wg stdsync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for e, order := range orders {
				p := pos[e][w]
				if p > 0 {
					<-turn[w]
				}
				if p < n-1 {
					turn[order[p+1]] <- struct{}{}
				}
				ep := int64(e + 1)
				phase[w].Store(ep)
				b.Wait(w)
				for j := range phase {
					if q := phase[j].Load(); q < ep || q > ep+1 {
						broke.CompareAndSwap(0, ep)
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		at := make([]int64, n)
		for w := range at {
			at[w] = phase[w].Load()
		}
		t.Fatalf("hang: the participants stand at episodes %v of %d", at, len(orders))
	}
	if e := broke.Load(); e != 0 {
		t.Fatalf("lockstep violated in episode %d: a participant left it before another had arrived", e)
	}
}

// TestBarrierScriptedArrivals holds the barrier to arrival orders a fair
// scheduler seldom produces.  With dynamic winners a participant's flag is
// written only in the episodes it waits, so the orders that matter are the
// ones that leave a flag stale and then make its owner wait: one participant
// last a thousand times running and then first now and again (a flag
// compared against a one-bit sense passes a release two episodes old, and
// the straggler leaves early), every winner changing at once (index order
// turned round every third episode), and a fresh random order every episode.
func TestBarrierScriptedArrivals(t *testing.T) {
	const streak, tail, episodes = 1000, 64, 300
	// moved returns index order with participant s moved to the front or
	// to the back.
	moved := func(n, s int, front bool) []int {
		order := make([]int, 0, n)
		if front {
			order = append(order, s)
		}
		for w := 0; w < n; w++ {
			if w != s {
				order = append(order, w)
			}
		}
		if !front {
			order = append(order, s)
		}
		return order
	}
	scripts := []struct {
		name   string
		orders func(n int) [][]int
	}{
		{"straggler", func(n int) [][]int {
			first, last := moved(n, n/2, true), moved(n, n/2, false)
			orders := make([][]int, streak+tail)
			for e := range orders {
				orders[e] = last
				// After the streak: first, with gaps of none, one and two
				// episodes between.
				if e >= streak && "FFLFLLFF"[e%8] == 'F' {
					orders[e] = first
				}
			}
			return orders
		}},
		{"reverse", func(n int) [][]int {
			up, down := make([]int, n), make([]int, n)
			for p := range up {
				up[p], down[p] = p, n-1-p
			}
			// Three episodes in index order, three in reverse, and so on:
			// each end of the line goes unwoken for three and then waits.
			orders := make([][]int, episodes)
			for e := range orders {
				orders[e] = up
				if e/3%2 == 1 {
					orders[e] = down
				}
			}
			return orders
		}},
		{"random", func(n int) [][]int {
			rng := rand.New(rand.NewSource(int64(n)))
			orders := make([][]int, episodes)
			for e := range orders {
				orders[e] = rng.Perm(n)
			}
			return orders
		}},
	}
	for _, procs := range []int{1, 2} {
		for _, n := range []int{2, 3, 5, 8, 31, 64} {
			for _, script := range scripts {
				t.Run(fmt.Sprintf("P=%d/width=%d/%s", procs, n, script.name), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					runScripted(t, csync.NewBarrier(n), script.orders(n))
				})
			}
		}
	}
}

// TestBarrierIsParBarrier pins the interface contract: a pkg/sync Barrier
// drops into code written against the internal/par phase-barrier shape.
func TestBarrierIsParBarrier(t *testing.T) {
	var b par.Barrier = csync.NewBarrier(4)
	pool := par.NewPool(4)
	pool.Start()
	defer pool.Stop()
	var hits atomic.Int64
	pool.Run(func(w int) {
		for i := 0; i < 50; i++ {
			hits.Add(1)
			b.Sync(w)
		}
	})
	if hits.Load() != 200 {
		t.Fatalf("hits %d, want 200", hits.Load())
	}
}

// TestBarrierWidthClamp: constructor clamps to one participant, and a
// single participant never blocks.
func TestBarrierWidthClamp(t *testing.T) {
	b := csync.NewBarrier(0)
	if b.Participants() != 1 {
		t.Fatalf("participants %d, want 1", b.Participants())
	}
	for i := 0; i < 5; i++ {
		b.Wait(0)
	}
}
