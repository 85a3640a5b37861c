package sync_test

import (
	"fmt"
	"runtime"
	stdsync "sync"
	"sync/atomic"
	"testing"

	"combining/internal/par"
	csync "combining/pkg/sync"
)

// Stdlib-baseline benchmarks for the three primitives — the one wall-clock
// home of these comparisons beside bench/run.sh's sync_* workloads
// (BENCH_combining.json is cycle-domain only).  CI runs them in smoke mode
// (-benchtime=1x); `make syncbench` runs them for real.
//
// The lock and barrier benchmarks come in two regimes: matched (one
// goroutine per P, where spinning pays) and oversubscribed (oversubWidth
// goroutines on the same Ps, where only a parked waiter is free).

const oversubWidth = 64

// matchedWidth is one goroutine per P, but at least the two a barrier
// needs to have anything to wait for.
func matchedWidth() int { return max(2, runtime.GOMAXPROCS(0)) }

// oversubscribe makes b.RunParallel start oversubWidth goroutines (rounded
// up to a multiple of GOMAXPROCS).
func oversubscribe(b *testing.B) {
	p := runtime.GOMAXPROCS(0)
	b.SetParallelism((oversubWidth + p - 1) / p)
}

func BenchmarkSyncCounterAdd(b *testing.B) {
	c := csync.NewCounter()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkSyncAtomicAdd(b *testing.B) {
	var v atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v.Add(1)
		}
	})
}

func BenchmarkSyncMutexCounterAdd(b *testing.B) {
	var mu stdsync.Mutex
	var v int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			v++
			mu.Unlock()
		}
	})
	_ = v
}

func benchMCSLock(b *testing.B) {
	var l csync.MCSLock
	var v int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := l.Lock()
			v++
			l.Unlock(q)
		}
	})
}

func benchStdMutexLock(b *testing.B) {
	var mu stdsync.Mutex
	var v int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			v++
			mu.Unlock()
		}
	})
}

func BenchmarkSyncMCSLock(b *testing.B)      { benchMCSLock(b) }
func BenchmarkSyncStdMutexLock(b *testing.B) { benchStdMutexLock(b) }

func BenchmarkSyncMCSLockOversub(b *testing.B) {
	oversubscribe(b)
	benchMCSLock(b)
}

func BenchmarkSyncStdMutexLockOversub(b *testing.B) {
	oversubscribe(b)
	benchStdMutexLock(b)
}

// benchBarrier times one episode of an n-wide barrier, driven through the
// internal/par phase-barrier contract.
func benchBarrier(b *testing.B, bar par.Barrier, n int) {
	var wg stdsync.WaitGroup
	start := make(chan struct{})
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < b.N; i++ {
				bar.Sync(w)
			}
		}(w)
	}
	b.ResetTimer()
	close(start)
	for i := 0; i < b.N; i++ {
		bar.Sync(0)
	}
	b.StopTimer()
	wg.Wait()
}

// benchForkJoin times the stdlib's idiomatic equivalent of one barrier
// episode (it has no reusable barrier): fork n-1 goroutines and join them.
func benchForkJoin(b *testing.B, n int) {
	for i := 0; i < b.N; i++ {
		var wg stdsync.WaitGroup
		for w := 1; w < n; w++ {
			wg.Add(1)
			go func() { defer wg.Done() }()
		}
		wg.Wait()
	}
}

func BenchmarkSyncBarrier(b *testing.B) {
	benchBarrier(b, csync.NewBarrier(matchedWidth()), matchedWidth())
}
func BenchmarkSyncWaitGroupForkJoin(b *testing.B) { benchForkJoin(b, matchedWidth()) }
func BenchmarkSyncBarrierOversub(b *testing.B) {
	benchBarrier(b, csync.NewBarrier(oversubWidth), oversubWidth)
}
func BenchmarkSyncWaitGroupForkJoinOversub(b *testing.B) { benchForkJoin(b, oversubWidth) }

// BenchmarkSyncBarrierGrid is ROADMAP item 5's grid: the repo's two
// reusable barrier families at widths from matched to far oversubscribed.
// The combining tree parks its waiters; internal/par's sense-reversing
// barrier spins and then yields, which is what the two-worker phase barrier
// of the parallel stepper wants and what 64 goroutines on two Ps cannot
// afford.  EXPERIMENTS.md E23 has the table.
func BenchmarkSyncBarrierGrid(b *testing.B) {
	families := []struct {
		name string
		make func(n int) par.Barrier
	}{
		{"tree", func(n int) par.Barrier { return csync.NewBarrier(n) }},
		{"sense", func(n int) par.Barrier { return par.NewSenseBarrier(n) }},
	}
	for _, f := range families {
		for _, n := range []int{2, 4, 8, 16, 64} {
			b.Run(fmt.Sprintf("%s/width=%d", f.name, n), func(b *testing.B) {
				benchBarrier(b, f.make(n), n)
			})
		}
	}
}

// BenchmarkSyncFECellTry is the non-blocking pair, TryPut then TryTake,
// each succeeding, on one goroutine; BenchmarkSyncSelectTry is the same
// pair as selects with a default case on a channel of capacity one.
func BenchmarkSyncFECellTry(b *testing.B) {
	var c csync.FECell
	for i := 0; i < b.N; i++ {
		c.TryPut(int64(i))
		c.TryTake()
	}
}

func BenchmarkSyncSelectTry(b *testing.B) {
	ch := make(chan int64, 1)
	for i := 0; i < b.N; i++ {
		select {
		case ch <- int64(i):
		default:
		}
		select {
		case <-ch:
		default:
		}
	}
}
