//go:build unix

package sync_test

import (
	stdsync "sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	csync "combining/pkg/sync"
)

// processCPU returns the user+system CPU time the process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuWhileBlocked starts waiters goroutines that each announce themselves
// and then call block, gives them hold to do nothing in, and returns the
// CPU time the process spent meanwhile.  release must unblock them all.
func cpuWhileBlocked(t *testing.T, waiters int, block func(id int), release func()) time.Duration {
	t.Helper()
	const hold = 100 * time.Millisecond
	var started atomic.Int32
	var wg stdsync.WaitGroup
	wg.Add(waiters)
	for id := 0; id < waiters; id++ {
		go func(id int) {
			defer wg.Done()
			started.Add(1)
			block(id)
		}(id)
	}
	for started.Load() < int32(waiters) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // the last to start spins and yields before it parks
	before := processCPU(t)
	time.Sleep(hold)
	used := processCPU(t) - before
	release()
	wg.Wait()
	return used
}

// maxBlockedCPU is what 64 waiters may burn in 100 ms of waiting.  Parked
// waiters burn none; spin-then-yield waiters kept every P busy for the
// whole hold (100 ms × GOMAXPROCS).
const maxBlockedCPU = 20 * time.Millisecond

// TestMCSLockWaitersPark: a queue behind a held lock costs no CPU.
func TestMCSLockWaitersPark(t *testing.T) {
	var l csync.MCSLock
	var guarded int
	holder := l.Lock()
	used := cpuWhileBlocked(t, 64, func(int) {
		q := l.Lock()
		guarded++
		l.Unlock(q)
	}, func() { l.Unlock(holder) })
	if guarded != 64 {
		t.Fatalf("%d critical sections ran, want 64", guarded)
	}
	if used > maxBlockedCPU {
		t.Fatalf("64 queued waiters used %v of CPU in 100ms, want under %v: they are not parked", used, maxBlockedCPU)
	}
}

// TestBarrierWaitersPark: early arrivers cost no CPU while the last
// participant is away.
func TestBarrierWaitersPark(t *testing.T) {
	const n = 64
	b := csync.NewBarrier(n)
	used := cpuWhileBlocked(t, n-1, func(id int) { b.Wait(id + 1) }, func() { b.Wait(0) })
	if used > maxBlockedCPU {
		t.Fatalf("%d early arrivers used %v of CPU in 100ms, want under %v: they are not parked", n-1, used, maxBlockedCPU)
	}
}

// TestParkedHandoffAllocFree: once a queue node or a barrier flag has
// parked once, parking on it again allocates nothing — its channel is made
// at most once.  AllocsPerRun pins GOMAXPROCS to 1, so the barrier's budget
// is 0 and every wait parks; the lock holder sleeps to outlast its waiter's
// spin and yields.
func TestParkedHandoffAllocFree(t *testing.T) {
	const warm, runs = 20, 100
	const calls = warm + runs + 1 // AllocsPerRun adds one warm-up call

	var l csync.MCSLock
	var q0, q1 csync.QNode
	turn, done := make(chan struct{}), make(chan struct{})
	go func() {
		for i := 0; i < calls; i++ {
			<-turn
			l.Acquire(&q1) // queues behind q0 and parks
			l.Release(&q1)
			done <- struct{}{}
		}
	}()
	handoff := func() {
		l.Acquire(&q0)
		turn <- struct{}{}
		time.Sleep(200 * time.Microsecond)
		l.Release(&q0)
		<-done
	}

	const width = 4
	b := csync.NewBarrier(width)
	for w := 1; w < width; w++ {
		go func(w int) {
			for i := 0; i < calls; i++ {
				b.Wait(w)
			}
		}(w)
	}
	episode := func() { b.Wait(0) }

	for i := 0; i < warm; i++ {
		handoff()
		episode()
	}
	if avg := testing.AllocsPerRun(runs, handoff); avg != 0 {
		t.Errorf("a parked MCS hand-off allocates %.2f objects, want 0", avg)
	}
	if avg := testing.AllocsPerRun(runs, episode); avg != 0 {
		t.Errorf("a parked barrier episode allocates %.2f objects, want 0", avg)
	}
}
