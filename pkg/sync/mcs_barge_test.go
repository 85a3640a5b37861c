package sync

import (
	"runtime"
	stdsync "sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMCSLockHandsOffToParkedHead: once the queue head has parked, the next
// Release passes the lock straight to it.  The word stays held across the
// hand-off, so bargers racing the release queue behind the head instead of
// overtaking it.
func TestMCSLockHandsOffToParkedHead(t *testing.T) {
	const bargers = 4
	var l MCSLock
	var q0, qh QNode
	var order []string // appended under the lock
	l.Acquire(&q0)

	proceed := make(chan struct{})
	var wg stdsync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.Acquire(&qh) // the queue is empty, so this is its head
		order = append(order, "head")
		<-proceed
		l.Release(&qh)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for l.state.Load() != lockHeld|lockParked {
		if time.Now().After(deadline) {
			t.Fatal("the queue head never parked")
		}
		time.Sleep(time.Millisecond)
	}

	var start atomic.Bool
	wg.Add(bargers)
	for b := 0; b < bargers; b++ {
		go func() {
			defer wg.Done()
			for !start.Load() {
				runtime.Gosched()
			}
			var q QNode
			l.Acquire(&q)
			order = append(order, "barger")
			l.Release(&q)
		}()
	}
	start.Store(true)
	l.Release(&q0)
	if s := l.state.Load(); s != lockHeld {
		t.Errorf("lock word after the hand-off is %#x, want lockHeld (%#x)", s, lockHeld)
	}
	close(proceed)
	wg.Wait()
	if len(order) != 1+bargers || order[0] != "head" {
		t.Fatalf("critical sections ran in order %v, want the parked head first", order)
	}
}

// TestMCSLockNoStarvation: two goroutines re-acquiring the lock as fast as
// they can never keep a queued third out for long — bargers overtake the
// head only while it spins, and a parked head gets the next release.
func TestMCSLockNoStarvation(t *testing.T) {
	var l MCSLock
	var stop atomic.Bool
	var wg stdsync.WaitGroup
	wg.Add(2)
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			var q QNode
			for !stop.Load() {
				l.Acquire(&q)
				l.Release(&q)
			}
		}()
	}
	defer func() { stop.Store(true); wg.Wait() }()
	var q QNode
	for i := 0; i < 100; i++ {
		done := make(chan struct{})
		go func() {
			l.Acquire(&q)
			l.Release(&q)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("acquisition %d still waiting after 5s behind two looping holders", i)
		}
	}
}

// TestMCSLockLostWakeupStress runs many short critical sections at several
// GOMAXPROCS widths, every 64th of them yielding while it holds the lock so
// that heads spin out and park, and are handed the lock while bargers race
// the releases; a lost wakeup shows as the watchdog firing.
func TestMCSLockLostWakeupStress(t *testing.T) {
	const goroutines, ops = 64, 2000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		var l MCSLock
		var v int // guarded by l
		var wg stdsync.WaitGroup
		wg.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			go func() {
				defer wg.Done()
				var q QNode
				for i := 0; i < ops; i++ {
					l.Acquire(&q)
					v++
					if i%64 == 0 {
						runtime.Gosched()
					}
					l.Release(&q)
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("GOMAXPROCS=%d: %d goroutines still blocked after 60s: a wakeup was lost", procs, goroutines)
		}
		if v != goroutines*ops {
			t.Fatalf("GOMAXPROCS=%d: counter %d, want %d", procs, v, goroutines*ops)
		}
	}
}
