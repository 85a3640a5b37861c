package sync

import (
	"runtime"
	stdsync "sync"
	"sync/atomic"

	"combining/internal/par"
)

// QNode is the queue node a contended MCSLock acquirer waits on until it
// heads the queue.  Each node occupies its own cache line, so a waiter's
// spin loads hit a line that exactly one other goroutine — its predecessor
// in the queue — will ever write, and the write that ends the wait is the
// only remote reference passing headship costs.  A QNode may be reused
// freely once the Acquire that used it has returned, but must never be
// shared by two concurrent acquisitions.
// The zero value is ready to use.
type QNode struct {
	next atomic.Pointer[QNode]
	wait par.Wait // 1 while queued; the predecessor sets 0 once it holds the lock
	_    [par.CacheLine - 24]byte
}

// Lock-word states.  lockParked is set only by the queue head, and only
// while the lock is held; it tells the holder's Release to hand the lock
// straight to that head instead of freeing it.
const (
	lockHeld   uint32 = 1 << iota // some goroutine holds the lock
	lockParked                    // the queue head is parked on MCSLock.head
)

// MCSLock is a Mellor-Crummey–Scott queue lock with a barging fast path in
// front of the queue (the shape of Linux's qspinlock).  An acquirer that
// finds the lock free takes it with one compare-and-swap on the lock word.
// A contended acquirer queues as in MCS: a single atomic swap on the tail
// pointer (the paper's combinable I_v mapping with the old value returned
// — a swap), after which it waits only on its own QNode.  Only the queue
// head waits on the lock word, and it passes headship on with one remote
// write into its successor's node once it holds the lock.  Remote
// references per acquisition are O(1) no matter how many goroutines
// contend, and the head is the only waiter that reads a shared line, where
// a test-and-set or ticket lock generates O(waiters) coherence traffic per
// hand-off.
//
// Every wait is spin-then-park (par.Wait).  A queued waiter parks on a
// channel private to its node; the head, after its spin budget, sets the
// lockParked bit and parks on the lock's own wait word, and the next
// Release hands it the lock directly: the word stays held, so no barger can
// slip in between.  A hand-off therefore never waits for a sleeping
// successor unless that successor has already spun out its budget, and a
// queue of any depth costs the scheduler nothing until each waiter's turn.
//
// The lock is not strictly FIFO.  A running acquirer can overtake the queue
// head while the head spins, never once it has parked; queued waiters keep
// FIFO order among themselves.
//
// The zero value is an unlocked lock.  Use Lock/Unlock for the pooled
// convenience API, or Acquire/Release with caller-owned QNodes to keep the
// queue nodes in memory the caller controls.
type MCSLock struct {
	state atomic.Uint32 // lockHeld | lockParked
	head  par.Wait      // owned by the queue head; Release sets 1 to hand over
	_     [par.CacheLine - 24]byte
	tail  atomic.Pointer[QNode]
	_     [par.CacheLine - 8]byte
	pool  stdsync.Pool
}

// Acquire blocks until the caller holds the lock, queueing on q if the
// lock is taken.  q must not be in use by any other acquisition; it is
// free again once Acquire returns.
func (l *MCSLock) Acquire(q *QNode) {
	if l.state.CompareAndSwap(0, lockHeld) {
		return // the barge: the lock was free and no head has parked
	}
	q.next.Store(nil)
	if pred := l.tail.Swap(q); pred != nil {
		// Arm our own word, link behind the predecessor (which cannot
		// write the word before it sees the link), then wait on our own
		// line until the predecessor passes headship on.
		q.wait.Init(1)
		pred.next.Store(q)
		q.wait.Await(0, par.SpinLimit)
	}
	l.acquireAsHead()
	// Holding the lock, pass headship to the successor, or close the
	// queue.  Failure to close means a new waiter swapped itself in after
	// us but has not linked yet.
	next := q.next.Load()
	if next == nil {
		if l.tail.CompareAndSwap(q, nil) {
			return
		}
		// The link is two instructions away on the waiter's side, so this
		// is a bare bounded spin; it yields only in case the waiter was
		// descheduled between its swap and its link, and never parks.
		for i := 0; next == nil; i++ {
			if i >= par.SpinLimit {
				runtime.Gosched()
			}
			next = q.next.Load()
		}
	}
	next.wait.Set(0) // the single remote write that makes the successor head
}

// acquireAsHead takes the lock for the queue head: spin on the lock word,
// yield, then park and let the next Release hand the lock over.  The
// parked bit goes in with a compare-and-swap against lockHeld, ordered
// against Release's compare-and-swap of lockHeld to 0 on the same word:
// either the release comes first and the head sees a free lock and
// retries, or it comes second, sees the bit and hands off.  Only the
// lock's holder clears the bit, so no wakeup is lost.
func (l *MCSLock) acquireAsHead() {
	spin, yields := par.SpinLimit, 2 // par.Wait's budget: SpinLimit loads, two yields
	for {
		switch s := l.state.Load(); {
		case s == 0:
			if l.state.CompareAndSwap(0, lockHeld) {
				return
			}
		case spin > 0:
			spin--
		case yields > 0:
			yields--
			runtime.Gosched()
		default:
			l.head.Init(0)
			if l.state.CompareAndSwap(lockHeld, lockHeld|lockParked) {
				l.head.Await(1, 0) // the waker handed the lock over
				return
			}
		}
	}
}

// Release unlocks the lock.  If the queue head has parked, the lock passes
// straight to it: the word stays held, and one swap on the head's word
// wakes it.  q is the node the matching Acquire used; the queue is done
// with it by then, so Release does not touch it.
func (l *MCSLock) Release(q *QNode) {
	if !l.state.CompareAndSwap(lockHeld, 0) {
		l.state.Store(lockHeld)
		l.head.Set(1)
	}
}

// Lock acquires the lock using a pooled QNode and returns it; pass the
// node to Unlock.  The pool keeps the steady state allocation-free while
// letting callers ignore queue-node management entirely.
func (l *MCSLock) Lock() *QNode {
	q, _ := l.pool.Get().(*QNode)
	if q == nil {
		q = new(QNode)
	}
	l.Acquire(q)
	return q
}

// Unlock releases the lock and recycles the QNode returned by Lock.
func (l *MCSLock) Unlock(q *QNode) {
	l.Release(q)
	l.pool.Put(q)
}
