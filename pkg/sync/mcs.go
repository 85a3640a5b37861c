package sync

import (
	"runtime"
	stdsync "sync"
	"sync/atomic"

	"combining/internal/par"
)

// QNode is the queue node an MCSLock waiter waits on.  Each node occupies
// its own cache line, so a waiter's spin loads hit a line that exactly one
// other goroutine — its predecessor in the queue — will ever write, and the
// write that ends the wait is the only remote reference the handoff costs.
// A QNode may be reused freely once the Acquire/Release pair that used it
// has completed, but must never be shared by two concurrent acquisitions.
// The zero value is ready to use.
type QNode struct {
	next atomic.Pointer[QNode]
	wait par.Wait // 1 while queued; the predecessor's Release sets 0
	_    [par.CacheLine - 24]byte
}

// MCSLock is a Mellor-Crummey–Scott queue lock: acquisition is a single
// atomic swap on the tail pointer (the paper's combinable I_v mapping with
// the old value returned — a swap), after which the waiter spins only on
// its own QNode.  Release either clears the tail (uncontended) or performs
// one remote write, a swap, into the successor's node.  Remote references
// per acquisition are O(1) no matter how many goroutines contend, where a
// test-and-set or ticket lock generates O(waiters) coherence traffic per
// handoff.
//
// The wait is spin-then-park (par.Wait): a waiter that outlasts its spin
// budget blocks on a channel private to its node, and the swap that hands
// the lock over tells the releaser whether to send on it.  A queue of any
// depth therefore costs the scheduler nothing until each waiter's turn, and
// the shape above is untouched: one swap on tail per acquire, each waiter
// waits only on its own QNode, one remote write per hand-off.
//
// The zero value is an unlocked lock.  Use Lock/Unlock for the pooled
// convenience API, or Acquire/Release with caller-owned QNodes to keep the
// queue nodes in memory the caller controls.
type MCSLock struct {
	tail atomic.Pointer[QNode]
	_    [par.CacheLine - 8]byte
	pool stdsync.Pool
}

// Acquire enqueues q and blocks until the caller holds the lock.  q must
// not be in use by any other acquisition.
func (l *MCSLock) Acquire(q *QNode) {
	q.next.Store(nil)
	pred := l.tail.Swap(q) // the one atomic RMW of the acquisition
	if pred == nil {
		return // lock was free: no predecessor, no waiting
	}
	// Arm our own word, link behind the predecessor (which cannot write
	// the word before it sees the link), then wait on our own line until
	// the predecessor's release hands the lock over.
	q.wait.Init(1)
	pred.next.Store(q)
	q.wait.Await(0, par.SpinLimit)
}

// Release unlocks the lock acquired with q, handing it to the successor if
// one is queued.
func (l *MCSLock) Release(q *QNode) {
	next := q.next.Load()
	if next == nil {
		// No known successor: try to close the queue.  Failure means a
		// new waiter swapped itself in after us but has not linked yet.
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
	next.wait.Set(0) // the single remote write that ends the successor's wait
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
