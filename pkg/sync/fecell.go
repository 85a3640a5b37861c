package sync

import (
	"runtime"
	"sync/atomic"

	"combining/internal/par"
)

// FECell states.  The transient feBusy state excludes the value word while
// an owner moves it; every visible state is feEmpty or feFull, matching
// the two-state tables of the paper's §5.5.
const (
	feEmpty uint32 = iota
	feFull
	feBusy
)

// FECell is a full/empty-bit synchronization cell, the software form of
// the paper's §5.5 data-level synchronization (as in the Denelcor HEP):
// one word of data plus a full/empty flag, with loads and stores
// conditioned on the flag.  Each method names the two-state table it
// implements in internal/rmw (fe-store-if-clear-and-set,
// fe-load-and-clear-if-set, fe-store-and-set), and a failed conditional
// returns false — the software image of the NAK the paper recovers from
// the old tag at decombining time.
//
// The blocking variants (Put, Take) give producer/consumer handoff without
// a lock on the data path: each value stored is consumed by exactly one
// Take.  Blocked consumers queue on one MCSLock and blocked producers on
// another, so each side has a single waiter holding its lock; that holder
// owns the side's par.Wait word, which every opposite transition sets, and
// waits on it spin-then-park like a lock waiter.  The side locks barge
// (MCSLock), so a newly blocked caller may be served before one that
// queued earlier and is still spinning.
//
// The zero value is an empty cell.
type FECell struct {
	state       atomic.Uint32
	full, empty par.Wait // awaited by the holder of takers / of putters
	_           [par.CacheLine - 40]byte
	val         int64 // guarded by state: written only empty→full, read only full→empty

	takers, putters MCSLock // queue the blocked callers of Take / Put
}

// publish ends a feBusy transition in state s and signals the side that
// waits for it.  The signal shares the state line the caller already owns.
func (c *FECell) publish(s uint32, w *par.Wait) {
	c.state.Store(s)
	w.Set(1)
}

// await runs try as the holder of its side's lock until it succeeds.  The
// holder clears its word before each attempt and the opposite side sets it
// after each transition, so either the attempt sees the transition or the
// Await sees the set (and a set that races the clear only costs a retry).
func (c *FECell) await(queue *MCSLock, w *par.Wait, try func() bool) {
	q := queue.Lock()
	for {
		w.Init(0)
		if try() {
			break
		}
		w.Await(1, par.SpinLimit)
	}
	queue.Unlock(q)
}

// TryPut is fe-store-if-clear-and-set: store v and set the flag only when
// the cell is empty; on a full cell it fails and reports false (the NAK).
func (c *FECell) TryPut(v int64) bool {
	for {
		switch c.state.Load() {
		case feFull:
			return false
		case feEmpty:
			if c.state.CompareAndSwap(feEmpty, feBusy) {
				c.val = v
				c.publish(feFull, &c.full)
				return true
			}
		default:
			// Another owner is mid-transition; its critical section is
			// two instructions, so a bare re-read suffices.
		}
	}
}

// TryTake is fe-load-and-clear-if-set (the queueing consumer operation):
// on a full cell it returns the value and empties the cell; on an empty
// cell it fails.
func (c *FECell) TryTake() (int64, bool) {
	for {
		switch c.state.Load() {
		case feEmpty:
			return 0, false
		case feFull:
			if c.state.CompareAndSwap(feFull, feBusy) {
				v := c.val
				c.publish(feEmpty, &c.empty)
				return v, true
			}
		default:
		}
	}
}

// Set is fe-store-and-set: store v and set the flag regardless of the
// cell's previous state.
func (c *FECell) Set(v int64) {
	// feBusy lasts two instructions on its owner's side, so this is a bare
	// bounded spin; it yields only in case that owner was descheduled
	// mid-transition, and never parks.
	for i := 0; ; i++ {
		s := c.state.Load()
		if s != feBusy && c.state.CompareAndSwap(s, feBusy) {
			c.val = v
			c.publish(feFull, &c.full)
			return
		}
		if i >= par.SpinLimit {
			runtime.Gosched()
		}
	}
}

// Put blocks until the cell is empty, then stores v and sets the flag —
// the producer half of the HEP handoff.
func (c *FECell) Put(v int64) {
	if !c.TryPut(v) {
		c.await(&c.putters, &c.empty, func() bool { return c.TryPut(v) })
	}
}

// Take blocks until the cell is full, then returns the value and empties
// the cell — the consumer half.  Each value Put is returned by exactly one
// Take.
func (c *FECell) Take() int64 {
	v, ok := c.TryTake()
	if !ok {
		c.await(&c.takers, &c.full, func() bool { v, ok = c.TryTake(); return ok })
	}
	return v
}

// Full reports whether the cell currently holds a value.  Like any
// flag read concurrent with producers and consumers it is advisory.
func (c *FECell) Full() bool { return c.state.Load() == feFull }
