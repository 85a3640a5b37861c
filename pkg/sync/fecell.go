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
// the old tag at decombining time.  A producer/consumer hand-off retries a
// failed conditional, the paper's busy-waiting model: each value stored by
// a successful TryPut is returned by exactly one successful TryTake.
//
// The zero value is an empty cell.
type FECell struct {
	state atomic.Uint32
	val   int64 // guarded by state: written only empty→full, read only full→empty
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
				c.state.Store(feFull)
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
				c.state.Store(feEmpty)
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
			c.state.Store(feFull)
			return
		}
		if i >= par.SpinLimit {
			runtime.Gosched()
		}
	}
}

// Full reports whether the cell currently holds a value.  Like any
// flag read concurrent with producers and consumers it is advisory.
func (c *FECell) Full() bool { return c.state.Load() == feFull }
