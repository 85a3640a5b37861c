package par

import (
	"runtime"
	"sync/atomic"
)

// This file holds the waiting vocabulary shared by the phase barriers in
// par.go and by the contention-free primitives in pkg/sync: a per-episode
// spin budget for fixed-width barrier participants (SpinPolicy), and the
// single-owner wait word (Wait) every pkg/sync waiter blocks on.  Both obey
// the same rule: spinning is only worth it when the goroutine being waited
// for can run on another processor, so a width-versus-GOMAXPROCS deficit
// collapses the budget to zero.

// CacheLine is the coherence-granule size the padded spin flags are spaced
// by; 64 bytes covers the common cases (x86-64, most arm64).  Exported so
// pkg/sync pads its queue nodes, shards and flags identically.
const CacheLine = 64

// SpinLimit bounds the pure spin before a waiter starts yielding; it is the
// budget for waits whose peer count is unknown (a lock queue, a full/empty
// cell).  yieldLimit bounds the yields before the waiter parks: a peer that
// is runnable on this processor gets to finish, and a long wait costs two
// scheduler passes and then nothing (EXPERIMENTS.md E18 has the sweep).
const (
	SpinLimit  = 256
	yieldLimit = 2
)

// SpinPolicy is the shared spin budget for n fixed participants,
// re-evaluated against GOMAXPROCS once per barrier episode by whichever
// participant the implementation designates (the last arriver for central
// barriers, worker 0 for the combining-tree barrier) so a
// GOMAXPROCS change mid-run takes effect by the next episode without every
// waiter hammering the scheduler lock.
type SpinPolicy struct {
	n      int32
	budget atomic.Int32
}

// Init sets the participant count and computes the initial budget.
func (s *SpinPolicy) Init(n int) {
	s.n = int32(n)
	s.Refresh()
}

// Refresh recomputes the budget against the current GOMAXPROCS: zero (stop
// spinning at once) when the participants outnumber the processors, the
// full spin limit otherwise.
func (s *SpinPolicy) Refresh() {
	if int(s.n) > runtime.GOMAXPROCS(0) {
		s.budget.Store(0)
	} else {
		s.budget.Store(SpinLimit)
	}
}

// SpinBudget returns the pure-spin iteration budget for the current
// episode.
func (s *SpinPolicy) SpinBudget() int32 { return s.budget.Load() }

// parked is the bit of a Wait word that says its owner is blocked on the
// channel; values passed to Init, Set and Await must leave it clear.
const parked = 1 << 31

// Wait is a wait word with a single owner: at any time at most one
// goroutine calls Init and Await on it (ownership may pass between
// goroutines through any happens-before edge, e.g. a lock), while any
// goroutine may Set it.  The owner spins, then yields, then parks on a
// lazily made channel, so a descheduled waiter costs its waker one channel
// send and everyone else nothing.  The zero value holds 0.
//
// No wakeup is lost: the owner announces itself with a compare-and-swap of
// the parked bit into the word it just read, and Set is a swap.  Both are
// sequentially consistent operations on one word, so either the swap comes
// first — the compare-and-swap fails and the owner re-reads the new value —
// or it comes second, sees the bit and sends.  The swap also clears the
// bit, so each park is matched by exactly one send and the 1-buffered
// channel never blocks the waker.
type Wait struct {
	v  atomic.Uint32
	ch chan struct{} // made by the owner before it first parks
}

// Init stores val with a plain atomic store.  Only the owner may call it,
// and only while no Set can race with it or when losing that Set is
// harmless to the caller's protocol.
func (w *Wait) Init(val uint32) { w.v.Store(val) }

// Set publishes val and wakes the owner if it has parked: one atomic swap,
// the single remote write a local-spin hand-off costs.
func (w *Wait) Set(val uint32) {
	if w.v.Swap(val)&parked != 0 {
		w.ch <- struct{}{}
	}
}

// Await blocks the owner until the word equals val: spin loads first,
// then yieldLimit yields, then parked.  A zero spin budget means the
// awaited goroutine cannot be running elsewhere, so yielding in the hope
// that it soon stores is skipped too and the owner parks at once.
func (w *Wait) Await(val uint32, spin int32) {
	yields := yieldLimit
	if spin == 0 {
		yields = 0
	}
	for {
		cur := w.v.Load()
		switch {
		case cur == val:
			return
		case spin > 0:
			spin--
		case yields > 0:
			yields--
			runtime.Gosched()
		default:
			if w.ch == nil {
				w.ch = make(chan struct{}, 1)
			}
			if w.v.CompareAndSwap(cur, cur|parked) {
				<-w.ch
			}
		}
	}
}
