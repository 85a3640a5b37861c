package memory

import (
	"combining/internal/core"
	"combining/internal/word"
)

// Array is a low-order-interleaved bank of modules: address a lives in
// module a mod m, the interleaving used by the Ultracomputer and RP3 to
// spread uniform traffic evenly.  An Array is itself a correct memory
// system by Lemma 3.1: each module is FIFO per location, and the
// module-selection function sends all requests for a location to the same
// module.
type Array struct {
	// modules are contiguous, in module order: a cycle engine ticks every
	// one of them every cycle, and walks them in that order.
	modules []Module
}

// NewArray builds m interleaved modules.
func NewArray(m int, opts ...Option) *Array {
	if m < 1 {
		panic("memory: array needs at least one module")
	}
	a := &Array{modules: make([]Module, m)}
	for i := range a.modules {
		a.modules[i].init(m, opts)
	}
	return a
}

// Modules returns the number of modules.
func (a *Array) Modules() int { return len(a.modules) }

// HomeOf returns the module index serving an address.
func (a *Array) HomeOf(addr word.Addr) int {
	return int(addr) % len(a.modules)
}

// Module returns module i.
func (a *Array) Module(i int) *Module { return &a.modules[i] }

// Do routes a request to its home module and executes it.
func (a *Array) Do(req core.Request) core.Reply {
	return a.modules[a.HomeOf(req.Addr)].Do(req)
}

// Peek reads a cell through the interleaving.
func (a *Array) Peek(addr word.Addr) word.Word {
	return a.modules[a.HomeOf(addr)].Peek(addr)
}

// Poke writes a cell through the interleaving.
func (a *Array) Poke(addr word.Addr, w word.Word) {
	a.modules[a.HomeOf(addr)].Poke(addr, w)
}

// TotalServed sums completed requests across modules.
func (a *Array) TotalServed() int64 {
	var n int64
	for i := range a.modules {
		n += a.modules[i].Served
	}
	return n
}

// MaxQueueDepth returns the deepest input queue observed on any module —
// the memory-side high-water mark the backpressure acceptance criteria
// bound.
func (a *Array) MaxQueueDepth() int {
	max := 0
	for i := range a.modules {
		if d := a.modules[i].MaxQueue(); d > max {
			max = d
		}
	}
	return max
}

// TotalDedupHits sums reply-cache hits across modules (zero unless the
// modules were built WithReplyCache).  Reads under each module's lock, so
// it is safe while asynchronous traffic is in flight.
func (a *Array) TotalDedupHits() int64 {
	var n int64
	for i := range a.modules {
		n += a.modules[i].DedupHitCount()
	}
	return n
}

// CachedLeaves counts the leaves the modules' reply caches hold, committed
// or not (owner only: between steps).
func (a *Array) CachedLeaves() int {
	n := 0
	for i := range a.modules {
		if c := a.modules[i].replyCache; c != nil {
			n += c.len()
		}
	}
	return n
}
