package sync

import (
	"runtime"
	stdsync "sync"
	"sync/atomic"

	"combining/internal/par"
)

// shard is one leaf of the counter's combining tree: an independent
// fetch-and-add cell on its own cache line.
type shard struct {
	v atomic.Int64
	_ [par.CacheLine - 8]byte
}

// Counter is a sharded combining counter: a scalable fetch-and-add cell
// for hot-spot workloads where thousands of goroutines hammer one tally.
//
// Add lands on one of a fixed power-of-two set of cache-line-padded
// shards, so concurrent adders perform their atomic fetch-and-adds on
// lines nothing else is writing — the same decomposition the paper's
// combining network performs in hardware, where simultaneous fetch-and-adds
// to one cell are merged pairwise at the switches and the memory module
// sees one combined delta.  Shard affinity rides on a sync.Pool, whose
// per-P caches keep goroutines running on the same processor adding to the
// same shard; a pool miss falls back to round-robin assignment, never to
// allocation, so the steady-state Add path allocates nothing (asserted by
// TestCounterAddAllocFree).
//
// Read combines the shards pairwise up a binary tree, mirroring
// combine-at-switch: level by level, each surviving node absorbs its
// neighbour's partial sum, exactly the f∘g composition of two fetch-and-add
// mappings (Assoc: faa(a)∘faa(b) = faa(a+b)).  Because fetch-and-add is
// commutative and associative, the tree order is immaterial and the result
// equals the serial oracle's final memory for the same trace of adds —
// the differential test checks precisely that.
//
// The trade a sharded counter makes is the paper's own: updates scale
// contention-free, but a read is O(shards) and returns a linearizable
// value only when it does not race with concurrent adds (a racing Read
// sees some adds and not others, like any snapshot of a moving total).
// Add does not return the old global value — a global fetch-and-add is
// exactly the hot spot the shards exist to avoid; use MCSLock or FECell
// when replies must be globally ordered.
type Counter struct {
	shards []shard
	next   atomic.Uint32
	pool   stdsync.Pool
}

// NewCounter returns a counter sharded for the current GOMAXPROCS (one
// shard per processor, rounded up to a power of two).
func NewCounter() *Counter {
	return NewCounterShards(runtime.GOMAXPROCS(0))
}

// NewCounterShards returns a counter with at least k shards, rounded up to
// a power of two (k ≤ 1 gives a single shard — a plain atomic cell).
func NewCounterShards(k int) *Counter {
	n := 1
	for n < k {
		n <<= 1
	}
	return &Counter{shards: make([]shard, n)}
}

// readBuf is how many shards Read combines on its own stack: NewCounter's
// one per processor fits on any host up to 64 Ps, and a wider counter pays
// one allocation per Read.
const readBuf = 64

// Shards reports the shard count.
func (c *Counter) Shards() int { return len(c.shards) }

// Add adds delta to the counter.  The shard is drawn from a per-P pool
// (affine to the calling processor); a miss assigns one round-robin.
// Steady state performs one pool get, one uncontended atomic add, one pool
// put, and no allocation.
func (c *Counter) Add(delta int64) {
	s, _ := c.pool.Get().(*shard)
	if s == nil {
		s = &c.shards[c.next.Add(1)&uint32(len(c.shards)-1)]
	}
	s.v.Add(delta)
	c.pool.Put(s)
}

// Read combines the shard totals pairwise up a binary tree and returns the
// sum.  Concurrent with adders it returns a snapshot (every add is counted
// exactly once — by this read or a later one); quiescent it is exact.
func (c *Counter) Read() int64 {
	var buf [readBuf]int64
	vals := buf[:]
	if len(c.shards) > len(buf) {
		vals = make([]int64, len(c.shards))
	}
	vals = vals[:len(c.shards)]
	for i := range c.shards {
		vals[i] = c.shards[i].v.Load()
	}
	// Combine-at-switch: at each level, node i absorbs node i+stride —
	// the Assoc composition faa(x)∘faa(y) = faa(x+y) — halving the live
	// nodes until the root holds the combined delta.
	for stride := 1; stride < len(vals); stride <<= 1 {
		for i := 0; i+stride < len(vals); i += 2 * stride {
			vals[i] += vals[i+stride]
		}
	}
	return vals[0]
}
