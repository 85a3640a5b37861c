// Package coord implements the fetch-and-add coordination algorithms of
// the Ultracomputer line (Gottlieb, Lubachevsky, Rudolph [10]; Section 2 of
// the paper): counters, barriers and a bounded MPMC queue, all built on
// combinable RMW operations so that under combining their hot spots do not
// serialize.
//
// Every algorithm is written against the Memory/Cell abstraction and runs
// on native atomics (Native).  The algorithms spin, so they run as
// goroutines rather than as programs on the cycle machine, whose
// instructions cannot loop on a reply.
//
// Construction convention: each participant builds its own instance of a
// primitive over its own Memory view; instances constructed with the same
// base address alias the same shared cells.  Constructors never write to
// memory, so late joiners cannot clobber live state.
package coord

import (
	"runtime"
	"sync"
	"sync/atomic"

	"combining/internal/word"
)

// Cell is one shared integer cell as seen by one participant.
type Cell interface {
	// FetchAdd atomically adds delta and returns the old value.
	FetchAdd(delta int64) int64
	// Load returns the current value.
	Load() int64
	// Store replaces the value.
	Store(v int64)
	// Swap replaces the value and returns the old one.
	Swap(v int64) int64
}

// Memory hands out a participant's view of shared cells.  Views from
// different participants of the same address alias the same cell.
type Memory interface {
	Cell(addr word.Addr) Cell
}

// Native is a Memory backed by in-process atomics — the reference
// substrate for the algorithms.
type Native struct {
	mu    sync.Mutex
	cells map[word.Addr]*atomic.Int64
}

// NewNative returns an empty native memory.
func NewNative() *Native {
	return &Native{cells: make(map[word.Addr]*atomic.Int64)}
}

// Cell implements Memory.
func (n *Native) Cell(addr word.Addr) Cell {
	n.mu.Lock()
	defer n.mu.Unlock()

	c, ok := n.cells[addr]
	if !ok {
		c = &atomic.Int64{}
		n.cells[addr] = c
	}
	return nativeCell{c}
}

type nativeCell struct{ v *atomic.Int64 }

func (c nativeCell) FetchAdd(d int64) int64 { return c.v.Add(d) - d }
func (c nativeCell) Load() int64            { return c.v.Load() }
func (c nativeCell) Store(v int64)          { c.v.Store(v) }
func (c nativeCell) Swap(v int64) int64     { return c.v.Swap(v) }

// spin yields the processor between retries of a busy-wait loop.
func spin() { runtime.Gosched() }

// Counter is a shared event counter.
type Counter struct {
	c Cell
}

// NewCounter binds a counter to a cell.
func NewCounter(m Memory, addr word.Addr) *Counter {
	return &Counter{c: m.Cell(addr)}
}

// Inc adds one and returns the ticket (old value) — the fetch-and-add
// idiom for index assignment.
func (c *Counter) Inc() int64 { return c.c.FetchAdd(1) }

// Barrier is a reusable N-party phase barrier built from a count cell and
// a generation cell, the standard fetch-and-add construction: the last
// arriver resets the count and bumps the generation; everyone else spins
// on the generation.
type Barrier struct {
	n     int64
	count Cell
	gen   Cell
}

// NewBarrier builds a barrier for n participants using two cells starting
// at base.
func NewBarrier(m Memory, base word.Addr, n int) *Barrier {
	if n < 1 {
		panic("coord: barrier needs at least one participant")
	}
	return &Barrier{n: int64(n), count: m.Cell(base), gen: m.Cell(base + 1)}
}

// Await blocks until all n participants have called Await for the current
// phase.
func (b *Barrier) Await() {
	g := b.gen.Load()
	if b.count.FetchAdd(1) == b.n-1 {
		b.count.FetchAdd(-b.n)
		b.gen.FetchAdd(1)
		return
	}
	for b.gen.Load() == g {
		spin()
	}
}

// Queue is the bounded MPMC FIFO of the Ultracomputer operating system:
// head and tail tickets are assigned by fetch-and-add (combinable, so a
// burst of enqueuers is serviced in one memory access), and per-slot turn
// counters sequence reuse of the ring.
type Queue struct {
	size       int64
	head, tail Cell
	turn       []Cell
	data       []Cell
}

// NewQueue builds a queue with the given ring size, using 2+2·size cells
// starting at base.
func NewQueue(m Memory, base word.Addr, size int) *Queue {
	if size < 1 {
		panic("coord: queue needs size ≥ 1")
	}
	q := &Queue{
		size: int64(size),
		head: m.Cell(base),
		tail: m.Cell(base + 1),
	}
	for i := 0; i < size; i++ {
		q.turn = append(q.turn, m.Cell(base+2+word.Addr(i)))
		q.data = append(q.data, m.Cell(base+2+word.Addr(size+i)))
	}
	return q
}

// Enqueue appends v, blocking (busy-wait) while the ring is full.
func (q *Queue) Enqueue(v int64) {
	t := q.tail.FetchAdd(1)
	slot, round := t%q.size, t/q.size
	for q.turn[slot].Load() != 2*round {
		spin()
	}
	q.data[slot].Store(v)
	q.turn[slot].Store(2*round + 1)
}

// Dequeue removes the oldest element, blocking while the queue is empty.
func (q *Queue) Dequeue() int64 {
	h := q.head.FetchAdd(1)
	slot, round := h%q.size, h/q.size
	for q.turn[slot].Load() != 2*round+1 {
		spin()
	}
	v := q.data[slot].Load()
	q.turn[slot].Store(2*round + 2)
	return v
}
