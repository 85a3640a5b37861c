package sync

import (
	"sync/atomic"

	"combining/internal/par"
)

// flag is a one-word wait target on its own cache line, written by exactly
// one peer and awaited by exactly one owner per episode.
type flag struct {
	v par.Wait
	_ [par.CacheLine - 16]byte
}

// node is one switch of the combining tree, on its own cache line: it holds
// the name (index + 1) of the subtree representative that reached it first
// this episode, or 0.
type node struct {
	v atomic.Uint32
	_ [par.CacheLine - 4]byte
}

// local is a participant's private episode number, padded so advancing it
// never invalidates a line another participant reads.
type local struct {
	episode uint32
	_       [par.CacheLine - 4]byte
}

const (
	// episodeEnd is one past the last episode number: numbers run 1 to
	// episodeEnd−1 and start over, so they never carry par.Wait's parked bit
	// and never equal a flag's zero value.
	episodeEnd = 1 << 31
	// maxRounds bounds the tree height: a name is a uint32.  (Memory bounds
	// it long before: a participant costs three cache lines.)
	maxRounds = 32
)

// Barrier is a combining-tree barrier for a fixed set of n participants, the
// paper's barrier fetch-and-add in software: arrivals combine pairwise on
// the way up a fan-in-2 tree, the release decombines on the way down, and
// nobody waits in the forward direction.
//
// The level-r node of participant w is i = w>>(r+1); it joins the subtree
// that starts at participant (2i)<<r with the one that starts at (2i+1)<<r,
// and is a bye when the second is empty.  Arriving at a node is one swap of the
// caller's name into it.  Zero back: first here — the other subtree has
// not arrived, so the caller stops climbing and waits on its own wake-up
// flag.  A name back: last here — both subtrees have arrived, so the
// caller clears the node, remembers whom it beat, and carries the combined
// arrival up.  Winners are dynamic: at every node the later of the two
// climbs, so whoever is last at the root has seen the whole machine arrive
// without waiting once, and every other participant waits exactly once.
// The release retraces each climber's remembered names top-down with one
// store apiece, and each woken participant does the same for the names it
// collected before it stopped — the swap doing the wait buffer's job.
//
// A node holds only a name; the waiting is done on per-participant flags,
// so a flag has one owner for the life of the barrier.  A flag is written
// only in the episodes its owner waits, so a one-bit sense cannot tell a
// fresh release from one two episodes old; flags carry the episode number
// instead.  It runs from 1 to 2³¹−1, and a participant zeroes its own flag
// when its number starts over, so the flag always holds a smaller number of
// the current run or zero and never the one its owner is about to await.
//
// Every node and flag is on its own cache line.  A node takes two swaps and
// one clear per episode, a flag one store, so an episode is O(1) remote
// references per node, n−1 wake-ups in all, and nothing serializes on a
// central counter.
//
// Barrier implements the same Sync(worker) contract as the phase barriers
// in internal/par and reuses their episode spin policy: the spin budget is
// re-evaluated against GOMAXPROCS once per episode (by participant 0), and
// collapses to zero whenever the participants outnumber the processors.
// The one wait is a par.Wait: a participant that outlasts the budget parks
// on its flag's own channel (at once when the budget is zero), so an early
// arriver costs the scheduler nothing until the one store it waits for,
// and that store — a swap — is still the only remote write per signal.
type Barrier struct {
	par.SpinPolicy
	n      int
	rounds int
	nodes  [][]node // nodes[r][w>>(r+1)]
	wake   []flag   // wake[w]: written by whoever beat w, awaited by w
	local  []local
	census *census // nil outside tests
}

// census counts an episode's remote references, for the tests that hold
// the barrier to its O(1)-per-node claim.
type census struct {
	swaps  [][]atomic.Int64 // per node, shaped like Barrier.nodes
	sets   atomic.Int64
	awaits []atomic.Int64 // per participant
}

// NewBarrier returns a combining-tree barrier for n participants (n ≥ 1;
// smaller values clamp to 1).  Participants are identified by the fixed
// indices 0..n−1 passed to Wait.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		n = 1
	}
	rounds := 0
	for 1<<rounds < n {
		rounds++
	}
	b := &Barrier{n: n, rounds: rounds}
	b.Init(n)
	b.nodes = make([][]node, rounds)
	for r := range b.nodes {
		b.nodes[r] = make([]node, (n-1)>>(r+1)+1)
	}
	b.wake = make([]flag, n)
	b.local = make([]local, n)
	return b
}

// Participants reports the barrier width n.
func (b *Barrier) Participants() int { return b.n }

// Wait blocks participant w until all n participants have called Wait for
// the current episode.  Each participant must pass its own fixed index in
// [0, n); no index may be used by two goroutines concurrently.
func (b *Barrier) Wait(w int) {
	if b.n == 1 {
		return
	}
	if w == 0 {
		b.Refresh()
	}
	e := b.local[w].episode + 1
	if e == episodeEnd {
		// Nobody can be writing the flag: a peer stores into it only after
		// reading its owner's name out of a node, and the name is not there.
		b.wake[w].v.Init(0)
		e = 1
	}
	b.local[w].episode = e
	c := b.census

	var beat [maxRounds]uint32 // names collected on the way up
	won := 0
	for r := 0; r < b.rounds; r++ {
		i := w >> (r + 1)
		if (2*i+1)<<r >= b.n {
			continue // bye: the other subtree is empty
		}
		nd := &b.nodes[r][i]
		if c != nil {
			c.swaps[r][i].Add(1)
		}
		name := nd.v.Swap(uint32(w + 1))
		if name == 0 {
			if c != nil {
				c.awaits[w].Add(1)
			}
			b.wake[w].v.Await(e, b.SpinBudget())
			break
		}
		nd.v.Store(0)
		beat[won] = name
		won++
	}
	// Release: wake everyone we beat, top level first — the decombining
	// walk back down the tree.  Whoever was last at the root starts it.
	for won > 0 {
		won--
		if c != nil {
			c.sets.Add(1)
		}
		b.wake[beat[won]-1].v.Set(e)
	}
}

// Sync is Wait under the internal/par phase-barrier contract, so a
// Barrier can drop into any code written against that interface.
func (b *Barrier) Sync(w int) { b.Wait(w) }
