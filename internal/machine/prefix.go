package machine

import (
	"math/bits"
	"slices"

	"combining/internal/engine"
	"combining/internal/word"
)

// Section 6 on the live machine.  One synchronized burst of fetch-and-adds,
// one per processor to one address, makes the network build the paper's
// parallel-prefix tree: each combine is an up-sweep composition, each
// decombine a down-sweep one, and the one memory access is the root's.  A
// reply split off the id memory served carries the cell's old value, so
// when the cell holds the identity those decombines are §6's trivial
// multiplications.  CountTree reads all of this off a run's trace.

// PaperNontrivial is §6's count of nontrivial compositions in an n-leaf
// tree, 2n−2−⌈lg n⌉; PaperCycles is its synchronized schedule, 2⌈lg n⌉−2.
func PaperNontrivial(n int) int { return 2*n - 2 - bits.Len(uint(n-1)) }
func PaperCycles(n int) int     { return 2*bits.Len(uint(n-1)) - 2 }

// TreeCount is what a run's trace says about the combining trees it built.
type TreeCount struct {
	// Combines counts combines by stage; Decombines and Served count
	// decombines and memory accesses.
	Combines   []int
	Decombines int
	Served     int
	// Trivial counts the decombines on a served id's path: the replies
	// split off the cell's old value.
	Trivial int
	// Cycles lists, ascending, the cycles in which a combine or a
	// decombine happened.
	Cycles []int64
	// RootCombine is the last cycle in which a served id absorbed another,
	// and RootDecombine the first in which one split a reply off: in one
	// tree, the up-sweep total §6 never waits on and the multiplication by
	// the identity it skips.  Both are -1 when no served id combined.
	RootCombine, RootDecombine int64
}

// CombineTotal is the sum of Combines.
func (c TreeCount) CombineTotal() int {
	n := 0
	for _, k := range c.Combines {
		n += k
	}
	return n
}

// CountTree counts the combining trees in a run's trace events.
func CountTree(events []engine.Event) TreeCount {
	c := TreeCount{RootCombine: -1, RootDecombine: -1}
	served := map[word.ReqID]bool{}
	for _, e := range events {
		if e.Kind == engine.Served {
			c.Served++
			served[e.ID] = true
		}
	}
	for _, e := range events {
		switch e.Kind {
		case engine.Combined:
			for len(c.Combines) <= e.Stage {
				c.Combines = append(c.Combines, 0)
			}
			c.Combines[e.Stage]++
			if served[e.ID] {
				c.RootCombine = max(c.RootCombine, e.Cycle)
			}
		case engine.Decombined:
			c.Decombines++
			if served[e.ID] {
				c.Trivial++
				if c.RootDecombine < 0 || e.Cycle < c.RootDecombine {
					c.RootDecombine = e.Cycle
				}
			}
		default:
			continue
		}
		if !slices.Contains(c.Cycles, e.Cycle) {
			c.Cycles = append(c.Cycles, e.Cycle)
		}
	}
	slices.Sort(c.Cycles)
	return c
}
