package core

import (
	"testing"

	"combining/internal/rmw"
	"combining/internal/word"
)

// Exhaustive verification of Lemma 4.1 on small configurations: EVERY
// assignment of operations from a representative set to n ≤ 4 requests,
// under EVERY combining schedule (every partition of the request sequence
// into segments and every binary combine tree over each segment), produces
// replies and final memory identical to the serial reference.  Unlike the
// randomized trials, this leaves no gaps at its scale.

// enumTrees yields every binary tree shape over [lo, hi) as a combined
// request plus per-leaf reply collectors.
type enumNode struct {
	req         Request
	rec         Record
	left, right *enumNode
}

func enumTrees(t *testing.T, reqs []Request, lo, hi int, pol Policy, yield func(*enumNode)) {
	t.Helper()
	if hi-lo == 1 {
		yield(&enumNode{req: reqs[lo]})
		return
	}
	for mid := lo + 1; mid < hi; mid++ {
		enumTrees(t, reqs, lo, mid, pol, func(l *enumNode) {
			enumTrees(t, reqs, mid, hi, pol, func(r *enumNode) {
				combined, rec, ok := Combine(l.req, r.req, pol)
				if !ok {
					t.Fatalf("combine failed: %v + %v", l.req, r.req)
				}
				yield(&enumNode{req: combined, rec: rec, left: l, right: r})
			})
		})
	}
}

// enumForests yields every partition of [0, n) into consecutive segments,
// each combined by every tree shape.
func enumForests(t *testing.T, reqs []Request, lo int, pol Policy, prefix []*enumNode, yield func([]*enumNode)) {
	t.Helper()
	if lo == len(reqs) {
		yield(prefix)
		return
	}
	for hi := lo + 1; hi <= len(reqs); hi++ {
		enumTrees(t, reqs, lo, hi, pol, func(root *enumNode) {
			enumForests(t, reqs, hi, pol, append(prefix, root), yield)
		})
	}
}

func collectEnum(t *testing.T, n *enumNode, reply Reply, out map[word.ReqID]word.Word) {
	t.Helper()
	if n.left == nil {
		out[n.req.ID] = reply.Val
		return
	}
	r1, r2 := Decombine(n.rec, reply)
	if n.left.req.ID == r1.ID {
		collectEnum(t, n.left, r1, out)
		collectEnum(t, n.right, r2, out)
	} else {
		collectEnum(t, n.left, r2, out)
		collectEnum(t, n.right, r1, out)
	}
}

func runExhaustive(t *testing.T, ops []rmw.Mapping, pol Policy, initial word.Word) {
	t.Helper()
	n := len(ops)
	reqs := make([]Request, n)
	for i, op := range ops {
		reqs[i] = NewRequest(word.ReqID(i+1), 3, op, word.ProcID(i))
	}
	enumForests(t, reqs, 0, pol, nil, func(roots []*enumNode) {
		cell := initial
		got := make(map[word.ReqID]word.Word, n)
		var order []Leaf
		var one [1]Leaf
		for _, root := range roots {
			reply := Execute(&cell, root.req)
			collectEnum(t, root, reply, got)
			order = append(order, root.req.Leaves(&one)...)
		}
		wantReplies, wantFinal := SerialReplies(initial, mappingsOf(order))
		if cell != wantFinal {
			t.Fatalf("ops %v: final %v, want %v", ops, cell, wantFinal)
		}
		for i, leaf := range order {
			if got[leaf.ID] != wantReplies[i] {
				t.Fatalf("ops %v: request %d got %v, want %v", ops, leaf.ID, got[leaf.ID], wantReplies[i])
			}
		}
	})
}

// TestExhaustiveSmallConfigs: all operation assignments over a mixed
// untagged set, n = 1..4, every combining schedule, both with and without
// reversal.
func TestExhaustiveSmallConfigs(t *testing.T) {
	opSet := []rmw.Mapping{
		rmw.FetchAdd(1),
		rmw.FetchAdd(-2),
		rmw.Load{},
		rmw.StoreOf(9),
		rmw.SwapOf(7),
	}
	for _, pol := range []Policy{{Bookkeeping: true}, {AllowReversal: true, Bookkeeping: true}} {
		for n := 1; n <= 4; n++ {
			// Enumerate all |opSet|^n assignments.
			idx := make([]int, n)
			for {
				ops := make([]rmw.Mapping, n)
				for i, j := range idx {
					ops[i] = opSet[j]
				}
				runExhaustive(t, ops, pol, word.W(100))
				// Increment the mixed-radix counter.
				i := 0
				for ; i < n; i++ {
					idx[i]++
					if idx[i] < len(opSet) {
						break
					}
					idx[i] = 0
				}
				if i == n {
					break
				}
			}
		}
	}
}

// TestExhaustiveTagged: the same enumeration over the full/empty family,
// n = 1..3, both initial tags.
func TestExhaustiveTagged(t *testing.T) {
	opSet := []rmw.Mapping{
		rmw.FELoad(),
		rmw.FELoadClear(),
		rmw.FEStoreSet(5),
		rmw.FEStoreIfClearSet(6),
		rmw.FEStoreIfClearClear(8),
		rmw.StoreOf(4),
	}
	for _, tag := range []word.Tag{word.Empty, word.Full} {
		for n := 1; n <= 3; n++ {
			idx := make([]int, n)
			for {
				ops := make([]rmw.Mapping, n)
				for i, j := range idx {
					ops[i] = opSet[j]
				}
				runExhaustive(t, ops, Policy{Bookkeeping: true}, word.WT(50, tag))
				i := 0
				for ; i < n; i++ {
					idx[i]++
					if idx[i] < len(opSet) {
						break
					}
					idx[i] = 0
				}
				if i == n {
					break
				}
			}
		}
	}
}
