package core

import (
	"math/rand/v2"
	"testing"

	"combining/internal/rmw"
	"combining/internal/word"
)

// Machine-checked Lemma 4.1 / Theorem 4.2: combine a random request
// sequence along random binary trees (optionally into a forest — partial
// combining), execute the roots serially at memory, decombine recursively,
// and compare every reply and the final memory content with the serial
// reference execution.

type treeNode struct {
	req         Request
	rec         Record
	left, right *treeNode
}

// combineTree folds the requests [lo, hi) into one message along a random
// tree shape.  Combining must always succeed here: callers pass mappings
// from inter-combinable families.
func combineTree(t *testing.T, rng *rand.Rand, reqs []Request, lo, hi int, pol Policy) *treeNode {
	t.Helper()
	if hi-lo == 1 {
		return &treeNode{req: reqs[lo]}
	}
	mid := lo + 1 + rng.IntN(hi-lo-1)
	left := combineTree(t, rng, reqs, lo, mid, pol)
	right := combineTree(t, rng, reqs, mid, hi, pol)
	combined, rec, ok := Combine(left.req, right.req, pol)
	if !ok {
		t.Fatalf("combine failed: %v + %v", left.req, right.req)
	}
	return &treeNode{req: combined, rec: rec, left: left, right: right}
}

// collectReplies walks the decombining fan-out, assigning each original
// request its reply value.
func collectReplies(t *testing.T, n *treeNode, reply Reply, out map[word.ReqID]word.Word) {
	t.Helper()
	if n.left == nil {
		if reply.ID != n.req.ID {
			t.Fatalf("leaf %d received reply %v", n.req.ID, reply)
		}
		out[n.req.ID] = reply.Val
		return
	}
	r1, r2 := Decombine(n.rec, reply)
	// r1 belongs to whichever child was serialized first.
	if n.left.req.ID == r1.ID {
		collectReplies(t, n.left, r1, out)
		collectReplies(t, n.right, r2, out)
	} else {
		collectReplies(t, n.left, r2, out)
		collectReplies(t, n.right, r1, out)
	}
}

// randRequests builds a sequence of requests over combinable families.
// Family selection per sequence keeps every pair composable.
func randRequests(rng *rand.Rand, n int, tagged bool) []Request {
	reqs := make([]Request, n)
	fam := rng.IntN(4)
	for i := range reqs {
		var op rmw.Mapping
		if tagged {
			v := int64(rng.IntN(100))
			ops := []rmw.Mapping{
				rmw.FELoad(), rmw.FELoadClear(), rmw.FEStoreSet(v),
				rmw.FEStoreIfClearSet(v), rmw.FEStoreClear(v),
				rmw.FEStoreIfClearClear(v), rmw.StoreOf(v), rmw.Load{},
			}
			op = ops[rng.IntN(len(ops))]
		} else {
			v := int64(rng.IntN(2001) - 1000)
			switch {
			case rng.IntN(3) == 0: // universal ops mix into any family
				universal := []rmw.Mapping{rmw.Load{}, rmw.StoreOf(v), rmw.SwapOf(v)}
				op = universal[rng.IntN(len(universal))]
			case fam == 0:
				op = rmw.FetchAdd(v)
			case fam == 1:
				op = rmw.Bool{A: rng.Uint64(), B: rng.Uint64()}
			case fam == 2:
				op = rmw.Affine{A: int64(rng.IntN(7) - 3), B: v}
			default:
				op = rmw.FetchXor(v)
			}
		}
		reqs[i] = NewRequest(word.ReqID(i+1), 7, op, word.ProcID(rng.IntN(8)))
	}
	return reqs
}

func runLemma41Trial(t *testing.T, rng *rand.Rand, tagged bool, pol Policy) {
	t.Helper()
	n := 1 + rng.IntN(12)
	reqs := randRequests(rng, n, tagged)

	// Partition the sequence into segments; each segment combines into
	// one tree (a forest models partial combining), and the roots reach
	// memory in segment order.
	var roots []*treeNode
	lo := 0
	for lo < n {
		hi := lo + 1 + rng.IntN(n-lo)
		roots = append(roots, combineTree(t, rng, reqs, lo, hi, pol))
		lo = hi
	}

	initial := word.WT(int64(rng.IntN(50)), word.Tag(rng.IntN(2)))
	cell := initial
	got := make(map[word.ReqID]word.Word, n)
	var one [1]Leaf
	for _, root := range roots {
		// Lemma 4.1(1): the combined mapping equals the composition of
		// the mappings it represents.
		composed, ok := rmw.ComposeAll(mappingsOf(root.req.Leaves(&one))...)
		if !ok {
			t.Fatal("representation list must recompose")
		}
		for _, probe := range []word.Word{initial, word.WT(13, word.Full), word.W(-4)} {
			if root.req.Op.Apply(probe) != composed.Apply(probe) {
				t.Fatalf("combined op %v differs from composition of reps at %v", root.req.Op, probe)
			}
		}
		reply := Execute(&cell, root.req)
		collectReplies(t, root, reply, got)
	}

	// The serialization order is the concatenation of the roots'
	// representation lists.
	var order []Leaf
	for _, root := range roots {
		order = append(order, root.req.Leaves(&one)...)
	}
	if len(order) != n {
		t.Fatalf("representation lists cover %d of %d requests", len(order), n)
	}
	wantReplies, wantFinal := SerialReplies(initial, mappingsOf(order))
	// Lemma 4.1(3): final memory content matches the serial execution.
	if cell != wantFinal {
		t.Fatalf("final cell %v, want %v", cell, wantFinal)
	}
	// Lemma 4.1(2): every reply matches the serial execution.
	for i, leaf := range order {
		if got[leaf.ID] != wantReplies[i] {
			t.Fatalf("request %d (%v) got reply %v, want %v (order %v)",
				leaf.ID, leaf.Op, got[leaf.ID], wantReplies[i], order)
		}
	}
}

func mappingsOf(leaves []Leaf) []rmw.Mapping {
	ops := make([]rmw.Mapping, len(leaves))
	for i, l := range leaves {
		ops[i] = l.Op
	}
	return ops
}

func TestLemma41RandomTrees(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 202))
	for trial := 0; trial < 4000; trial++ {
		runLemma41Trial(t, rng, false, Policy{Bookkeeping: true})
	}
}

func TestLemma41TaggedFamilies(t *testing.T) {
	rng := rand.New(rand.NewPCG(103, 204))
	for trial := 0; trial < 4000; trial++ {
		runLemma41Trial(t, rng, true, Policy{Bookkeeping: true})
	}
}

func TestLemma41WithReversal(t *testing.T) {
	// With reversal the serialization order differs from issue order but
	// the representation lists track it, so the same checks apply.
	rng := rand.New(rand.NewPCG(105, 206))
	for trial := 0; trial < 4000; trial++ {
		runLemma41Trial(t, rng, false, Policy{AllowReversal: true, Bookkeeping: true})
	}
}
