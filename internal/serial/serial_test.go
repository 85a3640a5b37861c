package serial

import (
	"testing"

	"combining/internal/rmw"
	"combining/internal/word"
)

func op(proc word.ProcID, seq int, addr word.Addr, m rmw.Mapping, reply int64) Op {
	return Op{Proc: proc, Seq: seq, Addr: addr, Op: m, Reply: word.W(reply)}
}

func TestCheckM2ValidFAA(t *testing.T) {
	// Three processors fetch-and-add 1 to one cell; replies 0,1,2 in any
	// assignment form a valid serialization.
	h := &History{}
	h.Add(op(0, 1, 9, rmw.FetchAdd(1), 1))
	h.Add(op(1, 1, 9, rmw.FetchAdd(1), 2))
	h.Add(op(2, 1, 9, rmw.FetchAdd(1), 0))
	if err := CheckM2(h, nil); err != nil {
		t.Fatalf("valid history rejected: %v", err)
	}
}

func TestCheckM2DetectsBadReply(t *testing.T) {
	h := &History{}
	h.Add(op(0, 1, 9, rmw.FetchAdd(1), 0))
	h.Add(op(1, 1, 9, rmw.FetchAdd(1), 2)) // 2 is impossible: values are 0,1
	if err := CheckM2(h, nil); err == nil {
		t.Fatal("impossible reply accepted")
	}
}

func TestCheckM2DetectsLostUpdate(t *testing.T) {
	// Two FAAs that both observed 0: a lost update.
	h := &History{}
	h.Add(op(0, 1, 9, rmw.FetchAdd(1), 0))
	h.Add(op(1, 1, 9, rmw.FetchAdd(1), 0))
	if err := CheckM2(h, nil); err == nil {
		t.Fatal("lost update accepted")
	}
}

func TestCheckM2RespectsProgramOrder(t *testing.T) {
	// Processor 0 stores 5 then loads 0 from the same cell with nobody
	// else writing: only load-before-store explains the replies, but that
	// violates processor 0's issue order.
	h := &History{}
	h.Add(op(0, 1, 3, rmw.StoreOf(5), 0))
	h.Add(op(0, 2, 3, rmw.Load{}, 0))
	if err := CheckM2(h, nil); err == nil {
		t.Fatal("program-order violation accepted")
	}
	// The same replies from different processors are fine.
	h2 := &History{}
	h2.Add(op(0, 1, 3, rmw.StoreOf(5), 0))
	h2.Add(op(1, 1, 3, rmw.Load{}, 0))
	if err := CheckM2(h2, nil); err != nil {
		t.Fatalf("cross-processor order rejected: %v", err)
	}
}

func TestCheckM2InitialValues(t *testing.T) {
	h := &History{}
	h.Add(op(0, 1, 3, rmw.Load{}, 42))
	if err := CheckM2(h, nil); err == nil {
		t.Fatal("load of 42 from zero-initialized memory accepted")
	}
	if err := CheckM2(h, map[word.Addr]word.Word{3: word.W(42)}); err != nil {
		t.Fatalf("load of initial value rejected: %v", err)
	}
}

func TestCheckM2MultiLocation(t *testing.T) {
	// Locations are checked independently: a per-location-legal history
	// passes even when no global interleaving exists (that is M1's job).
	h := collierHistory(1, 0) // the non-SC outcome
	if err := CheckM2(h, nil); err != nil {
		t.Fatalf("M2-legal history rejected: %v", err)
	}
}

// TestLongChainMemoKey holds the memo key injective past two bytes per
// chain position.  Processor 1's 65537 loads put its chain position at
// 65536 just before its last load; a key that kept only the low 16 bits
// of a position would read that state as position 0, which the search has
// already failed with processor 0's add placed, and prune the one valid
// serialization: the 65536 loads of 0, the add, the load of 1.
func TestLongChainMemoKey(t *testing.T) {
	const loads = 1 << 16
	h := &History{}
	h.Add(op(0, 1, 7, rmw.FetchAdd(1), 0))
	for s := 1; s <= loads; s++ {
		h.Add(op(1, s, 7, rmw.Load{}, 0))
	}
	h.Add(op(1, loads+1, 7, rmw.Load{}, 1))
	if err := CheckM2(h, nil); err != nil {
		t.Errorf("CheckM2: %v", err)
	}
}

// collierHistory builds the Section 3.2 example's history with the given
// observed load values: P1 loads A then B; P2 stores B←1 then A←1.
func collierHistory(aSeen, bSeen int64) *History {
	h := &History{}
	const A, B = word.Addr(100), word.Addr(101)
	h.Add(op(1, 1, A, rmw.Load{}, aSeen))
	h.Add(op(1, 2, B, rmw.Load{}, bSeen))
	h.Add(op(2, 1, B, rmw.StoreOf(1), 0))
	h.Add(op(2, 2, A, rmw.StoreOf(1), 0))
	return h
}

// TestCollierOutcomes enumerates the Section 3.2 example: under sequential
// consistency the loads may see (0,0), (0,1) or (1,1) but never (1,0) —
// seeing the later store but missing the earlier one.
func TestCollierOutcomes(t *testing.T) {
	cases := []struct {
		a, b int64
		sc   bool
	}{
		{0, 0, true},
		{0, 1, true},
		{1, 1, true},
		{1, 0, false},
	}
	for _, tc := range cases {
		h := collierHistory(tc.a, tc.b)
		if got := SeqConsistent(h, nil); got != tc.sc {
			t.Errorf("outcome a=%d b=%d: SeqConsistent=%v, want %v", tc.a, tc.b, got, tc.sc)
		}
		// All four outcomes satisfy the weaker per-location condition.
		if err := CheckM2(h, nil); err != nil {
			t.Errorf("outcome a=%d b=%d rejected by M2: %v", tc.a, tc.b, err)
		}
	}
}

// TestSeqConsistentStoreBuffering rejects the classic store-buffer litmus
// outcome too (Dekker): both processors store 1 then load 0 from the other
// flag.
func TestSeqConsistentStoreBuffering(t *testing.T) {
	h := &History{}
	const X, Y = word.Addr(1), word.Addr(2)
	h.Add(op(0, 1, X, rmw.StoreOf(1), 0))
	h.Add(op(0, 2, Y, rmw.Load{}, 0))
	h.Add(op(1, 1, Y, rmw.StoreOf(1), 0))
	h.Add(op(1, 2, X, rmw.Load{}, 0))
	if SeqConsistent(h, nil) {
		t.Fatal("store-buffer outcome accepted as sequentially consistent")
	}
}

// largeFAAChain is 200 unit FAAs with replies 0..199 spread round-robin
// over 8 processors: a long single-location chain.
func largeFAAChain() *History {
	h := &History{}
	for i := 0; i < 200; i++ {
		h.Add(op(word.ProcID(i%8), i/8+1, 5, rmw.FetchAdd(1), int64(i)))
	}
	return h
}

// loadsBranching is 8 processors × 5 loads of the same value plus one
// store: many identical loads, which force the search to branch.
func loadsBranching() *History {
	h := &History{}
	for p := 0; p < 8; p++ {
		for s := 1; s <= 5; s++ {
			h.Add(op(word.ProcID(p), s, 5, rmw.Load{}, 0))
		}
	}
	h.Add(op(9, 1, 5, rmw.StoreOf(7), 0))
	return h
}

func TestCheckM2LargeFAAChain(t *testing.T) {
	// A long single-location chain must check quickly thanks to the
	// reply-value pruning.
	if err := CheckM2(largeFAAChain(), nil); err != nil {
		t.Fatalf("long FAA chain rejected: %v", err)
	}
}

func TestCheckM2LoadsBranching(t *testing.T) {
	// Branching on identical loads; the memo must keep this tractable.
	if err := CheckM2(loadsBranching(), nil); err != nil {
		t.Fatalf("load-heavy history rejected: %v", err)
	}
}

// BenchmarkCheckM2 prices the witness search on the two histories above;
// run it with -benchmem, since the memo key is its allocation.
func BenchmarkCheckM2(b *testing.B) {
	for _, c := range []struct {
		name string
		h    *History
	}{{"LoadsBranching", loadsBranching()}, {"LargeFAAChain", largeFAAChain()}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if err := CheckM2(c.h, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCheckerMutationSensitivity: perturbing any single reply of a valid
// fetch-and-add history (to another in-range value) must be detected —
// the checker has no blind spots on this workload shape.
func TestCheckerMutationSensitivity(t *testing.T) {
	build := func() *History {
		h := &History{}
		for i := 0; i < 24; i++ {
			h.Add(op(word.ProcID(i%4), i/4+1, 5, rmw.FetchAdd(1), int64(i)))
		}
		return h
	}
	if err := CheckM2(build(), nil); err != nil {
		t.Fatalf("baseline history rejected: %v", err)
	}
	detected, trials := 0, 0
	for victim := 0; victim < 24; victim += 3 {
		for delta := int64(1); delta <= 3; delta++ {
			h := &History{}
			for i, o := range build().Ops() {
				if i == victim {
					o.Reply = word.W((o.Reply.Val + delta) % 24)
				}
				h.Add(o)
			}
			trials++
			if CheckM2(h, nil) != nil {
				detected++
			}
		}
	}
	t.Logf("mutation detection: %d/%d single-reply perturbations caught", detected, trials)
	if detected != trials {
		t.Fatalf("checker missed %d of %d mutations", trials-detected, trials)
	}
}
