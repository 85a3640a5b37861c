package rmw

import "testing"

// combinableTable holds at least one mapping of every family the package
// defines, plus nil: the domain Combinable must agree with Compose on.
func combinableTable() []Mapping {
	threeState := NewTable("three-state", []Transition{
		{Next: 1, Act: Keep},
		{Next: 2, Act: Store, V: 5},
		{Next: 2, Act: Keep, Fail: true},
	})
	return []Mapping{
		nil,
		Load{}, StoreOf(7), SwapOf(9),
		FetchAdd(3), FetchOr(4), FetchAnd(6), FetchXor(5), FetchMin(2), FetchMax(8), TestAndSet(),
		BoolOf(BLoad), BoolSetBits(0xF0), BoolClearBits(0x0F), BoolComplementBits(0xFF), PartialStore(0xFF00, 0x1200),
		AffineAdd(2), AffineMul(3), AffineRSub(10),
		MoebiusAdd(1.5), MoebiusMul(2), MoebiusRDiv(4),
		FELoad(), FELoadClear(), FEStoreSet(1), FEStoreIfClearSet(2), FEStoreClear(3),
		FEStoreIfClearClear(4), FELoadIfSetClear(), FEStoreIfSet(5), FEStoreIfClear(6),
		RMEAcquire(11), RMERelease(), RMEInspect(),
		threeState,
	}
}

// TestCombinableIsComposeOK: the predicate is Compose's success condition,
// for every ordered pair of the table.
func TestCombinableIsComposeOK(t *testing.T) {
	table := combinableTable()
	for _, f := range table {
		for _, g := range table {
			_, want := Compose(f, g)
			if got := Combinable(f, g); got != want {
				t.Errorf("Combinable(%v, %v) = %v, Compose ok = %v", f, g, got, want)
			}
		}
	}
	// The table must exercise both answers within and across families, or
	// the agreement above proves little.
	if !Combinable(FetchAdd(1), FetchAdd(2)) || Combinable(FetchAdd(1), FetchMin(2)) ||
		Combinable(FetchAdd(1), FELoad()) || !Combinable(StoreOf(1), FELoad()) ||
		Combinable(FELoad(), table[len(table)-1]) {
		t.Fatalf("the table's landmark pairs do not combine as the paper says")
	}
}

// TestCombinableZeroAlloc: a predicate, not a construction — the queue scan
// asks it for every same-address arrival, combined or not.
func TestCombinableZeroAlloc(t *testing.T) {
	table := combinableTable()
	var sink bool
	allocs := testing.AllocsPerRun(20, func() {
		for _, f := range table {
			for _, g := range table {
				sink = Combinable(f, g) != sink
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Combinable over the table: %.1f allocs per pass, want 0", allocs)
	}
}
