package sync_test

import (
	"runtime"
	stdsync "sync"
	"testing"

	"combining/internal/core"
	"combining/internal/rmw"
	"combining/internal/word"
	csync "combining/pkg/sync"
)

// TestFECellDifferentialTables runs a deterministic operation sequence
// against both a live FECell and a model word driven through the
// internal/rmw full/empty tables by core.Execute.  Every success/failure
// outcome and every taken value must agree: TryPut is
// fe-store-if-clear-and-set (the reply's old tag Full is the NAK), TryTake
// is fe-load-and-clear-if-set, Set is fe-store-and-set.
func TestFECellDifferentialTables(t *testing.T) {
	var cell csync.FECell
	model := word.W(0) // Tag zero value is Empty

	apply := func(op rmw.Mapping) (old word.Word) {
		r := core.Execute(&model, core.Request{Op: op})
		return r.Val
	}

	for step := 0; step < 2000; step++ {
		v := int64(step*13%101 + 1)
		switch step % 5 {
		case 0, 3: // producer attempt
			old := apply(rmw.FEStoreIfClearSet(v))
			wantOK := old.Tag == word.Empty // Full old tag = NAK
			if got := cell.TryPut(v); got != wantOK {
				t.Fatalf("step %d: TryPut(%d) = %v, table says %v", step, v, got, wantOK)
			}
		case 1, 4: // consumer attempt
			old := apply(rmw.FELoadIfSetClear())
			wantOK := old.Tag == word.Full
			gotV, gotOK := cell.TryTake()
			if gotOK != wantOK {
				t.Fatalf("step %d: TryTake ok = %v, table says %v", step, gotOK, wantOK)
			}
			if gotOK && gotV != old.Val {
				t.Fatalf("step %d: TryTake = %d, table says %d", step, gotV, old.Val)
			}
		case 2: // unconditional overwrite
			apply(rmw.FEStoreSet(v))
			cell.Set(v)
		}
		if gotFull, wantFull := cell.Full(), model.Tag == word.Full; gotFull != wantFull {
			t.Fatalf("step %d: Full() = %v, model tag says %v", step, gotFull, wantFull)
		}
	}
}

// TestFECellExactlyOnce soaks the producer/consumer hand-off in its
// busy-waiting form: many producers retry TryPut on distinct values, many
// consumers retry TryTake; every value must be consumed exactly once.
func TestFECellExactlyOnce(t *testing.T) {
	const producers, perProducer, consumers = 8, 500, 8
	total := producers * perProducer
	var cell csync.FECell
	got := make(chan int64, total)

	var wg stdsync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/consumers; i++ {
				v, ok := cell.TryTake()
				for !ok {
					runtime.Gosched()
					v, ok = cell.TryTake()
				}
				got <- v
			}
		}()
	}
	var pw stdsync.WaitGroup
	for p := 0; p < producers; p++ {
		pw.Add(1)
		go func(p int) {
			defer pw.Done()
			for i := 0; i < perProducer; i++ {
				for !cell.TryPut(int64(p*perProducer + i + 1)) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	pw.Wait()
	wg.Wait()
	close(got)

	seen := make(map[int64]bool, total)
	for v := range got {
		if seen[v] {
			t.Fatalf("value %d consumed twice", v)
		}
		seen[v] = true
	}
	if len(seen) != total {
		t.Fatalf("consumed %d distinct values, want %d", len(seen), total)
	}
	if cell.Full() {
		t.Fatal("cell still full after all takes")
	}
}

// TestFECellTrySemantics pins the NAK behaviour on an otherwise idle cell.
func TestFECellTrySemantics(t *testing.T) {
	var cell csync.FECell
	if _, ok := cell.TryTake(); ok {
		t.Fatal("TryTake succeeded on an empty cell")
	}
	if !cell.TryPut(42) {
		t.Fatal("TryPut failed on an empty cell")
	}
	if cell.TryPut(43) {
		t.Fatal("TryPut succeeded on a full cell (no NAK)")
	}
	if v, ok := cell.TryTake(); !ok || v != 42 {
		t.Fatalf("TryTake = (%d, %v), want (42, true)", v, ok)
	}
	cell.Set(7)
	cell.Set(9) // Set overwrites regardless of state
	if v, ok := cell.TryTake(); !ok || v != 9 {
		t.Fatalf("TryTake = (%d, %v), want (9, true)", v, ok)
	}
}
