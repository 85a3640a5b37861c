package machine_test

import (
	"slices"
	"testing"

	"combining/internal/chaos"
	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/machine"
	"combining/internal/rmw"
	"combining/internal/wiring"
)

// TestPrefixCounts is experiment E7 on the live machine: one synchronized
// burst of n fetch-and-adds to one zeroed cell builds one n-leaf combining
// tree of the wiring's radix r, k = log_r n stages deep.  Stage s combines
// (r−1)·n/r^(s+1) pairs, every combine is undone by one decombine, memory
// is accessed once, and the served id's path holds (r−1)·k decombines, the
// trivial ones.  Compositions happen in 2k cycles: the up-sweep in cycles
// 1…k, the memory access in k+1, the down-sweep in k+2…2k+1.  On the binary
// wirings that is §6's 2n−2 compositions, 2n−2−lg n of them nontrivial,
// and §6's 2 lg n−2 cycles plus the root combine and the root decombine.
func TestPrefixCounts(t *testing.T) {
	for _, c := range []struct {
		wiring string
		radix  int
		ns     []int
	}{
		{"omega", 2, []int{4, 16, 64, 256, 1024}},
		{"fattree", 2, []int{16, 64, 256}},
		{"omega4", 4, []int{16, 64, 256}},
	} {
		for _, n := range c.ns {
			for _, workers := range []int{1, 3} {
				progs := make([][]machine.Instr, n)
				for p := range progs {
					progs[p] = []machine.Instr{machine.RMW(0, rmw.FetchAdd(1))}
				}
				var log engine.TraceLog
				cfg := wiring.Config{Procs: n, WaitBufCap: core.Unbounded, Workers: workers, Trace: log.Record}
				if _, _, _, err := chaos.Battery(c.wiring, cfg, progs, 10_000); err != nil {
					t.Fatalf("%s n=%d w%d: %v", c.wiring, n, workers, err)
				}
				got := machine.CountTree(log.Events)
				var combines []int
				var cycles []int64
				k := 0
				for m := n; m > 1; m /= c.radix {
					combines = append(combines, (c.radix-1)*m/c.radix)
					k++
				}
				for i := 1; i <= 2*k+1; i++ {
					if i != k+1 {
						cycles = append(cycles, int64(i))
					}
				}
				if !slices.Equal(got.Combines, combines) || got.Decombines != n-1 || got.Served != 1 ||
					got.Trivial != (c.radix-1)*k || !slices.Equal(got.Cycles, cycles) ||
					got.RootCombine != int64(k) || got.RootDecombine != int64(k+2) {
					t.Errorf("%s n=%d w%d: %+v, want combines %v, %d decombines, 1 access, %d on the served path, compositions in cycles %v, root at %d and %d",
						c.wiring, n, workers, got, combines, n-1, (c.radix-1)*k, cycles, k, k+2)
				}
				if c.radix == 2 && (got.CombineTotal()+got.Decombines != 2*n-2 ||
					got.CombineTotal()+got.Decombines-got.Trivial != machine.PaperNontrivial(n) ||
					len(got.Cycles) != machine.PaperCycles(n)+2) {
					t.Errorf("%s n=%d w%d: %+v against §6's 2n−2 = %d, %d nontrivial and %d cycles",
						c.wiring, n, workers, got, 2*n-2, machine.PaperNontrivial(n), machine.PaperCycles(n))
				}
			}
		}
	}
}
