package engine

import "testing"

// TestStagedTablesMatchWiring: every entry of the compiled tables is the
// Staged arithmetic it was compiled from — for the omega wiring at radix 2
// and 4 and the fat-tree at radix 2 and 4, at 64 and 256 lines.
func TestStagedTablesMatchWiring(t *testing.T) {
	for _, topo := range []Staged{
		OmegaOf(64, 2), OmegaOf(256, 2), OmegaOf(64, 4), OmegaOf(256, 4),
		FatTreeOf(64, 2), FatTreeOf(256, 2), FatTreeOf(64, 4), FatTreeOf(256, 4),
	} {
		if err := topo.Validate(); err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		n, radix, k := topo.Procs(), topo.Radix(), topo.Stages()
		tb := CompileStaged(topo)
		line := func(h Hop) int { return int(h.Switch)*radix + int(h.Port) }
		at := func(what string, stage, i, got, want int) {
			t.Helper()
			if got != want {
				t.Fatalf("%s n=%d radix=%d: %s[%d][%d] = %d, wiring says %d",
					topo.Name(), n, radix, what, stage, i, got, want)
			}
		}
		if len(tb.Next) != k || len(tb.Prev) != k || len(tb.OutPort) != k {
			t.Fatalf("%s n=%d radix=%d: tables for %d/%d/%d stages, want %d",
				topo.Name(), n, radix, len(tb.Next), len(tb.Prev), len(tb.OutPort), k)
		}
		if tb.Prev[0] != nil || tb.Next[k-1] != nil {
			t.Fatalf("%s n=%d radix=%d: the terminal columns have switch-to-switch tables", topo.Name(), n, radix)
		}
		for s := 0; s < k; s++ {
			for i := 0; i < n; i++ {
				at("OutPort", s, i, int(tb.OutPort[s][i]), topo.OutPort(s, i))
				if s+1 < k {
					at("Next", s, i, line(tb.Next[s][i]), topo.NextLine(s, i))
					if p := int(tb.Next[s][i].Port); p < 0 || p >= radix {
						t.Fatalf("%s: Next[%d][%d] port %d outside the radix", topo.Name(), s, i, p)
					}
				}
				if s > 0 {
					at("Prev", s, i, line(tb.Prev[s][i]), topo.PrevLine(s, i))
				}
			}
		}
		for i := 0; i < n; i++ {
			at("ProcLine", 0, i, line(tb.ProcLine[i]), topo.ProcLine(i))
			at("LineProc", 0, i, int(tb.LineProc[i]), topo.LineProc(i))
		}
	}
}
