package engine

import "testing"

// TestStagedTablesMatchWiring: every entry of the compiled links is the
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
		width := n / radix
		lk := CompileStaged(topo)
		at := func(what string, stage, i, got, want int) {
			t.Helper()
			if got != want {
				t.Fatalf("%s n=%d radix=%d: %s[%d][%d] = %d, wiring says %d",
					topo.Name(), n, radix, what, stage, i, got, want)
			}
		}
		// line is where link l lands, as a line of the given stage; the link
		// must stay inside that stage's row of stations.
		line := func(what string, l Link, stage int) int {
			t.Helper()
			if int(l.To)/width != stage || l.In < 0 || int(l.In) >= radix {
				t.Fatalf("%s n=%d radix=%d: %s link %+v is not a line of stage %d", topo.Name(), n, radix, what, l, stage)
			}
			return (int(l.To)%width)*radix + int(l.In)
		}
		if lk.Ports != radix || lk.RevPorts != radix || lk.PathLen != k || len(lk.Fwd) != k*n || len(lk.Rev) != k*n ||
			len(lk.Route) != k*width || lk.Back != nil {
			t.Fatalf("%s n=%d radix=%d: table shape %d/%d ports, path %d, %d/%d links, %d routes",
				topo.Name(), n, radix, lk.Ports, lk.RevPorts, lk.PathLen, len(lk.Fwd), len(lk.Rev), len(lk.Route))
		}
		for s := 0; s < k; s++ {
			for i := 0; i < n; i++ {
				at("Route", s, i, int(lk.Route[s*width+i/radix][i]), topo.OutPort(s, i))
				at("RevAt", s, i, int(lk.RevAt[s*n+i].Stage), s)
				at("RevAt", s, i, int(lk.RevAt[s*n+i].Index)*radix+int(lk.RevAt[s*n+i].Port), i)
				if s+1 < k {
					next := line("Fwd", lk.Fwd[s*n+i], s+1)
					at("Fwd", s, i, next, topo.NextLine(s, i))
					at("FwdAt", s, i, int(lk.FwdAt[s*n+i].Index)*radix+int(lk.FwdAt[s*n+i].Port), next)
					at("FwdAt", s, i, int(lk.FwdAt[s*n+i].Stage), s+1)
				} else {
					// The terminal column: output line i is module i's link.
					at("Fwd", s, i, int(-1-lk.Fwd[s*n+i].To), i)
					if c := lk.FwdAt[s*n+i]; c != (Coord{int32(k), int32(i), 0}) {
						t.Fatalf("%s: module %d's link is at %+v", topo.Name(), i, c)
					}
				}
				if s > 0 {
					at("Rev", s, i, line("Rev", lk.Rev[s*n+i], s-1), topo.PrevLine(s, i))
				} else {
					at("Rev", s, i, int(-1-lk.Rev[i].To), topo.LineProc(i))
				}
			}
		}
		for p := 0; p < n; p++ {
			at("Proc", 0, p, line("Proc", lk.Proc[p], 0), topo.ProcLine(p))
			at("ProcAt", 0, p, int(lk.ProcAt[p].Index)*radix+int(lk.ProcAt[p].Port), topo.ProcLine(p))
			if lk.ProcAt[p].Stage != 0 || lk.Home[p] != (Coord{0, int32(p), 0}) {
				t.Fatalf("%s: processor %d's links are at %+v / %+v", topo.Name(), p, lk.ProcAt[p], lk.Home[p])
			}
		}
	}
}

// TestDirectTablesMatchWiring: every entry of a compiled direct wiring is
// the Direct arithmetic it was compiled from, with "arrived" (-1) turned
// into the memory combining queue on the way out and kept on the way back.
func TestDirectTablesMatchWiring(t *testing.T) {
	for _, topo := range []Direct{CubeOf(2), CubeOf(64), TorusOf(8, 8), TorusOf(4, 3, 2), TorusOf(7)} {
		if err := topo.Validate(); err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		n, d := topo.Nodes(), topo.Degree()
		lk := CompileDirect(topo)
		if lk.Ports != d || lk.RevPorts != d || lk.PathLen != 0 || len(lk.Fwd) != n*d || len(lk.Route) != n || len(lk.Back) != n {
			t.Fatalf("%s n=%d: table shape %d/%d ports, path %d, %d links", topo.Name(), n, lk.Ports, lk.RevPorts, lk.PathLen, len(lk.Fwd))
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := topo.FwdLink(i, j)
				if want < 0 {
					want = d
				}
				if got := int(lk.Route[i][j]); got != want {
					t.Fatalf("%s n=%d: Route[%d][%d] = %d, wiring says %d", topo.Name(), n, i, j, got, want)
				}
				if got := int(lk.Back[i][j]); got != topo.RevLink(i, j) {
					t.Fatalf("%s n=%d: Back[%d][%d] = %d, wiring says %d", topo.Name(), n, i, j, got, topo.RevLink(i, j))
				}
			}
			for l := 0; l < d; l++ {
				nb := int32(topo.Neighbor(i, l))
				if lk.Fwd[i*d+l].To != nb || lk.Rev[i*d+l].To != nb || lk.FwdAt[i*d+l] != (Coord{1, nb, int32(l)}) ||
					lk.RevAt[i*d+l] != lk.FwdAt[i*d+l] {
					t.Fatalf("%s n=%d: link %d of node %d compiled to %+v at %+v, neighbor is %d",
						topo.Name(), n, l, i, lk.Fwd[i*d+l], lk.FwdAt[i*d+l], nb)
				}
			}
			if lk.Proc[i].To != int32(i) || lk.Hosts[i] != int32(i) ||
				lk.ProcAt[i] != (Coord{0, int32(i), 0}) || lk.Home[i] != (Coord{3, int32(i), 0}) {
				t.Fatalf("%s n=%d: node %d's processor and module are wired to %+v / station %d", topo.Name(), n, i, lk.Proc[i], lk.Hosts[i])
			}
		}
	}
}
