package engine

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

func stagedUnderTest() []Staged {
	return []Staged{
		OmegaOf(4, 2), OmegaOf(8, 2), OmegaOf(64, 2), OmegaOf(16, 4), OmegaOf(64, 8),
		FatTreeOf(4, 2), FatTreeOf(8, 2), FatTreeOf(64, 2), FatTreeOf(16, 4), FatTreeOf(64, 8),
	}
}

// TestStagedInverses: LineProc undoes ProcLine, and PrevLine(s+1) undoes
// NextLine(s), for every line of every wiring.
func TestStagedInverses(t *testing.T) {
	for _, topo := range stagedUnderTest() {
		if err := topo.Validate(); err != nil {
			t.Fatalf("%s(%d,%d): %v", topo.Name(), topo.Procs(), topo.Radix(), err)
		}
		n, k := topo.Procs(), topo.Stages()
		for line := 0; line < n; line++ {
			if got := topo.LineProc(topo.ProcLine(line)); got != line {
				t.Fatalf("%s(%d,%d): LineProc(ProcLine(%d)) = %d", topo.Name(), n, topo.Radix(), line, got)
			}
			for s := 0; s+1 < k; s++ {
				if got := topo.PrevLine(s+1, topo.NextLine(s, line)); got != line {
					t.Fatalf("%s(%d,%d): PrevLine(%d, NextLine(%d, %d)) = %d",
						topo.Name(), n, topo.Radix(), s+1, s, line, got)
				}
			}
		}
	}
}

// TestStagedRouting: destination-tag routing from every processor to every
// memory module terminates on the output line equal to the module number —
// the invariant the engine's memory attachment depends on.
func TestStagedRouting(t *testing.T) {
	for _, topo := range stagedUnderTest() {
		n, r, k := topo.Procs(), topo.Radix(), topo.Stages()
		for proc := 0; proc < n; proc++ {
			for dst := 0; dst < n; dst++ {
				line := topo.ProcLine(proc)
				for s := 0; s < k; s++ {
					line = (line/r)*r + topo.OutPort(s, dst)
					if s+1 < k {
						line = topo.NextLine(s, line)
					}
				}
				if line != dst {
					t.Fatalf("%s(%d,%d): proc %d routing to %d lands on line %d",
						topo.Name(), n, r, proc, dst, line)
				}
			}
		}
	}
}

// TestStagedGroupsPartition: the derived conflict groups partition the
// switch set, and each group is closed under "shares a far-side switch" —
// two switches wired to a common neighbor are always grouped together.
func TestStagedGroupsPartition(t *testing.T) {
	for _, topo := range stagedUnderTest() {
		n, r, k := topo.Procs(), topo.Radix(), topo.Stages()
		ns := n / r
		check := func(kind string, stage int, groups [][]int, far func(line int) int) {
			seen := make([]int, ns)
			for _, g := range groups {
				for _, idx := range g {
					seen[idx]++
				}
				if !sort.IntsAreSorted(g) {
					t.Fatalf("%s(%d,%d) %s stage %d: group %v not ascending", topo.Name(), n, r, kind, stage, g)
				}
			}
			for idx, c := range seen {
				if c != 1 {
					t.Fatalf("%s(%d,%d) %s stage %d: switch %d in %d groups", topo.Name(), n, r, kind, stage, idx, c)
				}
			}
			// Closure: a far-side switch must be reached from only one group.
			owner := make(map[int]int)
			for gi, g := range groups {
				for _, idx := range g {
					for p := 0; p < r; p++ {
						f := far(idx*r+p) / r
						if prev, ok := owner[f]; ok && prev != gi {
							t.Fatalf("%s(%d,%d) %s stage %d: far switch %d reached from groups %d and %d",
								topo.Name(), n, r, kind, stage, f, prev, gi)
						}
						owner[f] = gi
					}
				}
			}
		}
		for s := 0; s+1 < k; s++ {
			s := s
			check("fwd", s, FwdBlocks(topo, s, false), func(line int) int { return topo.NextLine(s, line) })
		}
		for s := 1; s < k; s++ {
			s := s
			check("rev", s, RevBlocks(topo, s, false), func(line int) int { return topo.PrevLine(s, line) })
		}
	}
}

// TestOmegaGroupsMatchAnalytic: on the omega wiring the generic derivation
// reproduces the analytic shapes DESIGN.md §6 derives — radix contiguous
// switches for the reverse sweep, radix switches congruent mod ns/radix
// for the forward sweep — so porting the parallel stepper onto the generic
// groups preserves its partition exactly.
func TestOmegaGroupsMatchAnalytic(t *testing.T) {
	for _, tc := range []struct{ n, r int }{{8, 2}, {64, 2}, {16, 4}, {64, 8}} {
		topo := OmegaOf(tc.n, tc.r)
		ns := tc.n / tc.r
		for s := 1; s < topo.Stages(); s++ {
			want := make([][]int, 0, ns/tc.r)
			for g := 0; g < ns/tc.r; g++ {
				m := make([]int, tc.r)
				for j := range m {
					m[j] = g*tc.r + j
				}
				want = append(want, m)
			}
			if got := RevBlocks(topo, s, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("omega(%d,%d) rev stage %d: got %v want %v", tc.n, tc.r, s, got, want)
			}
		}
		stride := ns / tc.r
		for s := 0; s+1 < topo.Stages(); s++ {
			want := make([][]int, 0, stride)
			for rem := 0; rem < stride; rem++ {
				m := make([]int, tc.r)
				for j := range m {
					m[j] = rem + j*stride
				}
				sort.Ints(m)
				want = append(want, m)
			}
			// Generic groups are ordered by smallest member; the analytic
			// strided groups already are (rem ascending).
			if got := FwdBlocks(topo, s, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("omega(%d,%d) fwd stage %d: got %v want %v", tc.n, tc.r, s, got, want)
			}
		}
	}
}

// TestFatTreeDiffersFromOmega guards against the butterfly degenerating
// into a relabeled omega: for k >= 3 the inter-stage permutations differ,
// and processor placement differs at every size.
func TestFatTreeDiffersFromOmega(t *testing.T) {
	o, f := OmegaOf(8, 2), FatTreeOf(8, 2)
	differs := false
	for line := 0; line < 8; line++ {
		if o.NextLine(0, line) != f.NextLine(0, line) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("fattree(8,2) stage-0 wiring identical to omega")
	}
	if o.ProcLine(1) == f.ProcLine(1) {
		t.Fatal("fattree processor placement identical to omega")
	}
}

func directUnderTest() []Direct {
	return []Direct{
		CubeOf(2), CubeOf(8), CubeOf(64),
		TorusOf(4), TorusOf(2, 2), TorusOf(4, 4), TorusOf(8, 8), TorusOf(2, 3, 5), TorusOf(3, 3, 3),
	}
}

// TestDirectRetrace: for every (src, home) pair, following FwdLink reaches
// home within Nodes hops, and following RevLink back visits exactly the
// forward path reversed — the invariant decombining at intermediate wait
// buffers requires.
func TestDirectRetrace(t *testing.T) {
	for _, topo := range directUnderTest() {
		if err := topo.Validate(); err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		n := topo.Nodes()
		for src := 0; src < n; src++ {
			for home := 0; home < n; home++ {
				fwd := []int{src}
				for cur := src; cur != home; {
					link := topo.FwdLink(cur, home)
					if link < 0 || link >= topo.Degree() {
						t.Fatalf("%s: FwdLink(%d,%d) = %d out of range", topo.Name(), cur, home, link)
					}
					cur = topo.Neighbor(cur, link)
					fwd = append(fwd, cur)
					if len(fwd) > n {
						t.Fatalf("%s: route %d->%d does not terminate", topo.Name(), src, home)
					}
				}
				if topo.FwdLink(home, home) != -1 {
					t.Fatalf("%s: FwdLink at home != -1", topo.Name())
				}
				rev := []int{home}
				for cur := home; cur != src; {
					link := topo.RevLink(cur, src)
					if link < 0 || link >= topo.Degree() {
						t.Fatalf("%s: RevLink(%d,%d) = %d out of range", topo.Name(), cur, src, link)
					}
					cur = topo.Neighbor(cur, link)
					rev = append(rev, cur)
					if len(rev) > n {
						t.Fatalf("%s: reverse route %d->%d does not terminate", topo.Name(), home, src)
					}
				}
				if topo.RevLink(src, src) != -1 {
					t.Fatalf("%s: RevLink at src != -1", topo.Name())
				}
				for i, j := 0, len(fwd)-1; i < len(rev); i, j = i+1, j-1 {
					if j < 0 || rev[i] != fwd[j] {
						t.Fatalf("%s: %d->%d reverse path %v does not retrace forward %v",
							topo.Name(), src, home, rev, fwd)
					}
				}
				if len(rev) != len(fwd) {
					t.Fatalf("%s: %d->%d path lengths differ: fwd %v rev %v", topo.Name(), src, home, fwd, rev)
				}
			}
		}
	}
}

// TestCubeMatchesLegacyRouting pins the Cube wiring to the arithmetic the
// hypercube engine used before the extraction, so the port is byte-exact.
func TestCubeMatchesLegacyRouting(t *testing.T) {
	c := CubeOf(64)
	for cur := 0; cur < 64; cur++ {
		for other := 0; other < 64; other++ {
			diff := cur ^ other
			wantFwd, wantRev := -1, -1
			for d := 0; d < 6; d++ {
				if diff&(1<<d) != 0 {
					if wantFwd == -1 {
						wantFwd = d
					}
					wantRev = d
				}
			}
			if got := c.FwdLink(cur, other); got != wantFwd {
				t.Fatalf("FwdLink(%d,%d) = %d, want %d", cur, other, got, wantFwd)
			}
			if got := c.RevLink(cur, other); got != wantRev {
				t.Fatalf("RevLink(%d,%d) = %d, want %d", cur, other, got, wantRev)
			}
		}
	}
}

func TestSpecValidate(t *testing.T) {
	ok := Spec{Engine: "e", Procs: 8, PowerOf: 2, Banks: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"power", Spec{Engine: "e", Procs: 6, PowerOf: 2, Banks: 1}, "power of 2"},
		{"radix-power", Spec{Engine: "e", Procs: 8, PowerOf: 4, Banks: 1}, "power of 4"},
		{"min", Spec{Engine: "e", Procs: 0, MinProcs: 1, Banks: 1}, ">= 1"},
		{"banks", Spec{Engine: "e", Procs: 4, MinProcs: 1, Banks: 0}, "Banks"},
		{"workers", Spec{Engine: "e", Procs: 8, PowerOf: 2, Banks: 1, Workers: -1}, "Workers"},
		{"service", Spec{Engine: "e", Procs: 8, PowerOf: 2, Banks: 1, Service: -1}, "service time"},
		{"queues", Spec{Engine: "e", Procs: 8, PowerOf: 2, Banks: 1, Queues: MaxQueues + 1}, "33 queues a side"},
		{"topology", Spec{Engine: "e", Procs: 6, Banks: 1, MinProcs: 1,
			Topology: TorusOf(1, 4), TopologySize: 4, TopologyField: "node count"}, "dimension 0"},
		{"topo-size", Spec{Engine: "e", Procs: 6, Banks: 1, MinProcs: 1,
			Topology: TorusOf(2, 4), TopologySize: 8, TopologyField: "node count"}, "disagrees"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Fatalf("%s: invalid spec accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestCounterKeysStable(t *testing.T) {
	keys := CounterKeys()
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("CounterKeys not sorted: %v", keys)
	}
	m := Counters{Cycles: 1}.Map()
	if len(m) != len(keys) {
		t.Fatalf("Map has %d keys, CounterKeys %d", len(m), len(keys))
	}
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			t.Fatalf("key %q missing from Map", k)
		}
	}
}
