package engine

// Link is one compiled wire: where the head of a queue goes next.
type Link struct {
	// To is the station at the far end.  A link that ends at a terminal —
	// memory module t on the forward side, processor t on the reverse side —
	// holds -1-t.
	To int32
	// In is the input port the wire occupies at To: what a request that
	// records its path stamps there.
	In int32
}

// Coord is a link's fault coordinate (faults.Site; link-down windows select
// Stage and Index).  The coordinates are kept beside the links, not in them:
// a healthy machine's hop never reads one.
type Coord struct{ Stage, Index, Port int32 }

// Links is a wiring evaluated once, at construction, for the hops that would
// otherwise redo its arithmetic — an interface call and a digit loop — for
// every message on every hop.  Staged and Direct stay the definitions
// (TestStagedTablesMatchWiring and TestDirectTablesMatchWiring hold every
// entry to them); the table is what the hops index.  Stations are numbered
// as the fault plans number switch sites: stage·width + index.
type Links struct {
	// Name is the wiring's (Staged.Name, Direct.Name), which a stall report
	// leads with.
	Name string
	// Ports and RevPorts are the forward and reverse links per station.  A
	// station may own one forward queue more than it has links: queue Ports,
	// the combining queue in front of its own memory (Section 7); a request
	// refused there counts as held by memory.
	Ports, RevPorts int
	// Fwd[station·Ports+port] and Rev[station·RevPorts+port] are the links
	// out of a station's queues, FwdAt and RevAt their fault coordinates.
	Fwd, Rev     []Link
	FwdAt, RevAt []Coord
	// Proc[p] is processor p's link into the fabric, ProcAt[p] its fault
	// coordinate, and Home[p] the coordinate of the link back to p (where
	// the adversarial integrity layer draws).
	Proc         []Link
	ProcAt, Home []Coord
	// Route[station][module] is the forward queue a request for that module
	// joins at that station.
	Route [][]uint8
	// Back[station] routes replies by processor (Station.Back); nil on
	// wirings whose requests record their path, PathLen entries of it.
	Back    [][]int8
	PathLen int
	// Hosts[mod], when set, is the station module mod is part of: that
	// station's crash is the module's crash too (a direct machine's node).
	// Holds[mod], when set, is the station that keeps module mod's reply
	// routing state: its crash orphans the replies of requests inside the
	// module (the bus controller).  Behind[p], when set, is the station on
	// processor p's side of its terminal link: replies decombine there after
	// crossing it (the bus's wait buffer sits behind the return bus).
	Hosts, Holds, Behind []int32
}

// CompileStaged evaluates t into links.  Station (s, i) is s·(n/radix)+i and
// its port p carries line i·radix+p; the hot tables take 17 bytes per line
// per stage: 34 KB for the 256-processor omega network, 170 KB at 1024.  A
// wiring its own Validate rejects — one whose route does not fit a Path —
// is a caller's bug here, and panics.
func CompileStaged(t Staged) *Links {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	n, radix, k := t.Procs(), t.Radix(), t.Stages()
	width := n / radix
	end := func(stage, line int) (Link, Coord) {
		return Link{To: int32(stage*width + line/radix), In: int32(line % radix)},
			Coord{int32(stage), int32(line / radix), int32(line % radix)}
	}
	lk := &Links{
		Name: t.Name(), Ports: radix, RevPorts: radix, PathLen: k,
		Fwd: make([]Link, k*n), FwdAt: make([]Coord, k*n),
		Rev: make([]Link, k*n), RevAt: make([]Coord, k*n),
		Proc: make([]Link, n), ProcAt: make([]Coord, n), Home: make([]Coord, n),
		Route: make([][]uint8, k*width),
	}
	for s := 0; s < k; s++ {
		route := make([]uint8, n)
		for dst := range route {
			route[dst] = uint8(t.OutPort(s, dst))
		}
		for i := 0; i < width; i++ {
			lk.Route[s*width+i] = route
		}
		for line := 0; line < n; line++ {
			at := s*n + line
			// Output line L of the last stage is wired to module L; input
			// line L of stage 0 belongs to processor LineProc(L).
			lk.Fwd[at], lk.FwdAt[at] = Link{To: int32(-1 - line)}, Coord{int32(k), int32(line), 0}
			if s+1 < k {
				lk.Fwd[at], lk.FwdAt[at] = end(s+1, t.NextLine(s, line))
			}
			_, lk.RevAt[at] = end(s, line)
			lk.Rev[at] = Link{To: int32(-1 - t.LineProc(line))}
			if s > 0 {
				lk.Rev[at], _ = end(s-1, t.PrevLine(s, line))
			}
		}
	}
	for p := 0; p < n; p++ {
		lk.Proc[p], lk.ProcAt[p] = end(0, t.ProcLine(p))
		lk.Home[p] = Coord{0, int32(p), 0}
	}
	return lk
}

// CompileDirect evaluates t into links: node i is station i, hosting
// processor i and module i; its link queues are 0..Degree-1 and queue Degree
// is the combining queue in front of the node's own memory.  The routing
// tables take two bytes per node pair — 128 KB at 256 nodes.
func CompileDirect(t Direct) *Links {
	n, d := t.Nodes(), t.Degree()
	lk := &Links{
		Name: t.Name(), Ports: d, RevPorts: d,
		Fwd: make([]Link, n*d), FwdAt: make([]Coord, n*d),
		Proc: make([]Link, n), ProcAt: make([]Coord, n), Home: make([]Coord, n),
		Route: make([][]uint8, n), Back: make([][]int8, n), Hosts: make([]int32, n),
	}
	for i := 0; i < n; i++ {
		route, back := make([]uint8, n), make([]int8, n)
		for j := 0; j < n; j++ {
			route[j] = uint8(d) // home: the memory combining queue
			if f := t.FwdLink(i, j); f >= 0 {
				route[j] = uint8(f)
			}
			back[j] = int8(t.RevLink(i, j)) // -1 at home
		}
		lk.Route[i], lk.Back[i] = route, back
		for l := 0; l < d; l++ {
			nb := int32(t.Neighbor(i, l))
			lk.Fwd[i*d+l], lk.FwdAt[i*d+l] = Link{To: nb, In: int32(l)}, Coord{1, nb, int32(l)}
		}
		lk.Proc[i], lk.ProcAt[i], lk.Home[i] = Link{To: int32(i)}, Coord{0, int32(i), 0}, Coord{3, int32(i), 0}
		lk.Hosts[i] = int32(i)
	}
	// A link is the same wire in both directions.
	lk.Rev, lk.RevAt = lk.Fwd, lk.FwdAt
	return lk
}
