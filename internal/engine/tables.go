package engine

// Hop is one end of a wire between two columns of a staged network: the
// switch a line belongs to and the port it occupies there (line =
// Switch·radix + Port, split once so a sweep never divides).
type Hop struct {
	Switch int32
	Port   int32
}

// StagedTables is a Staged wiring evaluated once, at construction, for the
// sweeps that would otherwise redo its arithmetic — an interface call and a
// digit loop — for every message on every hop.  Staged stays the definition
// (TestStagedTablesMatchWiring holds every entry to it); the tables are what
// a step loop indexes.
type StagedTables struct {
	// Next[s][line] is where output line `line` of stage s enters stage
	// s+1, for s < Stages−1; Prev[s][line] is where input line `line` of
	// stage s ≥ 1 left stage s−1.  Prev[0] and Next[Stages−1] are nil: those
	// lines meet processors and memory modules, not switches.
	Next, Prev [][]Hop
	// OutPort[s][dst] is the output port stage s routes a request for
	// memory module dst to.
	OutPort [][]uint8
	// ProcLine[p] is where processor p enters stage 0; LineProc[line] is the
	// processor a stage-0 reply on that line belongs to.
	ProcLine []Hop
	LineProc []int32
}

// CompileStaged evaluates t into tables.  The tables take 17 bytes per line
// per stage: 34 KB for the 256-processor omega network, 170 KB at 1024.
func CompileStaged(t Staged) *StagedTables {
	n, radix, k := t.Procs(), t.Radix(), t.Stages()
	split := func(line int) Hop {
		return Hop{Switch: int32(line / radix), Port: int32(line % radix)}
	}
	tb := &StagedTables{
		Next:     make([][]Hop, k),
		Prev:     make([][]Hop, k),
		OutPort:  make([][]uint8, k),
		ProcLine: make([]Hop, n),
		LineProc: make([]int32, n),
	}
	for s := 0; s < k; s++ {
		tb.OutPort[s] = make([]uint8, n)
		for dst := 0; dst < n; dst++ {
			tb.OutPort[s][dst] = uint8(t.OutPort(s, dst))
		}
		if s+1 < k {
			tb.Next[s] = make([]Hop, n)
			for line := 0; line < n; line++ {
				tb.Next[s][line] = split(t.NextLine(s, line))
			}
		}
		if s > 0 {
			tb.Prev[s] = make([]Hop, n)
			for line := 0; line < n; line++ {
				tb.Prev[s][line] = split(t.PrevLine(s, line))
			}
		}
	}
	for i := 0; i < n; i++ {
		tb.ProcLine[i] = split(t.ProcLine(i))
		tb.LineProc[i] = int32(t.LineProc(i))
	}
	return tb
}
