package machine_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"combining/internal/chaos"
	"combining/internal/core"
	"combining/internal/machine"
	"combining/internal/rmw"
	"combining/internal/wiring"
	"combining/internal/word"
)

const sampleTrace = `# a tiny trace: four processors hammer cell 5, plus private traffic
0 0 5 add 1
0 1 5 add 1
0 2 5 add 1
0 3 5 add 1
2 0 8 store 42
3 1 8 load
5 2 5 add 10
5 3 9 swap 7
`

func TestParseTrace(t *testing.T) {
	progs, err := machine.ParseTrace(strings.NewReader(sampleTrace), 4)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, prog := range progs {
		n += len(prog)
	}
	if len(progs) != 4 || n != 8 {
		t.Fatalf("%d programs holding %d instructions, want 4 holding 8", len(progs), n)
	}
	if in := progs[0][1]; in.MinCycle != 2 || in.Addr != 8 {
		t.Fatalf("proc 0 instruction 1 = %+v, want cycle 2 at address 8", in)
	}
	if _, ok := progs[1][1].Op.(rmw.Load); !ok {
		t.Fatalf("proc 1 instruction 1 op = %v, want load", progs[1][1].Op)
	}
}

// TestParseTraceSortsStably: one processor's lines may arrive out of cycle
// order; its program is sorted by cycle, and lines of the same cycle keep
// the order they came in.
func TestParseTraceSortsStably(t *testing.T) {
	progs, err := machine.ParseTrace(strings.NewReader("5 0 1 add 1\n0 0 2 load\n5 0 3 store 4\n0 0 4 add 2\n3 1 6 load\n"), 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []word.Addr
	for _, in := range progs[0] {
		got = append(got, in.Addr)
	}
	if want := []word.Addr{2, 4, 1, 3}; !slices.Equal(got, want) {
		t.Fatalf("proc 0 addresses %v, want %v", got, want)
	}
	if len(progs[1]) != 1 || progs[1][0].MinCycle != 3 {
		t.Fatalf("proc 1 program %+v, want one instruction at cycle 3", progs[1])
	}
}

func TestTraceRoundTrip(t *testing.T) {
	progs, err := machine.ParseTrace(strings.NewReader(sampleTrace), 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := machine.WriteTrace(&buf, progs); err != nil {
		t.Fatal(err)
	}
	again, err := machine.ParseTrace(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	for p := range progs {
		if len(again[p]) != len(progs[p]) {
			t.Fatalf("round trip changed proc %d's length: %d vs %d", p, len(again[p]), len(progs[p]))
		}
		for i := range progs[p] {
			a, b := progs[p][i], again[p][i]
			if a.MinCycle != b.MinCycle || a.Addr != b.Addr {
				t.Fatalf("proc %d instruction %d changed: %+v vs %+v", p, i, a, b)
			}
			for _, x := range []word.Word{word.W(0), word.W(13)} {
				if a.Op.Apply(x) != b.Op.Apply(x) {
					t.Fatalf("proc %d instruction %d op changed semantics", p, i)
				}
			}
		}
	}
}

// TestWriteTraceRefuses: a trace line has no field for a fence, a dynamic
// address or op, a dependency, or an op outside the trace vocabulary.
func TestWriteTraceRefuses(t *testing.T) {
	dyn := func([]word.Word) word.Addr { return 0 }
	dynOp := func([]word.Word) rmw.Mapping { return rmw.Load{} }
	for name, in := range map[string]machine.Instr{
		"fence":   machine.Fence(),
		"dynaddr": {Op: rmw.Load{}, DynAddr: dyn},
		"dynop":   {DynOp: dynOp},
		"after":   {Op: rmw.Load{}, After: []int{0}},
		"affine":  machine.RMW(0, rmw.Affine{A: 2, B: 1}),
	} {
		progs := [][]machine.Instr{{machine.RMW(0, rmw.Load{}), in}}
		if err := machine.WriteTrace(&bytes.Buffer{}, progs); err == nil {
			t.Errorf("%s: WriteTrace succeeded", name)
		}
	}
}

// TestReplayThroughMachine: the sample trace replays through the invariant
// battery on every wiring, with and without combining, and the final
// memory matches the serial expectation.
func TestReplayThroughMachine(t *testing.T) {
	const procs = 16
	for _, name := range wiring.Names() {
		for _, waitCap := range []int{0, core.Unbounded} {
			progs, err := machine.ParseTrace(strings.NewReader(sampleTrace), procs)
			if err != nil {
				t.Fatal(err)
			}
			cfg := wiring.Config{Procs: procs, WaitBufCap: waitCap}
			_, eng, _, err := chaos.Battery(name, cfg, progs, 5000)
			if err != nil {
				t.Fatalf("%s wait %d: %v", name, waitCap, err)
			}
			for addr, want := range map[word.Addr]int64{5: 14, 8: 42, 9: 7} {
				if got := eng.Memory().Peek(addr).Val; got != want {
					t.Errorf("%s wait %d: cell %d = %d, want %d", name, waitCap, addr, got, want)
				}
			}
		}
	}
}
