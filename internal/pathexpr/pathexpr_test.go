package pathexpr

import (
	"testing"

	"combining/internal/chaos"
	"combining/internal/core"
	"combining/internal/machine"
	"combining/internal/rmw"
	"combining/internal/wiring"
	"combining/internal/word"
)

func TestParse(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"read", "read"},
		{"read write", "read write"},
		{"read | write", "(read | write)"},
		{"(read | write)*", "((read | write))*"},
		{"open (read | write)* close", "open ((read | write))* close"},
		{"a b* | c", "(a (b)* | c)"},
	}
	for _, tc := range cases {
		e, err := Parse(tc.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.src, err)
			continue
		}
		if got := e.String(); got != tc.want {
			t.Errorf("Parse(%q) = %q, want %q", tc.src, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{"", "(a", "a)", "|a", "a |", "()", "*", "a $ b"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestGuardSequences(t *testing.T) {
	g, err := Compile("open (read | write)* close")
	if err != nil {
		t.Fatal(err)
	}
	legal := [][]string{
		{"open"},
		{"open", "close"},
		{"open", "read", "read", "write", "close"},
		{"open", "write", "close"},
	}
	illegal := [][]string{
		{"read"},
		{"close"},
		{"open", "open"},
		{"open", "close", "read"},
		{"open", "read", "close", "close"},
	}
	for _, seq := range legal {
		if !g.Accepts(seq...) {
			t.Errorf("legal sequence %v rejected", seq)
		}
	}
	for _, seq := range illegal {
		if g.Accepts(seq...) {
			t.Errorf("illegal sequence %v accepted", seq)
		}
	}
}

func TestGuardCyclic(t *testing.T) {
	// The classic producer/consumer discipline as a path expression.
	g, err := Compile("(produce consume)*")
	if err != nil {
		t.Fatal(err)
	}
	if !g.Accepts("produce", "consume", "produce", "consume") {
		t.Error("alternating sequence rejected")
	}
	if g.Accepts("produce", "produce") {
		t.Error("double produce accepted")
	}
	if g.Accepts("consume") {
		t.Error("initial consume accepted")
	}
}

// TestGuardMappingsCombine checks that guard operations are ordinary
// Section 5.6 tables: they compose, and the composition matches stepwise
// application.
func TestGuardMappingsCombine(t *testing.T) {
	g, err := Compile("(produce consume)*")
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := g.Mapping("produce")
	cons, _ := g.Mapping("consume")
	comb, ok := rmw.Compose(prod, cons)
	if !ok {
		t.Fatal("guard mappings must combine")
	}
	for s := 0; s < g.States(); s++ {
		w := word.WT(0, word.Tag(s))
		want := cons.Apply(prod.Apply(w))
		if got := comb.Apply(w); got != want {
			t.Errorf("state %d: combined %v, want %v", s, got, want)
		}
	}
}

// TestGuardOnCombiningNetwork drives a path expression through the
// combining Omega machine: half of eight processors attempt produce, the
// other half consume, all at once, and the battery checks the run against a
// serialization of the guard cell.  Inside the network the guard mappings
// combine; each successful access must still have fired from the state the
// automaton allows it in.
func TestGuardOnCombiningNetwork(t *testing.T) {
	g, err := Compile("(produce consume)*")
	if err != nil {
		t.Fatal(err)
	}
	const procs, attempts = 8, 25
	const guardCell = word.Addr(9)
	role := func(p int) string {
		if p < procs/2 {
			return "produce"
		}
		return "consume"
	}
	progs := make([][]machine.Instr, procs)
	for p := range progs {
		m, _ := g.Mapping(role(p))
		for i := 0; i < attempts; i++ {
			progs[p] = append(progs[p], machine.RMW(guardCell, m))
		}
	}
	mach, eng, c, err := chaos.Battery("omega",
		wiring.Config{Procs: procs, WaitBufCap: core.Unbounded}, progs, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if c["combines"] == 0 {
		t.Fatal("no guard mapping combined: the network was not exercised")
	}

	// The processors cannot observe the memory serialization order
	// directly, but the automaton already encodes it: a successful
	// produce must have fired from state 0 and a successful consume
	// from state 1, which the reply's old tag certifies.
	succeeded := map[string]int{}
	for p := range progs {
		op := role(p)
		m, _ := g.Mapping(op)
		want := word.Tag(0)
		if op == "consume" {
			want = 1
		}
		for i := range progs[p] {
			old := mach.Proc(p).Reply(i)
			if m.Failed(old.Tag) {
				continue
			}
			if old.Tag != want {
				t.Fatalf("a %s succeeded from state %d", op, old.Tag)
			}
			succeeded[op]++
		}
	}
	t.Logf("%d produces and %d consumes succeeded, %d combines", succeeded["produce"], succeeded["consume"], c["combines"])
	if succeeded["consume"] == 0 {
		t.Fatal("no consume succeeded: the guard never alternated")
	}
	// Alternating operations leave the automaton in state produces −
	// consumes.
	if got, want := eng.Memory().Peek(guardCell).Tag, word.Tag(succeeded["produce"]-succeeded["consume"]); got != want {
		t.Fatalf("guard ended in state %d after %d produces and %d consumes, want %d",
			got, succeeded["produce"], succeeded["consume"], want)
	}
}

func TestDFAMinimized(t *testing.T) {
	// The cyclic producer/consumer expression needs exactly two states;
	// subset construction alone yields three (the post-cycle state is
	// behaviorally identical to the start).  Minimization matters: the
	// state count bounds the store values a combined request carries.
	cases := []struct {
		src  string
		want int
	}{
		{"(produce consume)*", 2},
		{"(a | a a)*", 1}, // a* in disguise
		{"a | b", 2},
	}
	for _, tc := range cases {
		g, err := Compile(tc.src)
		if err != nil {
			t.Fatalf("Compile(%q): %v", tc.src, err)
		}
		if g.States() != tc.want {
			t.Errorf("Compile(%q): %d states, want %d", tc.src, g.States(), tc.want)
		}
	}
}

func TestDFAStateBound(t *testing.T) {
	g, err := Compile("a b c d e f g h")
	if err != nil {
		t.Fatal(err)
	}
	if g.States() != 9 {
		t.Errorf("chain of 8 ops compiled to %d states, want 9", g.States())
	}
}
