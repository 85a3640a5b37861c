package machine

import (
	"fmt"
	"hash/fnv"
	"testing"

	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/wiring"
	"combining/internal/word"
)

// Golden digests: the cycle-domain output of every wiring, pinned across
// commits.  The determinism tests compare Workers widths to each other
// within one build; nothing else compares a run to what the same run
// produced before a change.  One fixed program set runs on each of the six
// registered wirings (built by name, through internal/wiring) under four
// plans, at Workers 1 and 3, and an FNV-1a digest of the marshalled
// Snapshot plus the final memory image must equal the committed table.  A
// refactor that claims "same behaviour" leaves the table alone; a change
// that means to move a counter edits exactly the rows it moves and says why.

const (
	goldenProcs = 64
	goldenOps   = 16
	// goldenStride spaces each processor's instructions so every run
	// outlasts the last window of the crash plan (a link burst ending at
	// cycle 940) however fast the wiring is.
	goldenStride = 80
	goldenAddrs  = 7 + goldenProcs
)

// goldenPrograms is faultPrograms with the issue cycles spread out.
func goldenPrograms() [][]Instr {
	progs := faultPrograms(goldenProcs, goldenOps)
	for _, prog := range progs {
		for i := range prog {
			prog[i].MinCycle = int64(i * goldenStride)
		}
	}
	return progs
}

// hotTagged marks requests to the shared counter as hot-spot traffic, so
// the hot/cold completion split is part of what the digests pin (program
// injectors leave every request untagged).
type hotTagged struct{ engine.Injector }

func (h hotTagged) Next(cycle int64) (engine.Injection, bool) {
	in, ok := h.Injector.Next(cycle)
	in.Hot = ok && in.Req.Addr == hotCell
	return in, ok
}

var goldenPlans = []struct {
	name string
	plan func() *faults.Plan
}{
	{"clean", func() *faults.Plan { return nil }},
	{"faults", func() *faults.Plan { return faults.Default(71) }},
	{"crashdrop", func() *faults.Plan { return crashDropPlan(72) }},
	{"adversarial", func() *faults.Plan { return faults.DefaultAdversarial(73) }},
}

// goldenDigest runs the program set to completion on one machine and hashes
// what it left behind.
func goldenDigest(t *testing.T, name string, m *Machine) string {
	t.Helper()
	eng := m.Engine()
	if !m.Run(400000) {
		if eng.Stalled() {
			t.Fatalf("%s: watchdog tripped:\n%s", name, eng.StallReport())
		}
		t.Fatalf("%s: programs did not complete (%d in flight)", name, eng.InFlight())
	}
	h := fnv.New64a()
	h.Write(eng.Snapshot().JSON())
	for a := word.Addr(0); a < goldenAddrs; a++ {
		fmt.Fprintf(h, "|%d=%v", a, eng.Memory().Peek(a))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestGoldenDigests(t *testing.T) {
	for _, name := range wiring.Names() {
		for _, pl := range goldenPlans {
			for _, w := range []int{1, 3} {
				key := fmt.Sprintf("%s/%s/w%d", name, pl.name, w)
				// The bus rows were committed on eight banks.
				build := wired(t, name, wiring.Config{
					Procs: goldenProcs, WaitBufCap: 8, Banks: 8, Faults: pl.plan(), Workers: w})
				m := New(goldenPrograms(), func(inj []engine.Injector) engine.Machine {
					for p := range inj {
						inj[p] = hotTagged{inj[p]}
					}
					return build(inj)
				})
				got := goldenDigest(t, key, m)
				if want, ok := goldenTable[key]; !ok || got != want {
					t.Errorf("golden digest moved:\n\t%q: %q,   (committed: %q)", key, got, want)
				}
			}
		}
	}
}

// goldenTable is the committed cycle-domain behaviour, one row per
// (wiring, plan, Workers).  Workers must be unobservable, so the w1 and w3
// rows of a pair are equal by construction.
var goldenTable = map[string]string{
	"omega/clean/w1":           "755444adfcd24202",
	"omega/clean/w3":           "755444adfcd24202",
	"omega/faults/w1":          "3f8b2b770ee43e97",
	"omega/faults/w3":          "3f8b2b770ee43e97",
	"omega/crashdrop/w1":       "e97e56642ba1eea5",
	"omega/crashdrop/w3":       "e97e56642ba1eea5",
	"omega/adversarial/w1":     "e9e5fff8b33e358a",
	"omega/adversarial/w3":     "e9e5fff8b33e358a",
	"omega4/clean/w1":          "a6608ed54f5e7ea6",
	"omega4/clean/w3":          "a6608ed54f5e7ea6",
	"omega4/faults/w1":         "2307047428caaefe",
	"omega4/faults/w3":         "2307047428caaefe",
	"omega4/crashdrop/w1":      "dff6b451f1e7bb4e",
	"omega4/crashdrop/w3":      "dff6b451f1e7bb4e",
	"omega4/adversarial/w1":    "222d07b3129e9124",
	"omega4/adversarial/w3":    "222d07b3129e9124",
	"fattree/clean/w1":         "748b271a60143555",
	"fattree/clean/w3":         "748b271a60143555",
	"fattree/faults/w1":        "86f8e406d7a5d404",
	"fattree/faults/w3":        "86f8e406d7a5d404",
	"fattree/crashdrop/w1":     "abc0049c1b674128",
	"fattree/crashdrop/w3":     "abc0049c1b674128",
	"fattree/adversarial/w1":   "05998717c55dabb3",
	"fattree/adversarial/w3":   "05998717c55dabb3",
	"hypercube/clean/w1":       "fc2c7bddd8966d57",
	"hypercube/clean/w3":       "fc2c7bddd8966d57",
	"hypercube/faults/w1":      "9e14fd8f7f40d04a",
	"hypercube/faults/w3":      "9e14fd8f7f40d04a",
	"hypercube/crashdrop/w1":   "e6ddf1b81662d9de",
	"hypercube/crashdrop/w3":   "e6ddf1b81662d9de",
	"hypercube/adversarial/w1": "10bdecc81d95a661",
	"hypercube/adversarial/w3": "10bdecc81d95a661",
	"torus/clean/w1":           "98e43d593c32fafd",
	"torus/clean/w3":           "98e43d593c32fafd",
	"torus/faults/w1":          "71691c61d3693445",
	"torus/faults/w3":          "71691c61d3693445",
	"torus/crashdrop/w1":       "b7959100a7df795b",
	"torus/crashdrop/w3":       "b7959100a7df795b",
	"torus/adversarial/w1":     "f7e700d2f756b79c",
	"torus/adversarial/w3":     "f7e700d2f756b79c",
	"bus/clean/w1":             "f65ca731e48624a8",
	"bus/clean/w3":             "f65ca731e48624a8",
	"bus/faults/w1":            "b27da33490959073",
	"bus/faults/w3":            "b27da33490959073",
	"bus/crashdrop/w1":         "ccbed3336e401512",
	"bus/crashdrop/w3":         "ccbed3336e401512",
	"bus/adversarial/w1":       "d8c75d326a35e668",
	"bus/adversarial/w3":       "d8c75d326a35e668",
}
