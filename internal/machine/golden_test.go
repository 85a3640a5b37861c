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
	"omega/faults/w1":          "d13d1df38a7c72ff",
	"omega/faults/w3":          "d13d1df38a7c72ff",
	"omega/crashdrop/w1":       "ee75e92ff06ea4cc",
	"omega/crashdrop/w3":       "ee75e92ff06ea4cc",
	"omega/adversarial/w1":     "e6c4e4f84615351a",
	"omega/adversarial/w3":     "e6c4e4f84615351a",
	"omega4/clean/w1":          "a6608ed54f5e7ea6",
	"omega4/clean/w3":          "a6608ed54f5e7ea6",
	"omega4/faults/w1":         "6d3736b1cb63451c",
	"omega4/faults/w3":         "6d3736b1cb63451c",
	"omega4/crashdrop/w1":      "fcb380127df84bd3",
	"omega4/crashdrop/w3":      "fcb380127df84bd3",
	"omega4/adversarial/w1":    "34279c7faf94a7cd",
	"omega4/adversarial/w3":    "34279c7faf94a7cd",
	"fattree/clean/w1":         "748b271a60143555",
	"fattree/clean/w3":         "748b271a60143555",
	"fattree/faults/w1":        "5fc6bd2d107c37b4",
	"fattree/faults/w3":        "5fc6bd2d107c37b4",
	"fattree/crashdrop/w1":     "4af6ebb8805624c4",
	"fattree/crashdrop/w3":     "4af6ebb8805624c4",
	"fattree/adversarial/w1":   "cdebf5bf2ee56a56",
	"fattree/adversarial/w3":   "cdebf5bf2ee56a56",
	"hypercube/clean/w1":       "fc2c7bddd8966d57",
	"hypercube/clean/w3":       "fc2c7bddd8966d57",
	"hypercube/faults/w1":      "796fd59debaa7636",
	"hypercube/faults/w3":      "796fd59debaa7636",
	"hypercube/crashdrop/w1":   "4acf0f32a595ebe6",
	"hypercube/crashdrop/w3":   "4acf0f32a595ebe6",
	"hypercube/adversarial/w1": "7eed5ede8fcc6e36",
	"hypercube/adversarial/w3": "7eed5ede8fcc6e36",
	"torus/clean/w1":           "98e43d593c32fafd",
	"torus/clean/w3":           "98e43d593c32fafd",
	"torus/faults/w1":          "a17914d8e6c76a26",
	"torus/faults/w3":          "a17914d8e6c76a26",
	"torus/crashdrop/w1":       "fe7d685c6ce54e0e",
	"torus/crashdrop/w3":       "fe7d685c6ce54e0e",
	"torus/adversarial/w1":     "5e534a515897e72d",
	"torus/adversarial/w3":     "5e534a515897e72d",
	"bus/clean/w1":             "f65ca731e48624a8",
	"bus/clean/w3":             "f65ca731e48624a8",
	"bus/faults/w1":            "0ff66cf6f00a3960",
	"bus/faults/w3":            "0ff66cf6f00a3960",
	"bus/crashdrop/w1":         "ee751a1cef73bdb6",
	"bus/crashdrop/w3":         "ee751a1cef73bdb6",
	"bus/adversarial/w1":       "6304ee510d33b622",
	"bus/adversarial/w3":       "6304ee510d33b622",
}
