package wiring

import (
	"reflect"
	"strings"
	"testing"
)

// TestMachineSpecRoundTrip pins that EncodeMachine and ParseMachine invert
// exactly on every wiring, from the bare processor count to every key set,
// and that zero fields are omitted so the commands' defaults read short.
func TestMachineSpecRoundTrip(t *testing.T) {
	full := Config{Procs: 16, QueueCap: 2, RevQueueCap: -1, MemQueueCap: 3, WaitBufCap: -1,
		AllowReversal: true, Banks: 8, Workers: 2}
	for _, name := range Names() {
		for _, c := range []Config{{Procs: 16}, full} {
			spec := EncodeMachine(name, c)
			gotName, got, err := ParseMachine(spec)
			if err != nil {
				t.Errorf("ParseMachine(%q): %v", spec, err)
				continue
			}
			if gotName != name || !reflect.DeepEqual(got, c) {
				t.Errorf("round trip of %q gave %s %+v, want %s %+v", spec, gotName, got, name, c)
			}
		}
	}
	if spec := EncodeMachine("omega", Config{Procs: 16, QueueCap: 4, WaitBufCap: -1}); spec != "omega,procs=16,queue=4,wait=-1" {
		t.Errorf("spec %q, want \"omega,procs=16,queue=4,wait=-1\"", spec)
	}
}

// TestParseMachineErrors pins the one-line rejection of malformed specs,
// each naming what is wrong: these are what a mistyped -machine prints.
func TestParseMachineErrors(t *testing.T) {
	for spec, wantSubstr := range map[string]string{
		"":                          `unknown topology ""`,
		",procs=16":                 `unknown topology ""`,
		"procs=16":                  `unknown topology "procs=16"`,
		"ring,procs=16":             `unknown topology "ring"`,
		"?":                         "(want omega, omega4, fattree, bus, hypercube, torus)",
		"omega,procs=16,colour=red": `unknown machine spec key "colour"`,
		"omega,procs=sixteen":       "invalid syntax",
		"omega,procs=1.5":           "invalid syntax",
		"omega,procs":               `procs: strconv.Atoi: parsing ""`,
		"omega,procs=16,reversal=1": "reversal=1: takes no value",
		"omega4,procs=8":            "power of 4",
		"omega,procs=16,workers=-1": "Workers must be >= 0",
	} {
		if _, _, err := ParseMachine(spec); err == nil {
			t.Errorf("ParseMachine(%q) accepted a malformed spec", spec)
		} else if !strings.Contains(err.Error(), wantSubstr) || strings.Contains(err.Error(), "\n") {
			t.Errorf("ParseMachine(%q) error %q, want one line mentioning %q", spec, err, wantSubstr)
		}
	}
}

// FuzzMachineRoundTrip: ParseMachine never panics, and a machine it accepts
// survives EncodeMachine and ParseMachine unchanged — the spec a chaos
// reproducer prints is the machine that failed.
func FuzzMachineRoundTrip(f *testing.F) {
	for _, name := range Names() {
		f.Add(EncodeMachine(name, Config{Procs: 16, QueueCap: 4, WaitBufCap: -1}))
	}
	f.Add("omega,procs=16,queue=2,rev=2,mem=2,wait=4,reversal,banks=4,workers=3")
	f.Add(" bus , procs=3,banks=-0,mem=-7,reversal,reversal")
	f.Add("torus,procs=+8,queue=0x10")
	f.Fuzz(func(t *testing.T, spec string) {
		name, c, err := ParseMachine(spec)
		if err != nil {
			return
		}
		enc := EncodeMachine(name, c)
		name2, back, err := ParseMachine(enc)
		if err != nil {
			t.Fatalf("ParseMachine(%q) accepted, but its encoding %q is rejected: %v", spec, enc, err)
		}
		if name2 != name || !reflect.DeepEqual(back, c) {
			t.Fatalf("round trip changed the machine\nspec: %q\nenc:  %q\nin:   %s %+v\nout:  %s %+v", spec, enc, name, c, name2, back)
		}
	})
}
