package wiring

import (
	"strings"
	"testing"

	"combining/internal/machine"
	"combining/internal/rmw"
	"combining/internal/word"
)

// TestEveryNameBuildsAndRuns: each registered wiring builds at 16
// processors and carries a pure hot spot to completion, combining on the way.
func TestEveryNameBuildsAndRuns(t *testing.T) {
	const procs, ops = 16, 8
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			progs := make([][]machine.Instr, procs)
			for p := range progs {
				for i := 0; i < ops; i++ {
					progs[p] = append(progs[p], machine.RMW(word.Addr(0), rmw.FetchAdd(1)))
				}
			}
			m, inj := machine.NewInjectors(progs)
			eng, err := New(name, Config{Procs: procs, WaitBufCap: 64}, inj)
			if err != nil {
				t.Fatal(err)
			}
			m.BindEngine(eng)
			if !m.Run(100000) {
				t.Fatalf("hot-spot run did not complete (%d in flight)", eng.InFlight())
			}
			if got := eng.Memory().Peek(0).Val; got != procs*ops {
				t.Errorf("final counter %d, want %d", got, procs*ops)
			}
			if eng.Snapshot().Counters["combines"] == 0 {
				t.Error("a 16-processor hot spot never combined")
			}
		})
	}
}

// TestValidateErrors pins the two one-line rejections a command prints: a
// processor count the wiring cannot have, and a name not in the registry —
// the latter listing the names that are.
func TestValidateErrors(t *testing.T) {
	if err := Validate("omega4", Config{Procs: 8}); err == nil || strings.Contains(err.Error(), "\n") {
		t.Errorf("omega4 at 8 processors: want a one-line error, got %v", err)
	}
	err := Validate("ring", Config{Procs: 16})
	if err == nil || strings.Contains(err.Error(), "\n") {
		t.Fatalf("unknown name: want a one-line error, got %v", err)
	}
	for _, want := range append(Names(), `unknown topology "ring"`) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-name error %q does not mention %q", err, want)
		}
	}
	if _, err := New("ring", Config{Procs: 16}, nil); err == nil {
		t.Error("New built an unregistered wiring")
	}
}
