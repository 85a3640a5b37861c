package network

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/rmw"
	"combining/internal/word"
)

// TestTraceAudit: the event stream is internally consistent — every
// injection is eventually delivered, every combine is undone by exactly
// one decombine at the same switch, and memory sees exactly the
// uncombined residue — with one worker and with three.
func TestTraceAudit(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) { traceAudit(t, workers) })
	}
}

func traceAudit(t *testing.T, workers int) {
	const n = 16
	log := &engine.TraceLog{}
	inj, scripts := emptyInjectors(n)
	id := 1
	for p := 0; p < n; p++ {
		for r := 0; r < 3; r++ {
			scripts[p].script = append(scripts[p].script, Injection{
				Req: core.NewRequest(word.ReqID(id), 5, rmw.FetchAdd(1), word.ProcID(p)),
			})
			id++
		}
	}
	sim := NewSim(Config{Procs: n, WaitBufCap: core.Unbounded, Workers: workers, Trace: log.Record}, inj)
	if !sim.Drain(5000) {
		t.Fatal("did not drain")
	}

	injects := log.Count(engine.Injected)
	delivers := log.Count(engine.Delivered)
	combines := log.Count(engine.Combined)
	decombines := log.Count(engine.Decombined)
	memServes := log.Count(engine.Served)
	t.Logf("injects=%d delivers=%d combines=%d decombines=%d memory=%d",
		injects, delivers, combines, decombines, memServes)

	if injects != 3*n || delivers != 3*n {
		t.Fatalf("injects %d / delivers %d, want %d each", injects, delivers, 3*n)
	}
	if combines != decombines {
		t.Fatalf("%d combines but %d decombines", combines, decombines)
	}
	// Conservation: every request either reached memory or was absorbed
	// by a combine.
	if memServes+combines != injects {
		t.Fatalf("memory %d + combines %d != injects %d", memServes, combines, injects)
	}
	// Each combine is undone at the switch that performed it.
	type key struct {
		stage, sw int
		id1, id2  word.ReqID
	}
	open := map[key]int{}
	for _, e := range log.Events {
		switch e.Kind {
		case engine.Combined:
			open[key{e.Stage, e.Switch, e.ID, e.ID2}]++
		case engine.Decombined:
			k := key{e.Stage, e.Switch, e.ID, e.ID2}
			if open[k] == 0 {
				t.Fatalf("decombine without matching combine: %v", e)
			}
			open[k]--
		}
	}
	for k, c := range open {
		if c != 0 {
			t.Fatalf("combine never undone: %+v ×%d", k, c)
		}
	}
	// Events are time-ordered.
	for i := 1; i < len(log.Events); i++ {
		if log.Events[i].Cycle < log.Events[i-1].Cycle {
			t.Fatal("trace events out of cycle order")
		}
	}
}

// TestTraceRejects: a zero-capacity wait buffer logs rejects, never
// combines.
func TestTraceRejects(t *testing.T) {
	const n = 8
	log := &engine.TraceLog{}
	inj, scripts := emptyInjectors(n)
	for p := 0; p < n; p++ {
		scripts[p].script = []Injection{{
			Req: core.NewRequest(word.ReqID(p+1), 5, rmw.FetchAdd(1), word.ProcID(p)),
		}}
	}
	sim := NewSim(Config{Procs: n, WaitBufCap: 0, Trace: log.Record}, inj)
	if !sim.Drain(2000) {
		t.Fatal("did not drain")
	}
	if log.Count(engine.Combined) != 0 {
		t.Fatal("combining with zero-capacity buffer")
	}
	if log.Count(engine.Rejected) == 0 {
		t.Fatal("aligned burst produced no reject events")
	}
}

// TestTraceWidthIndependent: the worker count is unobservable in a trace
// too — the events, in order, and the snapshot are the same at Workers 1, 2
// and 3 on hot-spot traffic, healthy, under the adversarial plan and under
// crashes with drops, with combining unbounded and with a one-record wait
// buffer that refuses most combines.
func TestTraceWidthIndependent(t *testing.T) {
	const cycles = 800
	crash := faults.GenCrashPlan(5, 3, cycles, 40)
	crash.DropFwd, crash.DropRev = 0.005, 0.005
	plans := []struct {
		name string
		plan *faults.Plan
	}{{"healthy", nil}, {"adversarial", faults.DefaultAdversarial(3)}, {"crashdrop", crash}}
	run := func(n, waitCap, workers int, plan *faults.Plan) ([]engine.Event, []byte) {
		inj := make([]Injector, n)
		for p := range inj {
			inj[p] = NewStochastic(p, n, TrafficConfig{Rate: 0.7, HotFraction: 0.3, Window: 4}, 17)
		}
		log := &engine.TraceLog{}
		sim := NewSim(Config{Procs: n, WaitBufCap: waitCap, Workers: workers, Faults: plan, Trace: log.Record}, inj)
		sim.Run(cycles)
		return log.Events, sim.Snapshot().JSON()
	}
	for _, n := range []int{16, 64} {
		for _, pc := range plans {
			for _, waitCap := range []int{core.Unbounded, 1} {
				wait := "unbounded"
				if waitCap == 1 {
					wait = "wait1"
				}
				t.Run(fmt.Sprintf("n%d/%s/%s", n, pc.name, wait), func(t *testing.T) {
					want, wantSnap := run(n, waitCap, 1, pc.plan)
					kinds := map[engine.EventKind]int{}
					for _, e := range want {
						kinds[e.Kind]++
					}
					if kinds[engine.Combined] == 0 || kinds[engine.Served] == 0 || (waitCap == 1 && kinds[engine.Rejected] == 0) {
						t.Fatalf("the run never engaged the station events: %v", kinds)
					}
					t.Logf("%d events: %v", len(want), kinds)
					for _, workers := range []int{2, 3} {
						got, snap := run(n, waitCap, workers, pc.plan)
						if !slices.Equal(got, want) {
							i := 0
							for i < min(len(got), len(want)) && got[i] == want[i] {
								i++
							}
							t.Fatalf("Workers=%d: %d events, one worker %d; first difference at event %d", workers, len(got), len(want), i)
						}
						if !bytes.Equal(snap, wantSnap) {
							t.Fatalf("Workers=%d snapshot differs:\n%s\none worker:\n%s", workers, snap, wantSnap)
						}
					}
				})
			}
		}
	}
}
