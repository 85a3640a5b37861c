package network

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/par"
)

// snapshotAfter runs a seeded hot-spot workload for a fixed cycle count at
// the given worker width and returns the stable-ordered Snapshot JSON.
func snapshotAfter(workers int, plan *faults.Plan, cycles int) []byte {
	const n = 64
	inj := make([]Injector, n)
	for p := 0; p < n; p++ {
		inj[p] = NewStochastic(p, n, TrafficConfig{
			Rate: 0.7, HotFraction: 0.4, Window: 4,
		}, 99)
	}
	sim := NewSim(Config{Procs: n, Workers: workers, Faults: plan}, inj)
	sim.Run(cycles)
	return sim.Snapshot().JSON()
}

// TestParallelStepDeterministic: the worker count must be unobservable —
// every counter, gauge and histogram bucket identical to the serial
// stepper at any width, clean and under a fault plan.
func TestParallelStepDeterministic(t *testing.T) {
	widths := []int{2, 3, 4, runtime.GOMAXPROCS(0)}
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{
		{"clean", nil},
		{"faults", faults.Default(21)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := snapshotAfter(1, tc.plan, 3000)
			for _, w := range widths {
				got := snapshotAfter(w, tc.plan, 3000)
				if !bytes.Equal(got, want) {
					t.Errorf("Workers=%d snapshot differs from serial:\nserial: %s\nparallel: %s",
						w, want, got)
				}
			}
		})
	}
}

// TestParallelRadix4Deterministic covers the radix-4 group shapes (strided
// forward groups with stride 4, contiguous reverse groups of 4).
func TestParallelRadix4Deterministic(t *testing.T) {
	run := func(workers int) []byte {
		const n = 64
		inj := make([]Injector, n)
		for p := 0; p < n; p++ {
			inj[p] = NewStochastic(p, n, TrafficConfig{
				Rate: 0.8, HotFraction: 0.3, Window: 4,
			}, 7)
		}
		sim := NewSim(Config{Procs: n, Radix: 4, Workers: workers}, inj)
		sim.Run(2000)
		return sim.Snapshot().JSON()
	}
	want := run(1)
	for _, w := range []int{2, 5, 8} {
		if got := run(w); !bytes.Equal(got, want) {
			t.Errorf("radix 4, Workers=%d snapshot differs from serial", w)
		}
	}
}

// TestParallelMinimumNetwork: k=1 (Procs == Radix) exercises the stage-0 ==
// last-stage corner where both per-switch paths coincide.
func TestParallelMinimumNetwork(t *testing.T) {
	run := func(workers int) []byte {
		const n = 2
		inj := make([]Injector, n)
		for p := 0; p < n; p++ {
			inj[p] = NewStochastic(p, n, TrafficConfig{Rate: 0.9, Window: 4}, 3)
		}
		sim := NewSim(Config{Procs: n, Workers: workers}, inj)
		sim.Run(500)
		return sim.Snapshot().JSON()
	}
	want := run(1)
	if got := run(4); !bytes.Equal(got, want) {
		t.Errorf("k=1, Workers=4 snapshot differs from serial")
	}
}

// TestSwitchListsVisitOwnerOrder: every worker's walk of its switch list
// (switchLists, inTurn) visits exactly the switches, in exactly the order,
// of the filter it replaced — the whole stage in the cycle's rotation order
// from the first switch sw0, keeping those an owner table built from the
// same conflict groups gives the worker.  Widths 1–8, every sw0, every
// stage of both sweeps, on omega at radix 2 and 4 and on the fat-tree, 16
// to 1024 processors.
func TestSwitchListsVisitOwnerOrder(t *testing.T) {
	// ownerTable is the table the lists replaced: owner[stage·ns+sw] is the
	// worker that hops switch sw of that stage.
	ownerTable := func(topo engine.Staged, workers int, groups func(stage int) [][]int, stages []int) []int32 {
		ns := topo.Procs() / topo.Radix()
		owner := make([]int32, topo.Stages()*ns)
		for _, stage := range stages {
			gs := groups(stage)
			for w := 0; w < workers; w++ {
				lo, hi := par.Split(len(gs), workers, w)
				for _, g := range gs[lo:hi] {
					for _, sw := range g {
						owner[stage*ns+sw] = int32(w)
					}
				}
			}
		}
		return owner
	}
	var topos []engine.Staged
	for _, n := range []int{16, 64, 256, 1024} {
		topos = append(topos, engine.OmegaOf(n, 2), engine.OmegaOf(n, 4), engine.FatTreeOf(n, 2))
	}
	for _, topo := range topos {
		k, ns := topo.Stages(), topo.Procs()/topo.Radix()
		var fwdStages, revStages []int
		for stage := 0; stage < k; stage++ {
			fwdStages = append(fwdStages, stage)
			if stage > 0 {
				revStages = append(revStages, stage)
			}
		}
		fwdGroups := func(stage int) [][]int {
			if stage == k-1 {
				alone := make([][]int, ns)
				for sw := range alone {
					alone[sw] = []int{sw}
				}
				return alone
			}
			return engine.FwdGroups(topo, stage)
		}
		revGroups := func(stage int) [][]int { return engine.RevGroups(topo, stage) }
		for workers := 1; workers <= 8; workers++ {
			fwd, rev := switchLists(topo, workers)
			walks, next := make([][]int32, workers), make([]int, workers)
			for _, sweep := range []struct {
				name   string
				lists  [][]int32
				owner  []int32
				stages []int
			}{
				{"fwd", fwd, ownerTable(topo, workers, fwdGroups, fwdStages), fwdStages},
				{"rev", rev, ownerTable(topo, workers, revGroups, revStages), revStages},
			} {
				for _, stage := range sweep.stages {
					own := sweep.owner[stage*ns : (stage+1)*ns]
					for sw0 := 0; sw0 < ns; sw0++ {
						// One pass of the rotation serves every worker: switch
						// sw is the next its owner's walk must visit.
						for w := range walks {
							after, before := inTurn(sweep.lists[w*k+stage], sw0)
							walks[w], next[w] = append(append(walks[w][:0], after...), before...), 0
						}
						for i, sw := 0, sw0; i < ns; i, sw = i+1, engine.Next(sw, ns) {
							w := own[sw]
							if next[w] == len(walks[w]) || walks[w][next[w]] != int32(sw) {
								t.Fatalf("%s n%d radix %d, %d workers, %s stage %d, sw0 %d: worker %d walks %v, the owner table's order reaches switch %d at its step %d",
									topo.Name(), topo.Procs(), topo.Radix(), workers, sweep.name, stage, sw0, w, walks[w], sw, next[w])
							}
							next[w]++
						}
						for w := range walks {
							if next[w] != len(walks[w]) {
								t.Fatalf("%s n%d radix %d, %d workers, %s stage %d, sw0 %d: worker %d walks %v, the owner table gives it %d of them",
									topo.Name(), topo.Procs(), topo.Radix(), workers, sweep.name, stage, sw0, w, walks[w], next[w])
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkParallelStep measures per-cycle step cost across worker widths
// under a saturating hot-spot load (`make parbench`, the E15 curve): 30 %
// of the traffic to one address with combining off.  Its n1024hot8 cases
// are bench/run.sh's omega_parallel machine and traffic — 1024 processors,
// combining on, a 1/8 hot spot — at Workers 1 and 2; `make stepcmp` runs
// them and the n1024/w1 and n1024/w2 cases.  omega_parallel reports the
// same ratio with an estimator as par.speedup_vs_serial.
func BenchmarkParallelStep(b *testing.B) {
	type shape struct {
		name    string
		n       int
		hot     float64
		waitCap int
		warm    int
		widths  []int
	}
	shapes := []shape{
		{"n256", 256, 0.3, 0, 64, []int{1, 2, 4, 8}},
		{"n1024", 1024, 0.3, 0, 64, []int{1, 2, 4, 8}},
		{"n1024hot8", 1024, 0.125, core.Unbounded, 300, []int{1, 2}},
	}
	for _, sh := range shapes {
		for _, w := range sh.widths {
			b.Run(fmt.Sprintf("%s/w%d", sh.name, w), func(b *testing.B) {
				inj := make([]Injector, sh.n)
				for p := range inj {
					inj[p] = NewStochastic(p, sh.n, TrafficConfig{
						Rate: 0.9, HotFraction: sh.hot, Window: 4,
					}, 5)
				}
				sim := NewSim(Config{Procs: sh.n, WaitBufCap: sh.waitCap, Workers: w}, inj)
				// Bare Step() bypasses Run's pool bracket; start the workers
				// here so the loop measures persistent dispatch, not
				// goroutine spawns.
				sim.pool.Start()
				defer sim.pool.Stop()
				sim.Run(sh.warm) // fill the pipeline before timing
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sim.Step()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
			})
		}
	}
}
