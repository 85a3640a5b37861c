package network

import (
	"bytes"
	"fmt"
	"math/bits"
	"runtime"
	"testing"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
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

// TestSwitchListsVisitOwnerOrder: every worker's walk of a stage whose
// switches all hold a message — hopAll's rotation (engine.Rotate) over the
// words of the switches the owner tables give it — visits exactly the
// switches, in exactly the order, of the filter it replaced: the whole
// stage in the cycle's rotation order from the first switch sw0, keeping
// those the worker owns.  Widths 1–8, every sw0, both sides of every stage,
// on omega at radix 2 and 4 and on the fat-tree, 16 to 1024 processors.
func TestSwitchListsVisitOwnerOrder(t *testing.T) {
	for _, topo := range stagedTopos() {
		k, ns := topo.Stages(), topo.Procs()/topo.Radix()
		phases := stagedPhases(k)
		for workers := 1; workers <= 8; workers++ {
			fwd, rev := owners(topo, workers, phases)
			for row := 0; row < 2*k; row++ {
				own := fwd[row/2*ns : (row/2+1)*ns]
				if row%2 == 1 {
					own = rev[row/2*ns : (row/2+1)*ns]
				}
				words := make([][]uint64, workers)
				for w := range words {
					words[w] = ownBits(own, w)
				}
				walks, next := make([][]int, workers), make([]int, workers)
				for sw0 := 0; sw0 < ns; sw0++ {
					rot := engine.Rotate(sw0, ns)
					for w := range walks {
						walks[w], next[w] = walks[w][:0], 0
						for v := 0; v < rot.Visits(); v++ {
							i, keep := rot.Word(v)
							for m := words[w][i] & keep; m != 0; m &= m - 1 {
								walks[w] = append(walks[w], i<<6|bits.TrailingZeros64(m))
							}
						}
					}
					// One pass of the rotation serves every worker: switch
					// sw is the next its owner's walk must visit.
					for n, sw := 0, sw0; n < ns; n, sw = n+1, engine.Next(sw, ns) {
						w := own[sw]
						if next[w] == len(walks[w]) || walks[w][next[w]] != sw {
							t.Fatalf("%s n%d radix %d, %d workers, stage %d fwd %v, sw0 %d: worker %d walks %v, the owner table's order reaches switch %d at its step %d",
								topo.Name(), topo.Procs(), topo.Radix(), workers, row/2, row%2 == 0, sw0, w, walks[w], sw, next[w])
						}
						next[w]++
					}
					for w := range walks {
						if next[w] != len(walks[w]) {
							t.Fatalf("%s n%d radix %d, %d workers, stage %d fwd %v, sw0 %d: worker %d walks %v, the owner table gives it %d of them",
								topo.Name(), topo.Procs(), topo.Radix(), workers, row/2, row%2 == 0, sw0, w, walks[w], next[w])
						}
					}
				}
			}
		}
	}
}

// stagedTopos are the wirings the list tests cover: omega at radix 2 and 4
// and the fat-tree, 16 to 1024 processors.
func stagedTopos() []engine.Staged {
	var topos []engine.Staged
	for _, n := range []int{16, 64, 256, 1024} {
		topos = append(topos, engine.OmegaOf(n, 2), engine.OmegaOf(n, 4), engine.FatTreeOf(n, 2))
	}
	return topos
}

// TestPairBlocksClosed checks the phases against the wiring itself, not
// against the union-find that built them: in every phase no two workers'
// hops land on one switch — a first-stage switch's far-side switches, and
// a second-stage switch's first-stage targets, belong to its own worker
// (the targets are hopped earlier in the same phase).  Every module is
// ticked by the forward owner of its last-stage switch, and reverse stage
// 0 is hopped by each switch's owner in the last forward phase, which
// serves its ports.  Omega radix 2
// and 4 and the fat-tree, 16 to 1024 processors, widths 1–8.
func TestPairBlocksClosed(t *testing.T) {
	for _, topo := range stagedTopos() {
		k, r, ns := topo.Stages(), topo.Radix(), topo.Procs()/topo.Radix()
		phases := stagedPhases(k)
		// Every stage but reverse 0 appears once per direction.
		var fwd, rev []int
		for _, ph := range phases {
			if ph.fwd {
				fwd = append(fwd, ph.stages...)
			} else {
				rev = append(rev, ph.stages...)
			}
		}
		for s := 0; s < k; s++ {
			if fwd[s] != k-1-s || s > 0 && rev[s-1] != s {
				t.Fatalf("%s n%d: phases %v do not hop each stage once, in sweep order", topo.Name(), topo.Procs(), phases)
			}
		}
		for workers := 1; workers <= 8; workers++ {
			fwd, rev := owners(topo, workers, phases)
			for i, ph := range phases {
				// owner[j][sw] is the worker that hops switch sw of the
				// phase's stage j.
				var owner [2][]int
				for j, stage := range ph.stages {
					if owner[j] = rev[stage*ns : (stage+1)*ns]; ph.fwd {
						owner[j] = fwd[stage*ns : (stage+1)*ns]
					}
				}
				first := ph.stages[0]
				// The far side of a first-stage hop: the next switch (or the
				// modules, which only the last stage reaches), or the
				// previous one.
				far := func(line int) int {
					switch {
					case !ph.fwd:
						return topo.PrevLine(first, line) / r
					case first == k-1:
						return line / r
					}
					return topo.NextLine(first, line) / r
				}
				reached := make(map[int]int)
				for sw := 0; sw < ns; sw++ {
					for p := 0; p < r; p++ {
						f := far(sw*r + p)
						if w, ok := reached[f]; ok && w != owner[0][sw] {
							t.Fatalf("%s n%d w%d phase %v: far switch %d reached by workers %d and %d",
								topo.Name(), topo.Procs(), workers, ph, f, w, owner[0][sw])
						}
						reached[f] = owner[0][sw]
					}
				}
				if len(ph.stages) == 2 {
					for sw := 0; sw < ns; sw++ {
						for p := 0; p < r; p++ {
							line := topo.PrevLine(ph.stages[1], sw*r+p)
							if ph.fwd {
								line = topo.NextLine(ph.stages[1], sw*r+p)
							}
							if w := owner[0][line/r]; w != owner[1][sw] {
								t.Fatalf("%s n%d w%d phase %v: stage %d switch %d (worker %d) lands on stage %d switch %d (worker %d)",
									topo.Name(), topo.Procs(), workers, ph, ph.stages[1], sw, owner[1][sw], first, line/r, w)
							}
						}
					}
				}
				if ph.fwd && first == k-1 {
					// hopAll ticks modules sw·radix … sw·radix+radix−1 just
					// before it hops last-stage switch sw: those must be the
					// modules that switch feeds (and whose replies enter it),
					// by the compiled link table.
					links := engine.CompileStaged(topo)
					for sw := 0; sw < ns; sw++ {
						at := (k-1)*ns + sw
						for p := 0; p < r; p++ {
							if mod := int(-1 - links.Fwd[at*links.Ports+p].To); mod/r != sw {
								t.Fatalf("%s n%d: last-stage switch %d feeds module %d, which worker %d ticks with switch %d",
									topo.Name(), topo.Procs(), sw, mod, owner[0][mod/r], mod/r)
							}
						}
					}
				}
				if i == len(phases)-1 {
					for sw := 0; sw < ns; sw++ {
						if w := owner[len(ph.stages)-1][sw]; rev[sw] != w {
							t.Fatalf("%s n%d w%d: worker %d hops stage-0 switch %d in reverse, and worker %d forward",
								topo.Name(), topo.Procs(), workers, rev[sw], sw, w)
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
// combining on, a 1/8 hot spot — at Workers 1 and 2, its n1024sat cases
// the same with combining off (omega_saturated's tree saturation at 1024
// processors: width × saturation), and its n256faulted cases
// BenchmarkStep/faulted's machine, plan and traffic at Workers 1 and 2
// (rebuilt off the clock at the plan's horizon, as there); `make stepcmp`
// runs them and the n256 and n1024 cases at w1 and w2.  omega_parallel
// reports the same ratio with an estimator as par.speedup_vs_serial.
func BenchmarkParallelStep(b *testing.B) {
	type shape struct {
		name    string
		n       int
		rate    float64
		hot     float64
		waitCap int
		warm    int
		faulted bool
		widths  []int
	}
	shapes := []shape{
		{"n256", 256, 0.9, 0.3, 0, 64, false, []int{1, 2, 4, 8}},
		{"n1024", 1024, 0.9, 0.3, 0, 64, false, []int{1, 2, 4, 8}},
		{"n1024hot8", 1024, 0.9, 0.125, core.Unbounded, 300, false, []int{1, 2}},
		{"n1024sat", 1024, 0.9, 0.125, 0, 300, false, []int{1, 2}},
		{"n256faulted", 256, 0.6, 0.125, core.Unbounded, faultedWarm, true, []int{1, 2}},
	}
	for _, sh := range shapes {
		for _, w := range sh.widths {
			b.Run(fmt.Sprintf("%s/w%d", sh.name, w), func(b *testing.B) {
				build := func() *Sim {
					inj := make([]Injector, sh.n)
					for p := range inj {
						inj[p] = NewStochastic(p, sh.n, TrafficConfig{
							Rate: sh.rate, HotFraction: sh.hot, Window: 4,
						}, 5)
					}
					cfg := Config{Procs: sh.n, WaitBufCap: sh.waitCap, Workers: w}
					if sh.faulted {
						cfg.Faults = stepPlan()
					}
					sim := NewSim(cfg, inj)
					// Bare Step() bypasses Run's pool bracket; start the
					// workers here so the loop measures persistent dispatch,
					// not goroutine spawns.
					sim.pool.Start()
					sim.Run(sh.warm) // fill the pipeline before timing
					return sim
				}
				sim := build()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if sh.faulted && sim.Cycle() == faultedHorizon {
						b.StopTimer()
						sim.pool.Stop()
						sim = build()
						b.StartTimer()
					}
					sim.Step()
				}
				b.StopTimer()
				sim.pool.Stop()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
			})
		}
	}
}
