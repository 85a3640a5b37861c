package network

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

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

// BenchmarkParallelStep measures per-cycle step cost across worker widths
// under a saturating hot-spot load (`make parbench`, the E15 curve; `make
// stepcmp` also runs its n1024/w1 and n1024/w2 cases); bench/run.sh's
// omega_parallel workload reports the same ratio with an estimator as
// par.speedup_vs_serial.
func BenchmarkParallelStep(b *testing.B) {
	for _, n := range []int{256, 1024} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				inj := make([]Injector, n)
				for p := 0; p < n; p++ {
					inj[p] = NewStochastic(p, n, TrafficConfig{
						Rate: 0.9, HotFraction: 0.3, Window: 4,
					}, 5)
				}
				sim := NewSim(Config{Procs: n, Workers: w}, inj)
				// Bare Step() bypasses Run's pool bracket; start the workers
				// here so the loop measures persistent dispatch, not
				// goroutine spawns.
				sim.pool.Start()
				defer sim.pool.Stop()
				sim.Run(64) // fill the pipeline before timing
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sim.Step()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
			})
		}
	}
}
