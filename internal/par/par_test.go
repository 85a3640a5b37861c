package par

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEveryWorkerOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		if p.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", p.Workers(), workers)
		}
		seen := make([]atomic.Int32, workers)
		p.Run(func(w int) { seen[w].Add(1) })
		for w := range seen {
			if got := seen[w].Load(); got != 1 {
				t.Fatalf("workers=%d: worker %d ran %d times", workers, w, got)
			}
		}
	}
}

func TestPoolClampsWidth(t *testing.T) {
	if got := NewPool(0).Workers(); got != 1 {
		t.Fatalf("NewPool(0).Workers() = %d, want 1", got)
	}
	if got := NewPool(-3).Workers(); got != 1 {
		t.Fatalf("NewPool(-3).Workers() = %d, want 1", got)
	}
}

func TestPoolWorkerZeroOnCaller(t *testing.T) {
	// Phases guarded with `if w == 0` must run on the caller's goroutine so
	// injector callbacks see a single consistent goroutine; verify via a
	// plain (non-atomic) write that the race detector would flag otherwise.
	p := NewPool(4)
	ran := false
	p.Run(func(w int) {
		if w == 0 {
			ran = true
		}
	})
	if !ran {
		t.Fatal("worker 0 did not run")
	}
}

// TestPoolPersistentWorkers drives many Runs through started workers and
// checks every dispatch reaches every worker exactly once — the engine
// cycle loop in miniature.  It makes three passes: at the host's
// GOMAXPROCS, where a pool that fits spins between Runs; under
// GOMAXPROCS(1), where every wait parks at once; and with the caller
// holding off each Run until every worker has spun out its budget and
// parked, so the next Run must wake them all from the park.
func TestPoolPersistentWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	passes := []struct {
		name  string
		procs int // GOMAXPROCS for the pass; 0 keeps the host's
		runs  int
		parks bool // wait for every worker to park before each Run
	}{
		{"host", 0, 500, false},
		{"GOMAXPROCS(1)", 1, 500, false},
		{"spun out", 0, 20, true},
	}
	host := runtime.GOMAXPROCS(0)
	for _, pass := range passes {
		runtime.GOMAXPROCS(host)
		if pass.procs > 0 {
			runtime.GOMAXPROCS(pass.procs)
		}
		for _, workers := range []int{2, 3, 4, 8} {
			p := NewPool(workers)
			p.Start()
			if !p.Started() {
				t.Fatalf("%s, workers=%d: pool not started after Start", pass.name, workers)
			}
			if pass.procs == 1 && p.spin != 0 {
				t.Fatalf("%s, workers=%d: spin budget %d, want 0", pass.name, workers, p.spin)
			}
			seen := make([]atomic.Int32, workers)
			for i := 0; i < pass.runs; i++ {
				if pass.parks {
					awaitParked(t, p)
				}
				p.Run(func(w int) { seen[w].Add(1) })
			}
			p.Stop()
			if p.Started() {
				t.Fatalf("%s, workers=%d: pool still started after Stop", pass.name, workers)
			}
			for w := range seen {
				if got := seen[w].Load(); got != int32(pass.runs) {
					t.Fatalf("%s, workers=%d: worker %d ran %d times, want %d", pass.name, workers, w, got, pass.runs)
				}
			}
			// A stopped pool must still work via the fallback.
			p.Run(func(w int) { seen[w].Add(1) })
			for w := range seen {
				if got := seen[w].Load(); got != int32(pass.runs+1) {
					t.Fatalf("%s, workers=%d: worker %d at %d after fallback Run, want %d", pass.name, workers, w, got, pass.runs+1)
				}
			}
		}
	}
}

// awaitParked returns once every worker of the started pool p has spun out
// its budget and parked on its wait word.
func awaitParked(t *testing.T, p *Pool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for w := 1; w < p.workers; w++ {
		for p.lanes[w].v.Load()&parked == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: worker %d still spinning after a minute", p.workers, w)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// TestPoolStopJoinsWorkers checks the outermost Stop retires the workers
// before it returns, so no goroutine the pool started, spinning or parked,
// outlives it.  The last worker readies Stop's caller as it sets the done
// word, and may still be in its last few instructions when the caller runs:
// with more processors, or when a loaded host deschedules its thread long
// enough for the runtime to preempt it there.  So the count is awaited on
// the wall clock.  The inner Stop's check counts the pool's own workers,
// since a goroutine another test left exiting can leave the total below
// its value before Start.
func TestPoolStopJoinsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	host := runtime.GOMAXPROCS(0)
	for _, procs := range []int{1, host} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{2, 3, 8} {
			before := runtime.NumGoroutine()
			p := NewPool(workers)
			p.Start()
			p.Start()
			for i := 0; i < 10; i++ {
				p.Run(func(int) {})
			}
			p.Stop()
			if got := poolWorkers(); got < workers-1 {
				p.Stop()
				t.Fatalf("GOMAXPROCS(%d), workers=%d: %d pool workers after the inner Stop, want %d or more", procs, workers, got, workers-1)
			}
			p.Stop()
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("GOMAXPROCS(%d), workers=%d: %d goroutines after the outer Stop, want %d", procs, workers, runtime.NumGoroutine(), before)
				}
				runtime.Gosched()
			}
		}
	}
}

// poolWorkers counts the goroutines running a Pool's worker loop.
func poolWorkers() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "par.(*Pool).worker(")
}

// TestPoolStartStopNesting checks Start/Stop pair by refcount: inner pairs
// neither respawn nor retire the workers.
func TestPoolStartStopNesting(t *testing.T) {
	p := NewPool(4)
	p.Start()
	p.Start()
	p.Stop()
	if !p.Started() {
		t.Fatal("inner Stop retired the workers")
	}
	var n atomic.Int32
	p.Run(func(int) { n.Add(1) })
	if got := n.Load(); got != 4 {
		t.Fatalf("ran %d workers, want 4", got)
	}
	p.Stop()
	if p.Started() {
		t.Fatal("outer Stop did not retire the workers")
	}
}

// TestPoolRestart checks a pool can be started again after a full stop.
func TestPoolRestart(t *testing.T) {
	p := NewPool(3)
	for round := 0; round < 3; round++ {
		p.Start()
		var n atomic.Int32
		p.Run(func(int) { n.Add(1) })
		p.Stop()
		if got := n.Load(); got != 3 {
			t.Fatalf("round %d: ran %d workers, want 3", round, got)
		}
	}
}

// TestPoolRunAllocFree asserts the steady-state persistent dispatch
// allocates nothing: the zero-allocation cycle path rests on it.
func TestPoolRunAllocFree(t *testing.T) {
	if runtime.GOMAXPROCS(0) == 1 {
		// With one processor every dispatch parks the caller and wakes it
		// again; allocation accounting stays valid but the test is slow.
		t.Log("GOMAXPROCS=1: dispatch is fully serialized")
	}
	p := NewPool(4)
	p.Start()
	defer p.Stop()
	b := NewBarrier(4)
	fn := func(w int) { b.Sync(w) }
	p.Run(fn) // warm the wake path
	if avg := testing.AllocsPerRun(100, func() { p.Run(fn) }); avg != 0 {
		t.Fatalf("persistent Run allocates %.1f objects per dispatch, want 0", avg)
	}
}

// TestPoolGenerationWrap runs a pool across the end of its generation
// numbers: they must step over Wait's parked bit and start again, and every
// Run on either side must reach every worker once.
func TestPoolGenerationWrap(t *testing.T) {
	p := NewPool(3)
	p.gen = parked - 4
	p.Start()
	defer p.Stop()
	var n atomic.Int32
	for i := 1; i <= 8; i++ {
		p.Run(func(int) { n.Add(1) })
		if p.gen&parked != 0 {
			t.Fatalf("run %d: generation %#x carries the parked bit", i, p.gen)
		}
		if got := n.Load(); got != int32(3*i) {
			t.Fatalf("run %d (generation %#x): %d worker calls, want %d", i, p.gen, got, 3*i)
		}
	}
}

func barrierKinds(n int) map[string]Barrier {
	return map[string]Barrier{
		"auto":  NewBarrier(n),
		"sense": NewSenseBarrier(n),
	}
}

// TestBarrierPhases drives many barrier rounds at widths 1–16 for every
// implementation and asserts no worker ever observes a straggler from an
// earlier phase — the property the engines' per-stage synchronization
// rests on.
func TestBarrierPhases(t *testing.T) {
	for workers := 1; workers <= 16; workers++ {
		rounds := 2000
		if workers > 8 {
			rounds = 500 // oversubscribed on small hosts; keep the test quick
		}
		for name, b := range barrierKinds(workers) {
			p := NewPool(workers)
			p.Start()
			counters := make([]atomic.Int64, workers)
			p.Run(func(w int) {
				for r := 0; r < rounds; r++ {
					counters[w].Add(1)
					b.Sync(w)
					// After the barrier every worker must have completed round r.
					for i := range counters {
						if got := counters[i].Load(); got < int64(r+1) {
							t.Errorf("%s width %d round %d: worker %d at %d after barrier", name, workers, r, i, got)
							return
						}
					}
					b.Sync(w)
				}
			})
			p.Stop()
			if t.Failed() {
				return
			}
		}
	}
}

func TestBarrierSingleParticipant(t *testing.T) {
	for name, b := range barrierKinds(1) {
		for i := 0; i < 10; i++ {
			b.Sync(0) // must not block
		}
		_ = name
	}
}

// TestBarrierSpinPolicyTracksGOMAXPROCS pins the fix for the stale spin
// policy: the barrier must re-evaluate GOMAXPROCS on Sync, not snapshot it
// at construction.
func TestBarrierSpinPolicyTracksGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	const width = 4
	runtime.GOMAXPROCS(1) // oversubscribed: budget must be 0
	for name, b := range barrierKinds(width) {
		pol, ok := b.(interface{ SpinBudget() int32 })
		if !ok {
			t.Fatalf("%s: no spin policy", name)
		}
		if got := pol.SpinBudget(); got != 0 {
			t.Fatalf("%s built under GOMAXPROCS(1): spin budget %d, want 0", name, got)
		}
		runtime.GOMAXPROCS(width) // now fully provisioned…
		p := NewPool(width)
		p.Start()
		p.Run(func(w int) { b.Sync(w) }) // …one episode re-evaluates
		p.Stop()
		if got := pol.SpinBudget(); got != SpinLimit {
			t.Fatalf("%s after GOMAXPROCS(%d) and one Sync: spin budget %d, want %d", name, width, got, SpinLimit)
		}
		runtime.GOMAXPROCS(1)
		p.Start()
		p.Run(func(w int) { b.Sync(w) })
		p.Stop()
		if got := pol.SpinBudget(); got != 0 {
			t.Fatalf("%s after GOMAXPROCS(1) and one Sync: spin budget %d, want 0", name, got)
		}
	}
}

func TestSplitCoversExactly(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 1024} {
		for _, workers := range []int{1, 2, 3, 7, 16} {
			covered := make([]int, n)
			prevHi := 0
			for w := 0; w < workers; w++ {
				lo, hi := Split(n, workers, w)
				if lo != prevHi {
					t.Fatalf("n=%d workers=%d: worker %d starts at %d, want %d", n, workers, w, lo, prevHi)
				}
				prevHi = hi
				for i := lo; i < hi; i++ {
					covered[i]++
				}
			}
			if prevHi != n {
				t.Fatalf("n=%d workers=%d: coverage ends at %d", n, workers, prevHi)
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: item %d covered %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestSplitEdgeCases pins the boundary behaviour the engines rely on:
// more workers than items leaves the extra workers with empty ranges,
// zero items gives every worker an empty range, and a single item lands
// on exactly one worker.
func TestSplitEdgeCases(t *testing.T) {
	// workers > n: every range is well-formed, sizes are 0 or 1.
	for w := 0; w < 8; w++ {
		lo, hi := Split(3, 8, w)
		if lo > hi || hi-lo > 1 {
			t.Fatalf("Split(3,8,%d) = [%d,%d): malformed", w, lo, hi)
		}
	}
	// n = 0: all ranges empty.
	for w := 0; w < 4; w++ {
		if lo, hi := Split(0, 4, w); lo != 0 || hi != 0 {
			t.Fatalf("Split(0,4,%d) = [%d,%d), want [0,0)", w, lo, hi)
		}
	}
	// n = 1: exactly one worker owns the item.
	owners := 0
	for w := 0; w < 5; w++ {
		if lo, hi := Split(1, 5, w); hi > lo {
			owners++
			if lo != 0 || hi != 1 {
				t.Fatalf("Split(1,5,%d) = [%d,%d)", w, lo, hi)
			}
		}
	}
	if owners != 1 {
		t.Fatalf("single item owned by %d workers, want 1", owners)
	}
	// workers = 1 spans everything.
	if lo, hi := Split(17, 1, 0); lo != 0 || hi != 17 {
		t.Fatalf("Split(17,1,0) = [%d,%d), want [0,17)", lo, hi)
	}
}

// BenchmarkBarrier times the sense-reversing barrier at the widths the
// engines run (the E15 microbenchmark; `make parbench`).  Each op is one
// full barrier episode across all workers.
func BenchmarkBarrier(b *testing.B) {
	for _, workers := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("sense/w%d", workers), func(b *testing.B) {
			bar := NewSenseBarrier(workers)
			p := NewPool(workers)
			p.Start()
			defer p.Stop()
			b.ResetTimer()
			p.Run(func(w int) {
				for i := 0; i < b.N; i++ {
					bar.Sync(w)
				}
			})
		})
	}
}

// BenchmarkPoolRun prices the pool's dispatch and join (`make parbench`):
// a 2-worker Run of 20 sense-barrier phases, each holding the same fixed
// arithmetic on both workers, while the caller is busy for a fixed serial
// gap between Runs — none, and 100 µs, about one cycle's injection at 1024
// processors.  It reports µs per Run, the gap excluded: the phases' work
// run side by side, plus whatever the wake-up and the join cost.
func BenchmarkPoolRun(b *testing.B) {
	const workers, phases, steps = 2, 20, 2000
	for _, gap := range []time.Duration{0, 100 * time.Microsecond} {
		b.Run(fmt.Sprintf("gap%dus", gap.Microseconds()), func(b *testing.B) {
			bar := NewSenseBarrier(workers)
			fn := func(w int) {
				x := w
				for i := 0; i < phases; i++ {
					for j := 0; j < steps; j++ {
						x = x*31 + j
					}
					bar.Sync(w)
				}
				poolRunSink[w].v.Store(int32(x))
			}
			p := NewPool(workers)
			p.Start()
			defer p.Stop()
			p.Run(fn)
			var inRun time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for t0 := time.Now(); time.Since(t0) < gap; {
				}
				t0 := time.Now()
				p.Run(fn)
				inRun += time.Since(t0)
			}
			b.ReportMetric(float64(inRun.Nanoseconds())/1e3/float64(b.N), "us/run")
		})
	}
}

// poolRunSink keeps BenchmarkPoolRun's arithmetic live, one line per worker.
var poolRunSink [2]paddedInt32
