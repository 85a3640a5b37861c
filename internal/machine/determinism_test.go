package machine

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/network"
	"combining/internal/wiring"
	"combining/internal/word"
)

// Cross-worker determinism: Config.Workers must be unobservable.  Every
// registered wiring runs the same seeded hot-spot workload at Workers = 1,
// 2, 3, 4 and GOMAXPROCS (3 exercises a width that does not divide the group
// counts evenly), and every run must produce a byte-identical Snapshot JSON
// (counters, gauges, latency histogram), the same per-processor reply
// sequences, and the same final memory — with the Workers=1 run itself
// checked against the core.SerialReplies ground truth.  Clean and under a
// PR-2 fault plan, at the same minimal queue capacities as the
// backpressure soaks so the hold/credit paths are all exercised.

type detResult struct {
	snap    []byte
	replies []int64
	final   word.Word
}

func runAtWidth(t *testing.T, name string, nprocs, reqs, maxCycles int,
	build func([]engine.Injector) engine.Machine) detResult {
	t.Helper()
	progs := hotPrograms(nprocs, reqs)
	m := New(progs, build)
	eng := m.Engine()
	if !m.Run(maxCycles) {
		if eng.Stalled() {
			t.Fatalf("%s: watchdog tripped:\n%s", name, eng.StallReport())
		}
		t.Fatalf("%s: did not complete in %d cycles (%d in flight)", name, maxCycles, eng.InFlight())
	}
	var replies []int64
	for p := 0; p < nprocs; p++ {
		for i := 0; i < reqs; i++ {
			replies = append(replies, m.Proc(p).Reply(i).Val)
		}
	}
	return detResult{eng.Snapshot().JSON(), replies, eng.Memory().Peek(hotCell)}
}

func runDeterminismCheck(t *testing.T, name string, nprocs, reqs, maxCycles int,
	build func(workers int) func([]engine.Injector) engine.Machine) {
	t.Helper()
	want := runAtWidth(t, name+"/w1", nprocs, reqs, maxCycles, build(1))

	// The serial run must itself be correct: fetch-and-add replies are a
	// permutation of the serial prefix sums, and the cell holds the total.
	total := int64(nprocs * reqs)
	if want.final.Val != total {
		t.Fatalf("%s: final cell %d, serial ground truth %d", name, want.final.Val, total)
	}
	sorted := append([]int64(nil), want.replies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, v := range sorted {
		if v != int64(i) {
			t.Fatalf("%s: sorted reply %d = %d, serial ground truth %d", name, i, v, i)
		}
	}

	widths := []int{2, 3, 4, runtime.GOMAXPROCS(0)}
	for _, w := range widths {
		got := runAtWidth(t, name, nprocs, reqs, maxCycles, build(w))
		if !bytes.Equal(got.snap, want.snap) {
			t.Errorf("%s: Workers=%d snapshot differs from serial:\nserial: %s\nparallel: %s",
				name, w, want.snap, got.snap)
		}
		if !reflect.DeepEqual(got.replies, want.replies) {
			t.Errorf("%s: Workers=%d reply sequences differ from serial", name, w)
		}
		if got.final != want.final {
			t.Errorf("%s: Workers=%d final cell %d, serial %d", name, w, got.final.Val, want.final.Val)
		}
	}
}

// byName builds the named wiring for runDeterminismCheck at the minimal
// queue capacities (soak).
func byName(t *testing.T, name string, plan *faults.Plan) func(workers int) func([]engine.Injector) engine.Machine {
	return func(workers int) func([]engine.Injector) engine.Machine {
		return wired(t, name, soak(plan, workers))
	}
}

// eachWiring runs f as a subtest on every registered wiring, with the
// wiring's seed offset; a name wiring.New rejects at procs processors —
// omega4 at 8 — is skipped.  The offsets are the order the families
// were first written in (omega 1, hypercube 2, bus 3, fattree 4, torus 5);
// any other name takes one past them plus its place in wiring.Names().
func eachWiring(t *testing.T, procs int, f func(t *testing.T, name string, seed uint64)) {
	order := []string{"omega", "hypercube", "bus", "fattree", "torus"}
	for i, name := range wiring.Names() {
		seed := uint64(slices.Index(order, name) + 1)
		if seed == 0 {
			seed = uint64(len(order) + 1 + i)
		}
		t.Run(name, func(t *testing.T) {
			if _, err := wiring.New(name, wiring.Config{Procs: procs}); err != nil {
				t.Skip(err)
			}
			f(t, name, seed)
		})
	}
}

func TestDeterminism(t *testing.T) {
	eachWiring(t, 64, func(t *testing.T, name string, seed uint64) {
		runDeterminismCheck(t, name+"/clean", 64, 8, 400000, byName(t, name, nil))
		runDeterminismCheck(t, name+"/faults", 64, 4, 2000000, byName(t, name, faults.Default(30+seed)))
	})
}

// A higher-radix fat-tree shares no wiring arithmetic with omega at all
// (the digit swap is only line-preserving for radix 2 stage pairs), so run
// one clean determinism pass at radix 4 to pin the staged core's generic
// conflict groups on a genuinely different partition shape.
func TestDeterminismFatTreeRadix4(t *testing.T) {
	build := func(workers int) func([]engine.Injector) engine.Machine {
		return func(inj []engine.Injector) engine.Machine {
			return network.NewSim(network.Config{
				Topology: engine.FatTreeOf(64, 4),
				QueueCap: 1, RevQueueCap: 1, MemQueueCap: 1,
				WaitBufCap: soakWaitCap, Workers: workers,
			}, inj)
		}
	}
	runDeterminismCheck(t, "fattree4/clean", 64, 8, 400000, build)
}
