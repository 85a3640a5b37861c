package machine

import (
	"bytes"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"combining/internal/busnet"
	"combining/internal/faults"
	"combining/internal/hypercube"
	"combining/internal/network"
	"combining/internal/word"
)

// Cross-worker determinism: Config.Workers must be unobservable.  Each
// engine runs the same seeded hot-spot workload at Workers = 1, 2, 3, 4
// and GOMAXPROCS (3 exercises a width that does not divide the group
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
	build func([]network.Injector) Engine) detResult {
	t.Helper()
	progs := hotPrograms(nprocs, reqs)
	m, inj := NewInjectors(progs)
	eng := build(inj)
	m.BindEngine(eng)
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
	build func(workers int) func([]network.Injector) Engine) {
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

func netDet(plan *faults.Plan) func(workers int) func([]network.Injector) Engine {
	return func(workers int) func([]network.Injector) Engine {
		return func(inj []network.Injector) Engine {
			return network.NewSim(network.Config{
				Procs: 64, QueueCap: 1, RevQueueCap: 1, MemQueueCap: 1,
				WaitBufCap: soakWaitCap, Faults: plan, Workers: workers,
			}, inj)
		}
	}
}

func cubeDet(plan *faults.Plan) func(workers int) func([]network.Injector) Engine {
	return func(workers int) func([]network.Injector) Engine {
		return func(inj []network.Injector) Engine {
			return hypercube.NewSim(hypercube.Config{
				Nodes: 64, QueueCap: 1, RevQueueCap: 1, MemQueueCap: 1,
				WaitBufCap: soakWaitCap, Faults: plan, Workers: workers,
			}, inj)
		}
	}
}

func busDet(plan *faults.Plan) func(workers int) func([]network.Injector) Engine {
	return func(workers int) func([]network.Injector) Engine {
		return func(inj []network.Injector) Engine {
			return busnet.NewSim(busnet.Config{
				Procs: 64, Banks: 8, QueueCap: 1, BankQueueCap: 1,
				WaitBufCap: soakWaitCap, Faults: plan, Workers: workers,
			}, inj)
		}
	}
}

func TestDeterminismNetwork(t *testing.T) {
	runDeterminismCheck(t, "network/clean", 64, 8, 400000, netDet(nil))
	runDeterminismCheck(t, "network/faults", 64, 4, 2000000, netDet(faults.Default(31)))
}

func TestDeterminismHypercube(t *testing.T) {
	runDeterminismCheck(t, "hypercube/clean", 64, 8, 400000, cubeDet(nil))
	runDeterminismCheck(t, "hypercube/faults", 64, 4, 2000000, cubeDet(faults.Default(32)))
}

func TestDeterminismBusnet(t *testing.T) {
	runDeterminismCheck(t, "busnet/clean", 64, 8, 400000, busDet(nil))
	runDeterminismCheck(t, "busnet/faults", 64, 4, 2000000, busDet(faults.Default(33)))
}
