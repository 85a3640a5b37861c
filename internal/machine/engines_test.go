package machine

import (
	"math/rand/v2"
	"testing"

	"combining/internal/core"
	"combining/internal/rmw"
	"combining/internal/serial"
	"combining/internal/wiring"
	"combining/internal/word"
)

// Theorem 4.2 for the Section 7 transports: the same program machinery
// (data dependencies, fences, timed histories) runs on the hypercube and
// the bus, and every execution passes the serializability search and the
// certificate its trace builds, which also checks real-time order.

func runOnEngine(t *testing.T, name string, seed uint64) {
	t.Helper()
	const n, ops, addrSpace = 8, 15, 3
	rng := rand.New(rand.NewPCG(seed, 5))
	progs := make([][]Instr, n)
	for p := range progs {
		for i := 0; i < ops; i++ {
			addr := word.Addr(rng.IntN(addrSpace))
			var op rmw.Mapping
			switch rng.IntN(4) {
			case 0:
				op = rmw.Load{}
			case 1:
				op = rmw.StoreOf(int64(rng.IntN(100)))
			case 2:
				op = rmw.SwapOf(int64(rng.IntN(100)))
			default:
				op = rmw.FetchAdd(int64(rng.IntN(9) - 4))
			}
			progs[p] = append(progs[p], RMW(addr, op))
		}
	}
	fold := serial.NewFold()
	m := New(progs, wired(t, name, wiring.Config{Procs: n, WaitBufCap: core.Unbounded, Trace: fold.Record}))
	eng := m.Engine()
	if !m.Run(100000) {
		t.Fatal("programs did not complete")
	}
	final := map[word.Addr]word.Word{}
	for a := word.Addr(0); a < addrSpace; a++ {
		final[a] = eng.Memory().Peek(a)
	}
	if err := serial.CheckM2WithFinal(m.History(), nil, final); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
	if err := serial.CheckCertificate(m.History(), fold.Certificate(), nil, final); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestTheorem42OnHypercube(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		runOnEngine(t, "hypercube", seed)
	}
}

func TestTheorem42OnBus(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		runOnEngine(t, "bus", seed)
	}
}

// TestFenceOnHypercube: the fence semantics carry to other transports.
func TestFenceOnHypercube(t *testing.T) {
	progs := [][]Instr{
		{RMW(0, rmw.StoreOf(1)), Fence(), RMW(1, rmw.StoreOf(2))},
		nil, nil, nil, nil, nil, nil, nil,
	}
	m := New(progs, wired(t, "hypercube", wiring.Config{Procs: 8, WaitBufCap: core.Unbounded}))
	eng := m.Engine()
	if !m.Run(10000) {
		t.Fatal("did not complete")
	}
	p := m.Proc(0)
	if p.DoneCycle(2) <= p.DoneCycle(0) {
		t.Fatal("fenced access completed before the fence's predecessor")
	}
	if eng.Memory().Peek(0).Val != 1 || eng.Memory().Peek(1).Val != 2 {
		t.Fatal("stores lost")
	}
}
