package machine

import (
	"testing"

	"combining/internal/busnet"
	"combining/internal/faults"
	"combining/internal/hypercube"
	"combining/internal/network"
	"combining/internal/rmw"
	"combining/internal/serial"
	"combining/internal/word"
)

// faultPrograms builds nprocs programs of ops hammering a few shared
// counters plus private cells — hot-spot traffic that combines heavily, the
// hardest case for exactly-once recovery.
func faultPrograms(nprocs, ops int) [][]Instr {
	progs := make([][]Instr, nprocs)
	for p := 0; p < nprocs; p++ {
		prog := make([]Instr, 0, ops)
		for i := 0; i < ops; i++ {
			switch i % 4 {
			case 0:
				prog = append(prog, RMW(word.Addr(0), rmw.FetchAdd(1)))
			case 1:
				prog = append(prog, RMW(word.Addr(p%3), rmw.SwapOf(int64(p*100+i))))
			case 2:
				prog = append(prog, RMW(word.Addr(7+p), rmw.FetchAdd(int64(i+1))))
			default:
				prog = append(prog, RMW(word.Addr(1), rmw.Load{}))
			}
		}
		progs[p] = prog
	}
	return progs
}

// runFaultSoak drives hot-spot programs on one engine under a fault plan
// and checks exactly-once completion plus per-location serializability
// (Theorem 4.2 surviving an unhealthy network).
func runFaultSoak(t *testing.T, name string, seed uint64, build func(*faults.Plan, []network.Injector) Engine) {
	t.Helper()
	plan := faults.Default(seed)
	progs := faultPrograms(8, 12)
	m, inj := NewInjectors(progs)
	eng := build(plan, inj)
	m.BindEngine(eng)
	if !m.Run(400000) {
		t.Fatalf("%s seed %d: programs did not complete (in flight %d)", name, seed, eng.InFlight())
	}
	final := map[word.Addr]word.Word{}
	for a := word.Addr(0); a < 32; a++ {
		final[a] = eng.Memory().Peek(a)
	}
	if err := serial.CheckM2WithFinal(m.History(), nil, final); err != nil {
		t.Fatalf("%s seed %d: M2 violated under faults: %v", name, seed, err)
	}
	snap := eng.Snapshot()
	if snap.Counters["faults_injected"] == 0 {
		t.Fatalf("%s seed %d: plan injected no faults", name, seed)
	}
	if snap.Counters["issued"] != snap.Counters["completed"] {
		t.Fatalf("%s seed %d: issued %d != completed %d", name, seed,
			snap.Counters["issued"], snap.Counters["completed"])
	}
	if got := eng.InFlight(); got != 0 {
		t.Fatalf("%s seed %d: %d requests never delivered", name, seed, got)
	}
}

// TestNetworkUnderFaultPlan soaks the Omega network under the default fault
// plan (1% drops each way, a switch blackout, a module slowdown).
func TestNetworkUnderFaultPlan(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 7} {
		runFaultSoak(t, "network", seed, func(p *faults.Plan, inj []network.Injector) Engine {
			return network.NewSim(network.Config{Procs: 8, WaitBufCap: 64, Faults: p}, inj)
		})
	}
}

// TestBusnetUnderFaultPlan soaks the bus machine under the default plan.
func TestBusnetUnderFaultPlan(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 7} {
		runFaultSoak(t, "busnet", seed, func(p *faults.Plan, inj []network.Injector) Engine {
			return busnet.NewSim(busnet.Config{Procs: 8, Banks: 4, WaitBufCap: 64, Faults: p}, inj)
		})
	}
}

// TestHypercubeUnderFaultPlan soaks the hypercube under the default plan.
func TestHypercubeUnderFaultPlan(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 7} {
		runFaultSoak(t, "hypercube", seed, func(p *faults.Plan, inj []network.Injector) Engine {
			return hypercube.NewSim(hypercube.Config{Nodes: 8, WaitBufCap: 64, Faults: p}, inj)
		})
	}
}

// TestNetworkFaultDeterminism checks that a fault-plan run replays exactly:
// same seed, same faults, same delivered history.
func TestNetworkFaultDeterminism(t *testing.T) {
	run := func() (counters map[string]int64, hist *serial.History) {
		plan := faults.Default(42)
		progs := faultPrograms(8, 10)
		m, inj := NewInjectors(progs)
		sim := network.NewSim(network.Config{Procs: 8, WaitBufCap: 64, Faults: plan}, inj)
		m.BindEngine(sim)
		if !m.Run(200000) {
			t.Fatal("programs did not complete")
		}
		return sim.Snapshot().Counters, m.History()
	}
	c1, h1 := run()
	c2, h2 := run()
	for k, v := range c1 {
		if c2[k] != v {
			t.Fatalf("counter %s differs across replays: %d vs %d", k, v, c2[k])
		}
	}
	ops1, ops2 := h1.Ops(), h2.Ops()
	if len(ops1) != len(ops2) {
		t.Fatalf("history length differs: %d vs %d", len(ops1), len(ops2))
	}
	for i := range ops1 {
		if ops1[i] != ops2[i] {
			t.Fatalf("op %d differs across replays: %+v vs %+v", i, ops1[i], ops2[i])
		}
	}
}
