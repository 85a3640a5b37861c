package machine

import (
	"testing"

	"combining/internal/faults"
	"combining/internal/rmw"
	"combining/internal/serial"
	"combining/internal/wiring"
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

// TestWiringsUnderFaultPlan soaks every registered wiring under the default
// fault plan (1% drops each way, a switch blackout, a module slowdown):
// hot-spot programs must complete exactly once and stay per-location
// serializable (Theorem 4.2 surviving an unhealthy network).
func TestWiringsUnderFaultPlan(t *testing.T) {
	for _, name := range wiring.Names() {
		t.Run(name, func(t *testing.T) {
			procs, ops := 8, 12
			if name == "omega4" {
				// A power of four, and a shorter program: the checker's
				// search grows steeply with operations per hot address.
				procs, ops = 16, 6
			}
			for _, seed := range []uint64{1, 2, 3, 7} {
				m := New(faultPrograms(procs, ops), wired(t, name, wiring.Config{Procs: procs, WaitBufCap: 64, Faults: faults.Default(seed)}))
				eng := m.Engine()
				if !m.Run(400000) {
					t.Fatalf("seed %d: programs did not complete (in flight %d)", seed, eng.InFlight())
				}
				final := map[word.Addr]word.Word{}
				for a := word.Addr(0); a < 32; a++ {
					final[a] = eng.Memory().Peek(a)
				}
				if err := serial.CheckM2WithFinal(m.History(), nil, final); err != nil {
					t.Fatalf("seed %d: M2 violated under faults: %v", seed, err)
				}
				snap := eng.Snapshot()
				if snap.Counters["faults_injected"] == 0 {
					t.Fatalf("seed %d: plan injected no faults", seed)
				}
				if snap.Counters["issued"] != snap.Counters["completed"] {
					t.Fatalf("seed %d: issued %d != completed %d", seed,
						snap.Counters["issued"], snap.Counters["completed"])
				}
				if got := eng.InFlight(); got != 0 {
					t.Fatalf("seed %d: %d requests never delivered", seed, got)
				}
			}
		})
	}
}

// TestNetworkFaultDeterminism checks that a fault-plan run replays exactly:
// same seed, same faults, same delivered history.
func TestNetworkFaultDeterminism(t *testing.T) {
	run := func() (counters map[string]int64, hist *serial.History) {
		plan := faults.Default(42)
		progs := faultPrograms(8, 10)
		m := New(progs, wired(t, "omega", wiring.Config{Procs: 8, WaitBufCap: 64, Faults: plan}))
		if !m.Run(200000) {
			t.Fatal("programs did not complete")
		}
		return m.Engine().Snapshot().Counters, m.History()
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
