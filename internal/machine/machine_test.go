package machine

import (
	"math/rand/v2"
	"testing"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/rmw"
	"combining/internal/serial"
	"combining/internal/wiring"
	"combining/internal/word"
)

// wired is the build function of a registered wiring; a config the wiring
// rejects fails the test.
func wired(t testing.TB, name string, cfg wiring.Config) func([]engine.Injector) engine.Machine {
	t.Helper()
	build, err := wiring.New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return build
}

func TestProgramDependencies(t *testing.T) {
	// Instruction 2 stores the value loaded by instruction 0 plus one.
	progs := [][]Instr{
		{
			RMW(3, rmw.Load{}),
			RMW(4, rmw.StoreOf(9)),
			{
				Addr:  5,
				DynOp: func(rep []word.Word) rmw.Mapping { return rmw.StoreOf(rep[0].Val + 1) },
				After: []int{0},
			},
		},
		nil, nil, nil,
	}
	m := New(progs, wired(t, "omega", wiring.Config{Procs: 4}))
	m.Memory().Poke(3, word.W(41))
	if !m.Run(1000) {
		t.Fatal("program did not complete")
	}
	if got := m.Memory().Peek(5).Val; got != 42 {
		t.Fatalf("dependent store wrote %d, want 42", got)
	}
}

func TestFenceOrdersIssue(t *testing.T) {
	// With a fence, the second access must not issue until the first
	// completes; its completion cycle is strictly later than the first's.
	progs := [][]Instr{
		{RMW(0, rmw.FetchAdd(1)), Fence(), RMW(1, rmw.FetchAdd(1))},
		nil, nil, nil,
	}
	m := New(progs, wired(t, "omega", wiring.Config{Procs: 4}))
	if !m.Run(1000) {
		t.Fatal("program did not complete")
	}
	p := m.Proc(0)
	if p.DoneCycle(2) <= p.DoneCycle(0) {
		t.Fatalf("fenced access completed at %d, first at %d", p.DoneCycle(2), p.DoneCycle(0))
	}
}

// TestRMWImplementations is experiment E1 (Section 2): the memory-side RMW
// implementation exchanges two messages per operation and keeps the
// operation atomic; the processor-side load/compute/store emulation
// exchanges four and, without a bus lock, loses updates under contention.
func TestRMWImplementations(t *testing.T) {
	const n, perProc = 16, 20
	const ctr = word.Addr(3)

	// Memory-side: one fetch-and-add instruction per increment.
	memSide := make([][]Instr, n)
	for p := 0; p < n; p++ {
		for i := 0; i < perProc; i++ {
			memSide[p] = append(memSide[p], RMW(ctr, rmw.FetchAdd(1)))
		}
	}
	m1 := New(memSide, wired(t, "omega", wiring.Config{Procs: n, WaitBufCap: core.Unbounded}))
	if !m1.Run(100000) {
		t.Fatal("memory-side run did not complete")
	}
	if got := m1.Memory().Peek(ctr).Val; got != n*perProc {
		t.Fatalf("memory-side counter = %d, want %d (atomicity lost?)", got, n*perProc)
	}

	// Processor-side: load, then a dependent store of value+1.  Two
	// messages each way per increment, and no atomicity.
	procSide := make([][]Instr, n)
	for p := 0; p < n; p++ {
		for i := 0; i < perProc; i++ {
			loadIdx := len(procSide[p])
			procSide[p] = append(procSide[p],
				RMW(ctr, rmw.Load{}),
				Instr{
					Addr: ctr,
					DynOp: func(rep []word.Word) rmw.Mapping {
						return rmw.StoreOf(rep[loadIdx].Val + 1)
					},
					After: []int{loadIdx},
				},
			)
		}
	}
	m2 := New(procSide, wired(t, "omega", wiring.Config{Procs: n, WaitBufCap: core.Unbounded}))
	if !m2.Run(100000) {
		t.Fatal("processor-side run did not complete")
	}
	got := m2.Memory().Peek(ctr).Val

	st1, st2 := m1.Engine().Totals(), m2.Engine().Totals()
	t.Logf("memory-side: %d requests issued, %d cycles, counter %d",
		st1.Issued, st1.Cycles, n*perProc)
	t.Logf("processor-side: %d requests issued, %d cycles, counter %d (of %d)",
		st2.Issued, st2.Cycles, got, n*perProc)

	if st2.Issued != 2*st1.Issued {
		t.Errorf("processor-side issued %d messages, want exactly 2× the %d memory-side", st2.Issued, st1.Issued)
	}
	if got >= n*perProc {
		t.Errorf("processor-side counter = %d: expected lost updates under contention", got)
	}
	if st2.Cycles <= st1.Cycles {
		t.Errorf("processor-side (%d cycles) should be slower than memory-side (%d)", st2.Cycles, st1.Cycles)
	}
}

// TestTheorem42RandomPrograms is experiment E4 on the real network: random
// programs over every combinable family, across combining configurations,
// always yield per-location serializable histories that also explain the
// final memory contents, and the search and the certificate the trace
// builds agree on every one.
func TestTheorem42RandomPrograms(t *testing.T) {
	const n = 16
	const addrSpace = 4
	configs := []struct {
		name string
		cfg  wiring.Config
	}{
		{"no-combining", wiring.Config{Procs: n, WaitBufCap: 0}},
		{"partial", wiring.Config{Procs: n, WaitBufCap: 1}},
		{"full", wiring.Config{Procs: n, WaitBufCap: core.Unbounded}},
		{"full+reversal", wiring.Config{Procs: n, WaitBufCap: core.Unbounded, AllowReversal: true}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewPCG(seed, 7))
				progs := make([][]Instr, n)
				family := rng.IntN(4)
				for p := range progs {
					for i := 0; i < 15; i++ {
						addr := word.Addr(rng.IntN(addrSpace))
						var op rmw.Mapping
						if family == 3 {
							// The tagged full/empty family: conditional
							// operations mixed with plain stores/loads.
							v := int64(rng.IntN(100))
							ops := []rmw.Mapping{
								rmw.FELoad(), rmw.FELoadClear(),
								rmw.FEStoreSet(v), rmw.FEStoreIfClearSet(v),
								rmw.FEStoreClear(v), rmw.FEStoreIfClearClear(v),
								rmw.FELoadIfSetClear(), rmw.StoreOf(v), rmw.Load{},
							}
							op = ops[rng.IntN(len(ops))]
						} else {
							switch rng.IntN(4) {
							case 0:
								op = rmw.Load{}
							case 1:
								op = rmw.StoreOf(int64(rng.IntN(100)))
							case 2:
								op = rmw.SwapOf(int64(rng.IntN(100)))
							default:
								switch family {
								case 0:
									op = rmw.FetchAdd(int64(rng.IntN(20) - 10))
								case 1:
									op = rmw.Bool{A: rng.Uint64(), B: rng.Uint64()}
								default:
									op = rmw.Affine{A: int64(rng.IntN(5) - 2), B: int64(rng.IntN(50))}
								}
							}
						}
						progs[p] = append(progs[p], RMW(addr, op))
					}
				}
				fold := serial.NewFold()
				cfg := tc.cfg
				cfg.Trace = fold.Record
				m := New(progs, wired(t, "omega", cfg))
				if !m.Run(100000) {
					t.Fatal("programs did not complete")
				}
				final := make(map[word.Addr]word.Word, addrSpace)
				for a := word.Addr(0); a < addrSpace; a++ {
					final[a] = m.Memory().Peek(a)
				}
				if err := serial.CheckM2WithFinal(m.History(), nil, final); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
				// The certificate also checks the stronger real-time
				// property: an operation whose reply returned before
				// another was issued must serialize first.
				if err := serial.CheckCertificate(m.History(), fold.Certificate(), nil, final); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
		})
	}
}
