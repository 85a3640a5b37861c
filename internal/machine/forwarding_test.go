package machine

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"combining/internal/engine"
	"combining/internal/network"
	"combining/internal/rmw"
	"combining/internal/serial"
	"combining/internal/word"
)

// Experiment E3 — the incorrect optimization of Section 5.1: when a store
// meets a load in a switch queue, "satisfy the load immediately".  The
// paper's three-processor counterexample:
//
//	Processor 1     Processor 2      Processor 3
//	(1) A ← 1       (2) a ← A        (4) b ← B + 1
//	                (3) B ← a        (5) A ← b
//
// may then end with b = 2 and A = 1: the load (2) is answered with 1 while
// store (1) is still stuck in the network, so (5)'s A ← 2 reaches memory
// first and (1) finally overwrites it.  We engineer the 23451 order with
// the same congestion machinery as the Collier test.

const (
	fwdA = word.Addr(7) // module 7
	fwdC = word.Addr(6) // congestion target sharing A's path
	fwdB = word.Addr(1) // module 1, clear path
)

func forwardingPrograms() [][]Instr {
	progs := make([][]Instr, 8)

	// P1 = processor 0: dummies to module 6 congest its path, then the
	// store A ← 1 that will be stuck in the stage-0 queue.
	var p1 []Instr
	for i := 0; i < 20; i++ {
		p1 = append(p1, RMW(fwdC, rmw.StoreOf(100+int64(i))))
	}
	p1 = append(p1, RMW(fwdA, rmw.StoreOf(1))) // (1)
	progs[0] = p1

	// P2 = processor 4 (shares stage-0 switch 0 with P1): two extra
	// dummies guarantee its load A arrives after P1's store A is queued,
	// then B ← a (data dependent on the load).
	var p2 []Instr
	for i := 0; i < 22; i++ {
		p2 = append(p2, RMW(fwdC, rmw.StoreOf(200+int64(i))))
	}
	loadA := len(p2)
	p2 = append(p2, RMW(fwdA, rmw.Load{})) // (2)
	p2 = append(p2, Instr{                 // (3) B ← a
		Addr:  fwdB,
		DynOp: func(rep []word.Word) rmw.Mapping { return rmw.StoreOf(rep[loadA].Val) },
		After: []int{loadA},
	})
	progs[4] = p2

	// P3 = processor 1 (clear paths): b ← B + 1, then A ← b, timed to
	// run after (3) but before the stuck store (1) reaches memory.
	progs[1] = []Instr{
		{Addr: fwdB, Op: rmw.Load{}, MinCycle: 65}, // (4) reads B
		{ // (5) A ← B + 1
			Addr:  fwdA,
			DynOp: func(rep []word.Word) rmw.Mapping { return rmw.StoreOf(rep[0].Val + 1) },
			After: []int{0},
		},
	}

	// Processors 2 and 6 keep the stage-1 switch on the module-6/7 path
	// saturated throughout.
	for _, flooder := range []int{2, 6} {
		var flood []Instr
		for i := 0; i < 150; i++ {
			flood = append(flood, RMW(fwdC, rmw.StoreOf(int64(i))))
		}
		progs[flooder] = flood
	}
	return progs
}

func runForwarding(t *testing.T, buggy bool) (b, finalA int64, hist *serial.History, final map[word.Addr]word.Word) {
	t.Helper()
	cfg := network.Config{Procs: 8, QueueCap: 12, WaitBufCap: 0, BuggyLoadForwarding: buggy}
	m := New(forwardingPrograms(), func(inj []engine.Injector) engine.Machine { return network.NewSim(cfg, inj) })
	if !m.Run(10000) {
		t.Fatal("programs did not complete")
	}
	p3 := m.Proc(1)
	b = p3.Reply(0).Val + 1
	finalA = m.Memory().Peek(fwdA).Val
	final = map[word.Addr]word.Word{
		fwdA: m.Memory().Peek(fwdA),
		fwdB: m.Memory().Peek(fwdB),
		fwdC: m.Memory().Peek(fwdC),
	}
	return b, finalA, m.History(), final
}

func TestLoadForwardingIncorrect(t *testing.T) {
	b, finalA, hist, _ := runForwarding(t, true)
	t.Logf("buggy forwarding: b = %d, final A = %d", b, finalA)
	if b != 2 || finalA != 1 {
		t.Fatalf("expected the paper's incorrect outcome b=2 ∧ A=1, got b=%d A=%d", b, finalA)
	}
	// This particular violation is causal, not per-location: each cell's
	// replies are individually serializable, but the five litmus
	// operations admit no sequentially consistent interleaving (the
	// dependency cycle loadA → storeB → loadB → storeA(2) → storeA(1)
	// → loadA).  Removing the unrelated flood operations only relaxes
	// the constraints, so non-SC on the stripped history is a sound
	// verdict.
	if serial.SeqConsistent(forwardingCore(hist), nil) {
		t.Error("checker failed to detect the incorrect execution")
	}
}

// forwardingCore keeps the five litmus operations: every access to A and B
// (the flood and dummies touch only module 6).
func forwardingCore(h *serial.History) *serial.History {
	out := &serial.History{}
	for _, op := range h.Ops() {
		if op.Addr == fwdA || op.Addr == fwdB {
			out.Add(op)
		}
	}
	return out
}

func TestLoadForwardingDisabledIsCorrect(t *testing.T) {
	b, finalA, hist, final := runForwarding(t, false)
	t.Logf("correct combining: b = %d, final A = %d", b, finalA)
	if b == 2 && finalA == 1 {
		t.Fatal("incorrect outcome appeared without the buggy optimization")
	}
	if err := serial.CheckM2WithFinal(hist, nil, final); err != nil {
		t.Errorf("correct execution rejected: %v", err)
	}
}

// TestBuggyForwardingDetectedStochastically hunts the bug with random
// traffic instead of a constructed schedule: mixed stores and loads over a
// two-address hot set.  Across seeds, the checker must catch at least one
// violation with the optimization enabled and none with it disabled.  A
// forwarded load is answered at the station, so no Served event places it:
// the certificate misses it and the search, which must then fail on the
// final value, names the failure class.  Every run is made at Workers 1
// and 3, whose workers serve their own ports and run the Intercept on their
// own switches: the two must give the same trace and the same verdict.
func TestBuggyForwardingDetectedStochastically(t *testing.T) {
	run := func(seed uint64, buggy bool, workers int) ([]engine.Event, error) {
		rng := rand.New(rand.NewPCG(seed, 99))
		progs := make([][]Instr, 16)
		for p := range progs {
			var prog []Instr
			for i := 0; i < 18; i++ {
				addr := word.Addr(rng.IntN(2))
				if rng.IntN(2) == 0 {
					prog = append(prog, RMW(addr, rmw.StoreOf(int64(p*1000+i))))
				} else {
					prog = append(prog, RMW(addr, rmw.Load{}))
				}
			}
			progs[p] = prog
		}
		fold, log := serial.NewFold(), &engine.TraceLog{}
		trace := func(e engine.Event) { fold.Record(e); log.Record(e) }
		cfg := network.Config{Procs: 16, QueueCap: 4, WaitBufCap: 0, BuggyLoadForwarding: buggy, Workers: workers, Trace: trace}
		m := New(progs, func(inj []engine.Injector) engine.Machine { return network.NewSim(cfg, inj) })
		if !m.Run(50000) {
			t.Fatal("stochastic programs did not complete")
		}
		final := map[word.Addr]word.Word{
			0: m.Memory().Peek(0),
			1: m.Memory().Peek(1),
		}
		return log.Events, serial.Check(m.History(), fold.Certificate(), nil, final)
	}
	// verdict runs a seed at both widths and returns the one-worker verdict.
	verdict := func(seed uint64, buggy bool) error {
		events, err := run(seed, buggy, 1)
		events3, err3 := run(seed, buggy, 3)
		if !slices.Equal(events3, events) {
			t.Errorf("seed %d buggy=%v: Workers=3 traced %d events, one worker %d, or in another order", seed, buggy, len(events3), len(events))
		}
		if fmt.Sprint(err3) != fmt.Sprint(err) {
			t.Errorf("seed %d buggy=%v: Workers=3 verdict %v, one worker %v", seed, buggy, err3, err)
		}
		return err
	}

	if testing.Short() {
		t.Skip("stochastic hunt")
	}
	violations := 0
	for seed := uint64(1); seed <= 5; seed++ {
		if err := verdict(seed, true); err != nil {
			if !strings.HasPrefix(err.Error(), "per-location serializability violated: ") {
				t.Errorf("seed %d: caught as %q, want the search's class", seed, err)
			}
			violations++
		}
		if err := verdict(seed, false); err != nil {
			t.Errorf("seed %d: correct network rejected: %v", seed, err)
		}
	}
	t.Logf("buggy forwarding caught on %d of 5 seeds", violations)
	if violations == 0 {
		t.Error("checker never caught the buggy optimization across 5 seeds")
	}
}
