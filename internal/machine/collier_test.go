package machine

import (
	"testing"

	"combining/internal/rmw"
	"combining/internal/serial"
	"combining/internal/wiring"
	"combining/internal/word"
)

// Experiment E2 — Collier's example (Section 3.2).
//
//	Processor 1          Processor 2
//	(1) load A           (3) store B ← 1
//	(2) load B           (4) store A ← 1
//
// A memory system satisfying only condition M2 (per-location FIFO) admits
// the execution order 4123, whose outcome a=1, b=0 is not sequentially
// consistent.  We engineer that order on the simulator: P1's load A is
// delayed behind flood traffic in a shared switch queue while its
// pipelined load B races ahead; P2 starts late enough that its store B
// misses the load B but its store A (on an uncongested path) beats the
// stuck load A.  Adding fences (the RP3 instruction) removes the outcome.

const (
	collierA  = word.Addr(7) // module 7 (upper half at every stage)
	collierA2 = word.Addr(6) // flood target sharing A's path until the last port
	collierB  = word.Addr(1) // module 1 (lower half: diverges at stage 0)
)

// collierPrograms builds the two programs plus the flooder; withFences
// inserts a fence between the two accesses of each processor.
func collierPrograms(withFences bool) [][]Instr {
	progs := make([][]Instr, 8)

	// P1 = processor 0: its own flood stores to module 6 contend for the
	// same stage-1 output port as load A, so load A inherits the full
	// backpressure, then the two loads issue pipelined.
	var p1 []Instr
	for i := 0; i < 12; i++ {
		p1 = append(p1, RMW(collierA2, rmw.StoreOf(int64(i))))
	}
	p1 = append(p1, RMW(collierA, rmw.Load{}))
	if withFences {
		p1 = append(p1, Fence())
	}
	p1 = append(p1, RMW(collierB, rmw.Load{}))
	progs[0] = p1

	// P2 = processor 1 (a different stage-0 switch): store B then store
	// A, starting once P1's loads are in flight.
	p2 := []Instr{
		{Addr: collierB, Op: rmw.StoreOf(1), MinCycle: 45},
	}
	if withFences {
		p2 = append(p2, Fence())
	}
	p2 = append(p2, Instr{Addr: collierA, Op: rmw.StoreOf(1)})
	progs[1] = p2

	// Processors 2 and 6 feed the other input of the stage-1 switch on
	// the path to modules 6/7; their flood of module 6 halves the drain
	// rate P1's traffic sees, so load A crawls while P2's disjoint path
	// (through stage-1 switch 3) stays clear.
	for _, flooder := range []int{2, 4, 6} {
		var flood []Instr
		for i := 0; i < 60; i++ {
			flood = append(flood, RMW(collierA2, rmw.StoreOf(int64(i))))
		}
		progs[flooder] = flood
	}
	return progs
}

func collierConfig() wiring.Config {
	return wiring.Config{Procs: 8, QueueCap: 8, WaitBufCap: 0}
}

func runCollier(t *testing.T, withFences bool) (a, b int64, hist *serial.History) {
	t.Helper()
	m := New(collierPrograms(withFences), wired(t, "omega", collierConfig()))
	if !m.Run(5000) {
		t.Fatal("programs did not complete")
	}
	p1 := m.Proc(0)
	loadA := 12
	loadB := len(p1.prog) - 1
	return p1.Reply(loadA).Val, p1.Reply(loadB).Val, m.History()
}

func TestCollierExample(t *testing.T) {
	a, b, hist := runCollier(t, false)
	t.Logf("pipelined (M2 only): load A = %d, load B = %d", a, b)
	// The engineered interleaving must produce the non-SC outcome.
	if a != 1 || b != 0 {
		t.Fatalf("expected the non-sequentially-consistent outcome a=1 b=0, got a=%d b=%d", a, b)
	}
	// It is nevertheless M2-correct — each location served FIFO — which
	// is exactly the paper's point: M2 alone is not sequential
	// consistency.
	if err := serial.CheckM2(hist, nil); err != nil {
		t.Errorf("execution violates M2: %v", err)
	}
	if serial.SeqConsistent(collierCore(hist), nil) {
		t.Error("outcome a=1 b=0 wrongly judged sequentially consistent")
	}
}

func TestCollierWithFences(t *testing.T) {
	a, b, hist := runCollier(t, true)
	t.Logf("fenced: load A = %d, load B = %d", a, b)
	if a == 1 && b == 0 {
		t.Fatal("fences failed to prevent the non-SC outcome")
	}
	if err := serial.CheckM2(hist, nil); err != nil {
		t.Errorf("execution violates M2: %v", err)
	}
	if !serial.SeqConsistent(collierCore(hist), nil) {
		t.Error("fenced execution is not sequentially consistent")
	}
}

// collierCore strips the flood/setup operations from the history, keeping
// only the four operations of the litmus test (the SC check is exponential
// and the flood traffic is irrelevant to it: it touches disjoint
// locations).
func collierCore(h *serial.History) *serial.History {
	out := &serial.History{}
	for _, op := range h.Ops() {
		if op.Addr == collierA && op.Proc <= 1 || op.Addr == collierB {
			out.Add(op)
		}
	}
	return out
}
