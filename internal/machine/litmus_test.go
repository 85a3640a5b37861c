package machine

import (
	"testing"

	"combining/internal/rmw"
	"combining/internal/serial"
	"combining/internal/wiring"
	"combining/internal/word"
)

// The message-passing litmus test, a companion to Collier's example: under
// condition M2 alone, a flag can become visible before the data it guards.
//
//	Processor 1          Processor 2
//	(1) store X ← 1      (3) load Y
//	(2) store Y ← 1      (4) load X
//
// With pipelined stores and X's path congested, (2) reaches memory before
// (1), so P2 can observe Y=1, X=0 — impossible under sequential
// consistency when (3) sees 1.  Fences on both sides forbid it.

const (
	mpX     = word.Addr(7) // module 7, behind the congested path
	mpFlood = word.Addr(6) // flood target sharing X's path
	mpY     = word.Addr(1) // module 1, clear path
)

func mpPrograms(withFences bool) [][]Instr {
	progs := make([][]Instr, 8)

	// P1 = processor 0: dummies congest the path to modules 6/7, then
	// the data store (stuck) and the flag store (fast), pipelined.
	var p1 []Instr
	for i := 0; i < 24; i++ {
		p1 = append(p1, RMW(mpFlood, rmw.StoreOf(int64(i))))
	}
	p1 = append(p1, RMW(mpX, rmw.StoreOf(1)))
	if withFences {
		p1 = append(p1, Fence())
	}
	p1 = append(p1, RMW(mpY, rmw.StoreOf(1)))
	progs[0] = p1

	// P2 = processor 1: read the flag, then the data.
	p2 := []Instr{{Addr: mpY, Op: rmw.Load{}, MinCycle: 44}}
	if withFences {
		p2 = append(p2, Fence())
	}
	p2 = append(p2, Instr{Addr: mpX, Op: rmw.Load{}})
	progs[1] = p2

	// Processors 2 and 6 keep the shared stage-1 queue saturated.
	for _, flooder := range []int{2, 6} {
		var flood []Instr
		for i := 0; i < 100; i++ {
			flood = append(flood, RMW(mpFlood, rmw.StoreOf(int64(i))))
		}
		progs[flooder] = flood
	}
	return progs
}

func runMP(t *testing.T, withFences bool) (flag, data int64, hist *serial.History) {
	t.Helper()
	m := New(mpPrograms(withFences), wired(t, "omega", wiring.Config{Procs: 8, QueueCap: 4, WaitBufCap: 0}))
	if !m.Run(10000) {
		t.Fatal("programs did not complete")
	}
	p2 := m.Proc(1)
	last := len(mpPrograms(withFences)[1]) - 1
	return p2.Reply(0).Val, p2.Reply(last).Val, m.History()
}

func TestMessagePassingLitmus(t *testing.T) {
	flag, data, hist := runMP(t, false)
	t.Logf("pipelined (M2 only): flag = %d, data = %d", flag, data)
	if !(flag == 1 && data == 0) {
		t.Fatalf("expected the reordered outcome flag=1 data=0, got flag=%d data=%d", flag, data)
	}
	// Per-location FIFO still holds…
	if err := serial.CheckM2(hist, nil); err != nil {
		t.Errorf("execution violates M2: %v", err)
	}
	// …but the four litmus operations are not sequentially consistent.
	if serial.SeqConsistent(mpCore(hist), nil) {
		t.Error("flag=1 data=0 wrongly judged sequentially consistent")
	}
}

func TestMessagePassingWithFences(t *testing.T) {
	flag, data, hist := runMP(t, true)
	t.Logf("fenced: flag = %d, data = %d", flag, data)
	if flag == 1 && data == 0 {
		t.Fatal("fences failed to order the stores")
	}
	if !serial.SeqConsistent(mpCore(hist), nil) {
		t.Error("fenced execution is not sequentially consistent")
	}
}

// mpCore keeps the four litmus operations (X and Y accesses by procs 0/1).
func mpCore(h *serial.History) *serial.History {
	out := &serial.History{}
	for _, op := range h.Ops() {
		if op.Addr == mpX && op.Proc <= 1 || op.Addr == mpY {
			out.Add(op)
		}
	}
	return out
}
