package machine

import (
	"math/rand/v2"
	"testing"

	"combining/internal/rmw"
	"combining/internal/serial"
	"combining/internal/word"
)

// TestM1CollierAlwaysSC: under condition M1 the Collier outcome a=1, b=0
// is unreachable no matter how issue timing is perturbed — the contrast
// with TestCollierExample, where the M2-only network produces it.
func TestM1CollierAlwaysSC(t *testing.T) {
	const A, B = word.Addr(7), word.Addr(1)
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 17))
		progs := [][]Instr{
			{ // P1: load A; load B — pipelined, no fence.
				{Addr: A, Op: rmw.Load{}, MinCycle: int64(rng.IntN(10))},
				{Addr: B, Op: rmw.Load{}},
			},
			{ // P2: store B ← 1; store A ← 1.
				{Addr: B, Op: rmw.StoreOf(1), MinCycle: int64(rng.IntN(10))},
				{Addr: A, Op: rmw.StoreOf(1)},
			},
		}
		m := New(progs, M1)
		if !m.Run(1000) {
			t.Fatal("programs did not complete")
		}
		a, b := m.Proc(0).Reply(0).Val, m.Proc(0).Reply(1).Val
		if a == 1 && b == 0 {
			t.Fatalf("trial %d: M1 machine produced the non-SC outcome a=1 b=0", trial)
		}
		if !serial.SeqConsistent(m.History(), nil) {
			t.Fatalf("trial %d: M1 execution is not sequentially consistent (a=%d b=%d)",
				trial, a, b)
		}
	}
}

// TestM1RandomProgramsSC: arbitrary random programs on the M1 machine are
// always fully sequentially consistent, not just per-location serializable.
func TestM1RandomProgramsSC(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 23))
		progs := make([][]Instr, 3)
		for p := range progs {
			for i := 0; i < 5; i++ {
				addr := word.Addr(rng.IntN(2))
				var op rmw.Mapping
				switch rng.IntN(3) {
				case 0:
					op = rmw.Load{}
				case 1:
					op = rmw.StoreOf(int64(rng.IntN(50)))
				default:
					op = rmw.FetchAdd(int64(rng.IntN(9) - 4))
				}
				progs[p] = append(progs[p], Instr{Addr: addr, Op: op, MinCycle: int64(rng.IntN(6))})
			}
		}
		m := New(progs, M1)
		if !m.Run(1000) {
			t.Fatal("programs did not complete")
		}
		if !serial.SeqConsistent(m.History(), nil) {
			t.Fatalf("seed %d: M1 execution not sequentially consistent", seed)
		}
	}
}

// TestM1Semantics: basic data flow through the central FIFO.
func TestM1Semantics(t *testing.T) {
	progs := [][]Instr{
		{
			RMW(3, rmw.FetchAdd(5)),
			RMW(3, rmw.FetchAdd(7)),
			RMW(3, rmw.Load{}),
		},
	}
	m := New(progs, M1)
	m.Memory().Poke(3, word.W(100))
	if !m.Run(100) {
		t.Fatal("program did not complete")
	}
	if got := m.Memory().Peek(3).Val; got != 112 {
		t.Fatalf("final = %d, want 112", got)
	}
	if got := m.Proc(0).Reply(2).Val; got != 112 {
		t.Fatalf("load saw %d, want 112", got)
	}
}

// TestM1Fences: fences still work (they are simply redundant under M1).
func TestM1Fences(t *testing.T) {
	progs := [][]Instr{
		{RMW(0, rmw.StoreOf(1)), Fence(), RMW(1, rmw.StoreOf(2))},
	}
	m := New(progs, M1)
	if !m.Run(100) {
		t.Fatal("program did not complete")
	}
	if m.Memory().Peek(0).Val != 1 || m.Memory().Peek(1).Val != 2 {
		t.Fatal("stores lost")
	}
}
