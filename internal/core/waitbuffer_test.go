package core

import (
	"slices"
	"testing"

	"combining/internal/word"
)

// stackBuffer is the wait buffer as a map of per-id stacks: the obvious
// reading of the paper's associative memory, and the oracle WaitBuffer's
// slot chains are held to.
type stackBuffer struct {
	capacity, size       int
	recs                 map[word.ReqID][]int
	combines, rejections int64
}

func (b *stackBuffer) canPush() bool { return b.capacity == Unbounded || b.size < b.capacity }

func (b *stackBuffer) push(id word.ReqID, rec int) bool {
	if !b.canPush() {
		b.rejections++
		return false
	}
	b.recs[id] = append(b.recs[id], rec)
	b.size++
	b.combines++
	return true
}

func (b *stackBuffer) popMatch(id word.ReqID, match func(int) bool) (int, bool) {
	stack := b.recs[id]
	for i := len(stack) - 1; i >= 0; i-- {
		if match(stack[i]) {
			rec := stack[i]
			b.recs[id] = append(stack[:i:i], stack[i+1:]...)
			b.size--
			return rec, true
		}
	}
	return 0, false
}

func (b *stackBuffer) flush() []int {
	var out []int
	for id, stack := range b.recs {
		out = append(out, stack...)
		delete(b.recs, id)
	}
	b.size = 0
	return out
}

// FuzzWaitBuffer drives WaitBuffer and the map-of-stacks oracle with the
// same operations — Push, Pop, PopMatch with a predicate, Flush — over a
// few ids, so one id keys several records, at capacities 0, 1, 4 and
// Unbounded, and requires every answer, Len, CanPush and the counters to
// agree.  Flush is compared as a multiset: its order is unspecified.
func FuzzWaitBuffer(f *testing.F) {
	const push, pop, match, flush = 0, 4, 5, 7
	f.Add(uint8(3), []byte{push, push, push, pop, pop, pop, pop})
	f.Add(uint8(3), []byte{push, push | 8, push, push | 16, match, match | 64, match | 128, pop | 8, flush, push, pop})
	f.Add(uint8(2), []byte{push, push, push, push, push, pop, push | 8, pop | 8, pop, pop})
	f.Add(uint8(1), []byte{push, push, pop, push, flush, pop})
	f.Add(uint8(0), []byte{push, pop, match, flush})
	f.Add(uint8(3), []byte{push, push, push, push, match | 32, match | 32, push, flush, push | 24, match | 152, pop | 24})
	f.Fuzz(func(t *testing.T, c uint8, ops []byte) {
		capacity := []int{0, 1, 4, Unbounded}[c%4]
		got := NewWaitBuffer[int](capacity)
		want := &stackBuffer{capacity: capacity, recs: make(map[word.ReqID][]int)}
		next := 1
		for step, op := range ops {
			// Bits 3–4 pick one of four ids; bits 5–7 the predicate's
			// modulus and residue.
			id := word.ReqID(1 + op>>3&3)
			switch op & 7 {
			case 0, 1, 2, 3:
				if g, w := got.Push(id, next), want.push(id, next); g != w {
					t.Fatalf("step %d: Push(%d, %d) = %v, oracle %v", step, id, next, g, w)
				}
				next++
			case pop:
				g, gok := got.Pop(id)
				w, wok := want.popMatch(id, func(int) bool { return true })
				if g != w || gok != wok {
					t.Fatalf("step %d: Pop(%d) = %d %v, oracle %d %v", step, id, g, gok, w, wok)
				}
			case match, 6:
				mod := 2 + int(op>>5&3)
				res := int(op>>7) % mod
				pred := func(r int) bool { return r%mod == res }
				g, gok := got.PopMatch(id, pred)
				w, wok := want.popMatch(id, pred)
				if g != w || gok != wok {
					t.Fatalf("step %d: PopMatch(%d, ≡%d mod %d) = %d %v, oracle %d %v", step, id, res, mod, g, gok, w, wok)
				}
			case flush:
				g, w := got.Flush(), want.flush()
				slices.Sort(g)
				slices.Sort(w)
				if !slices.Equal(g, w) {
					t.Fatalf("step %d: Flush = %v, oracle %v", step, g, w)
				}
			}
			if got.Len() != want.size || got.CanPush() != want.canPush() ||
				got.Combines != want.combines || got.Rejections != want.rejections {
				t.Fatalf("step %d: Len %d CanPush %v combines %d rejections %d, oracle %d %v %d %d", step,
					got.Len(), got.CanPush(), got.Combines, got.Rejections,
					want.size, want.canPush(), want.combines, want.rejections)
			}
		}
	})
}

// TestWaitBufferPushAllocs: once a buffer has held its peak, pushing and
// popping records allocates nothing — freed slots are reused, and the
// index keeps its storage.
func TestWaitBufferPushAllocs(t *testing.T) {
	b := NewWaitBuffer[Record](Unbounded)
	churn := func() {
		for id := word.ReqID(1); id <= 8; id++ {
			b.Push(id, Record{ID1: id})
			b.Push(id, Record{ID1: id})
		}
		for id := word.ReqID(8); id >= 1; id-- {
			b.Pop(id)
			b.Pop(id)
		}
	}
	churn()
	if allocs := testing.AllocsPerRun(50, churn); allocs != 0 {
		t.Errorf("steady-state push and pop: %.1f allocs/op, want 0", allocs)
	}
}
