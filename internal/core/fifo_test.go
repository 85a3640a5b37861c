package core

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// fifoElem stands in for a message: a payload plus a reference-typed field
// like the Path/Srcs/Reps a real one carries.
type fifoElem struct {
	id  int
	ref []uint8
}

// TestFIFOModel drives a FIFO and a plain slice with the same random
// push/pop sequence — bounded at 1 and at 4, and unbounded — and compares
// Len, Full, Front and View after every operation.  The push bias swings so
// the queue both fills (growth, the slide at the wrap) and drains (the
// restart when empty).
func TestFIFOModel(t *testing.T) {
	for _, bound := range []int{1, 4, 0, -1} {
		rng := rand.New(rand.NewSource(int64(17 + bound)))
		q := NewFIFO[fifoElem](bound)
		var model []fifoElem
		next := 0
		for step := 0; step < 20000; step++ {
			bias := 0.35 + 0.3*float64((step/500)%2) // drain, then fill
			full := bound > 0 && len(model) == bound
			if q.Full() != full {
				t.Fatalf("bound %d step %d: Full() = %v with %d queued", bound, step, q.Full(), len(model))
			}
			if rng.Float64() < bias {
				if full {
					continue
				}
				e := fifoElem{id: next, ref: []uint8{uint8(next)}}
				next++
				*q.Push() = e
				model = append(model, e)
			} else if len(model) > 0 {
				if f := q.Front(); f.id != model[0].id {
					t.Fatalf("bound %d step %d: Front id %d, model %d", bound, step, f.id, model[0].id)
				}
				q.Pop()
				model = model[1:]
			}
			if q.Len() != len(model) {
				t.Fatalf("bound %d step %d: Len %d, model %d", bound, step, q.Len(), len(model))
			}
			view := q.View()
			if len(view) != len(model) {
				t.Fatalf("bound %d step %d: View has %d elements, model %d", bound, step, len(view), len(model))
			}
			for i := range view {
				if view[i].id != model[i].id || &view[i].ref[0] != &model[i].ref[0] {
					t.Fatalf("bound %d step %d: View[%d] = %+v, model %+v", bound, step, i, view[i], model[i])
				}
			}
			if bound > 0 && len(q.buf) > bound {
				t.Fatalf("bound %d step %d: storage grew to %d slots", bound, step, len(q.buf))
			}
		}
		if next < 2000 {
			t.Fatalf("bound %d: only %d pushes — the model ran idle", bound, next)
		}
	}
}

// TestFIFOSlideAtWrap pins the wrap: a bounded queue held near its bound
// walks its tail to the end of the fixed storage, slides, and loses nothing.
func TestFIFOSlideAtWrap(t *testing.T) {
	q := NewFIFO[fifoElem](4)
	for i := 0; i < 3; i++ {
		*q.Push() = fifoElem{id: i}
	}
	slides := 0
	for i := 3; i < 100; i++ {
		wasAtEnd := int(q.tail) == len(q.buf) && q.head > 0
		*q.Push() = fifoElem{id: i}
		if wasAtEnd {
			slides++
			if q.head != 0 {
				t.Fatalf("push %d at the end of storage did not slide to the front (head %d)", i, q.head)
			}
		}
		if got := q.Front().id; got != i-3 {
			t.Fatalf("after push %d: front id %d, want %d", i, got, i-3)
		}
		q.Pop()
		if v := q.View(); len(v) != 3 || v[0].id != i-2 || v[2].id != i {
			t.Fatalf("after push %d: view %+v", i, v)
		}
	}
	if slides == 0 || len(q.buf) != 4 {
		t.Fatalf("%d slides in storage of %d slots; want some, in the bound's 4", slides, len(q.buf))
	}
}

// TestFIFOGrowth: an unbounded queue keeps everything through repeated
// doubling, and Clear drops every reference its storage held.
func TestFIFOGrowth(t *testing.T) {
	var q FIFO[fifoElem] // the zero value is an empty unbounded queue
	for i := 0; i < 1000; i++ {
		*q.Push() = fifoElem{id: i, ref: []uint8{1}}
		if i%3 == 0 {
			q.Pop()
		}
	}
	if q.Len() != 1000-334 {
		t.Fatalf("Len %d after 1000 pushes and 334 pops", q.Len())
	}
	for i, e := range q.View() {
		if e.id != 334+i {
			t.Fatalf("View[%d].id = %d, want %d", i, e.id, 334+i)
		}
	}
	q.Clear()
	if q.Len() != 0 {
		t.Fatalf("Len %d after Clear", q.Len())
	}
	for i := range q.buf {
		if q.buf[i].ref != nil {
			t.Fatalf("slot %d still holds a reference after Clear", i)
		}
	}
}

// TestFIFOMisuse: popping an empty queue and pushing onto a full bounded one
// are engine bugs and panic rather than corrupt the queue.
func TestFIFOMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	q := NewFIFO[int](1)
	mustPanic("Pop on empty", q.Pop)
	mustPanic("Front on empty", func() { q.Front() })
	*q.Push() = 1
	mustPanic("Push on full", func() { q.Push() })
}

// TestFIFOSteadyStateZeroAlloc: once a queue has seen its working occupancy
// its storage is fixed — pushes, pops and slides allocate nothing.
func TestFIFOSteadyStateZeroAlloc(t *testing.T) {
	for _, bound := range []int{4, 0} {
		q := NewFIFO[fifoElem](bound)
		churn := func() {
			for i := 0; i < 64; i++ {
				for q.Len() < 3 {
					*q.Push() = fifoElem{id: i}
				}
				q.Pop()
			}
		}
		churn()
		if allocs := testing.AllocsPerRun(50, churn); allocs != 0 {
			t.Errorf("bound %d: %.1f allocs per steady-state churn, want 0", bound, allocs)
		}
	}
}

// TestSeedFIFOs: SeedFIFOs cuts each storage-less queue's first storage —
// two slots, one under a bound of 1 — from one array in column order, with
// no slack between queues and none past a slot's end, and leaves a queue
// that already has storage alone.  Each queue then fills to its bound
// without passing it or writing into its neighbours' slots, and an unbounded
// one grows past its first storage into storage of its own.
func TestSeedFIFOs(t *testing.T) {
	bounds := []int{1, 2, 3, 0, 1, 4}
	col := make([]FIFO[int], len(bounds))
	for i, b := range bounds {
		col[i] = NewFIFO[int](b)
	}
	*col[5].Push() = 50 // has storage: not seeded
	own := &col[5].buf[0]
	SeedFIFOs(col)
	if &col[5].buf[0] != own {
		t.Fatal("SeedFIFOs replaced the storage of a queue that had some")
	}
	want := []int{1, 2, 2, 2, 1}
	for i, n := range want {
		if len(col[i].buf) != n || cap(col[i].buf) != n {
			t.Fatalf("queue %d (bound %d): first storage of len %d cap %d, want %d", i, bounds[i], len(col[i].buf), cap(col[i].buf), n)
		}
		if i > 0 && unsafe.Pointer(&col[i].buf[0]) != unsafe.Add(unsafe.Pointer(&col[i-1].buf[0]), want[i-1]*int(unsafe.Sizeof(0))) {
			t.Fatalf("queue %d's first storage does not follow queue %d's in one array", i, i-1)
		}
	}
	for i := range col[:5] {
		limit := bounds[i]
		if limit == 0 {
			limit = 5
		}
		for v := 0; v < limit; v++ {
			*col[i].Push() = 10*i + v
		}
	}
	for i := range col[:5] {
		for v, got := range col[i].View() {
			if got != 10*i+v {
				t.Fatalf("queue %d holds %v: a neighbour wrote into its slots", i, col[i].View())
			}
		}
		if b := bounds[i]; b > 0 && len(col[i].buf) > b {
			t.Fatalf("queue %d: storage of %d slots behind bound %d", i, len(col[i].buf), b)
		}
	}
	if len(col[3].buf) < 5 {
		t.Fatalf("the unbounded queue holds 5 in %d slots", len(col[3].buf))
	}
}

// FuzzFIFO drives a FIFO[int] and a plain slice through the same op string
// — one byte an op: push (refused by a full queue, which must then panic on
// Push), pop (likewise on an empty one), an edit through Front, an edit
// through View, Clear, Touch — at bounds 0 (unbounded) to 8, and after every
// op compares Len, Full, Peak, Front and View with the model and checks the
// storage rules: head ≤ tail ≤ len, an empty queue stands at the front,
// a bounded queue's storage never passes its bound, Clear leaves zeroes.
// The version must change on every Push, Pop, Clear and Touch that happens,
// and on nothing else: not on a refused one, not on an edit in place, not on
// the reads the checks make.  The seeds walk the four storage moves
// (doubling, the slide at the end of storage, the restart when drained,
// Clear then reuse).  With the top bit of the bound byte set, the queue is
// the middle one of three seeded together (SeedFIFOs), its neighbours full
// of sentinels that no op on it may touch.
func FuzzFIFO(f *testing.F) {
	const push, pop, front, view, clr, touch = 0, 3, 5, 6, 7, 8
	f.Add(uint8(0), []byte{push, push, push, push, push, push, push, push, push, pop, pop, view, pop})       // doubling 1→16
	f.Add(uint8(4), []byte{push, push, push, pop, push, pop, push, pop, push, front, pop, push, push, push}) // slides in fixed storage, then full
	f.Add(uint8(0), []byte{push, pop, push, pop, push, push, pop, pop, pop, push})                           // drains and restarts at the front
	f.Add(uint8(8), []byte{push, push, push, push, push, pop, pop, clr, push, push, push, pop, view, clr, clr, push})
	f.Add(uint8(1), []byte{push, push, front, pop, pop, push, clr, push})
	f.Add(uint8(3), []byte{push, push, pop, push, push, push, pop, push, pop, push, pop, push, view, front})
	f.Add(uint8(2), []byte{touch, push, push, push, front, touch, view, pop, pop, pop, touch, clr, touch})
	f.Add(uint8(0x80|1), []byte{push, pop, push, push, front, pop, push, clr, push})                           // seeded at bound 1: one slot, fixed
	f.Add(uint8(0x80|3), []byte{push, push, push, pop, push, pop, push, view, pop, pop, pop, push, clr, push}) // seeded two slots grow to the bound's 3
	f.Add(uint8(0x80), []byte{push, push, push, push, push, pop, view, front, clr, push})                      // seeded, unbounded: grows off the slab
	f.Fuzz(func(t *testing.T, b uint8, ops []byte) {
		bound, seeded := int(b&0x7f%9), b&0x80 != 0
		col := []FIFO[int]{NewFIFO[int](bound), NewFIFO[int](bound), NewFIFO[int](bound)}
		q := &col[1]
		if seeded {
			SeedFIFOs(col)
			for _, i := range []int{0, 2} {
				for !col[i].Full() && col[i].Len() < 2 {
					*col[i].Push() = -1000 - i
				}
			}
		}
		neighbours := func(step int) {
			for _, i := range []int{0, 2} {
				for _, v := range col[i].View() {
					if v != -1000-i {
						t.Fatalf("step %d: neighbour %d holds %v", step, i, col[i].View())
					}
				}
			}
		}
		var model []int
		next, peak := 1, 0
		panics := func(f func()) (did bool) {
			defer func() { did = recover() != nil }()
			f()
			return
		}
		for step, op := range ops {
			full := bound > 0 && len(model) == bound
			ver, changes := q.Ver(), false
			switch op % 9 {
			case 0, 1, 2:
				if full {
					if !panics(func() { q.Push() }) {
						t.Fatalf("step %d: Push on a full queue of bound %d did not panic", step, bound)
					}
					break
				}
				*q.Push() = next
				model = append(model, next)
				next++
				peak = max(peak, len(model))
				changes = true
			case 3, 4:
				if len(model) == 0 {
					if !panics(q.Pop) {
						t.Fatalf("step %d: Pop on an empty queue did not panic", step)
					}
					break
				}
				q.Pop()
				model = model[1:]
				changes = true
			case 5:
				if len(model) > 0 {
					*q.Front() = -next
					model[0] = -next
					next++
				}
			case 6:
				if len(model) > 0 {
					i := int(op>>3) % len(model)
					q.View()[i] = -next
					model[i] = -next
					next++
				}
			case 7:
				q.Clear()
				model = model[:0]
				for i, v := range q.buf {
					if v != 0 {
						t.Fatalf("step %d: slot %d holds %d after Clear", step, i, v)
					}
				}
				changes = true
			case 8:
				q.Touch()
				changes = true
			}
			if (q.Ver() != ver) != changes {
				t.Fatalf("step %d: op %d moved the version %d → %d, want a change: %v", step, op%9, ver, q.Ver(), changes)
			}
			ver = q.Ver()
			if q.Len() != len(model) || q.Full() != (bound > 0 && len(model) == bound) || q.Peak() != peak {
				t.Fatalf("step %d bound %d: Len %d Full %v Peak %d, model has %d queued and peak %d",
					step, bound, q.Len(), q.Full(), q.Peak(), len(model), peak)
			}
			if got := q.View(); !slices.Equal(got, model) {
				t.Fatalf("step %d bound %d: View %v, model %v", step, bound, got, model)
			}
			if len(model) > 0 && q.Front() != &q.View()[0] {
				t.Fatalf("step %d: Front is not the first slot of View", step)
			}
			if q.head < 0 || q.head > q.tail || int(q.tail) > len(q.buf) || (q.head == q.tail && q.head != 0) {
				t.Fatalf("step %d: head %d tail %d in %d slots", step, q.head, q.tail, len(q.buf))
			}
			if bound > 0 && len(q.buf) > bound {
				t.Fatalf("step %d: storage of %d slots behind bound %d", step, len(q.buf), bound)
			}
			if q.Ver() != ver {
				t.Fatalf("step %d: Len, Full, Peak, Front or View moved the version %d → %d", step, ver, q.Ver())
			}
			neighbours(step)
		}
	})
}
