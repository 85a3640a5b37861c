package coord

import (
	"sync"
	"sync/atomic"
	"testing"

	"combining/internal/word"
)

func TestSoftBarrier(t *testing.T) {
	for _, fanIn := range []int{2, 3, 4} {
		t.Run("native", func(t *testing.T) {
			const rounds = 8
			arrived := make([]atomic.Int64, rounds)
			run(func(id int, mem Memory) {
				b := NewSoftBarrier(mem, 200, parties, fanIn)
				for r := 0; r < rounds; r++ {
					arrived[r].Add(1)
					b.Await(id)
					if got := arrived[r].Load(); got != int64(parties) {
						t.Errorf("fanIn=%d round %d: participant %d passed with %d/%d arrivals",
							fanIn, r, id, got, parties)
						return
					}
				}
			})
		})
	}
}

func TestSoftBarrierSingleParty(t *testing.T) {
	b := NewSoftBarrier(NewNative(), 0, 1, 2)
	for i := 0; i < 5; i++ {
		b.Await(0) // must never block
	}
}

// TestSoftBarrierContentionSpread: the maximum number of fetch-and-adds
// any single cell absorbs per phase is bounded by the fan-in (plus its
// reset), unlike the flat barrier where one cell takes all n.
func TestSoftBarrierContentionSpread(t *testing.T) {
	const n, fanIn = 16, 2
	mem := &countingMemory{inner: NewNative()}
	done := make(chan struct{})
	for id := 0; id < n; id++ {
		go func(id int) {
			b := NewSoftBarrier(mem, 0, n, fanIn)
			b.Await(id)
			done <- struct{}{}
		}(id)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	maxPerCell := int64(0)
	mem.mu.Lock()
	for addr, c := range mem.adds {
		if addr == 0 {
			continue // the generation cell takes one bump
		}
		if c > maxPerCell {
			maxPerCell = c
		}
	}
	mem.mu.Unlock()
	// fanIn arrivals + one reset per phase.
	if maxPerCell > fanIn+1 {
		t.Fatalf("a tree cell absorbed %d fetch-and-adds, want ≤ %d", maxPerCell, fanIn+1)
	}
}

// countingMemory counts FetchAdd calls per address.
type countingMemory struct {
	inner Memory
	mu    sync.Mutex
	adds  map[int64]int64
}

func (m *countingMemory) Cell(addr word.Addr) Cell {
	return countingCell{m: m, addr: int64(addr), inner: m.inner.Cell(addr)}
}

type countingCell struct {
	m     *countingMemory
	addr  int64
	inner Cell
}

func (c countingCell) FetchAdd(d int64) int64 {
	c.m.mu.Lock()
	if c.m.adds == nil {
		c.m.adds = map[int64]int64{}
	}
	c.m.adds[c.addr]++
	c.m.mu.Unlock()
	return c.inner.FetchAdd(d)
}
func (c countingCell) Load() int64        { return c.inner.Load() }
func (c countingCell) Store(v int64)      { c.inner.Store(v) }
func (c countingCell) Swap(v int64) int64 { return c.inner.Swap(v) }
