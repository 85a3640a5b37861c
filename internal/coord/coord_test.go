package coord

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"combining/internal/asyncnet"
)

// substrate runs a parallel body on n participants over some Memory
// implementation, giving each participant its own Memory view.
type substrate struct {
	name string
	n    int
	run  func(t *testing.T, body func(id int, mem Memory))
}

func substrates(t *testing.T) []substrate {
	t.Helper()
	return []substrate{
		{
			name: "native",
			n:    16,
			run: func(t *testing.T, body func(int, Memory)) {
				mem := NewNative()
				var wg sync.WaitGroup
				for id := 0; id < 16; id++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						body(id, mem)
					}()
				}
				wg.Wait()
			},
		},
		{
			name: "combining-net",
			n:    8,
			run: func(t *testing.T, body func(int, Memory)) {
				net := asyncnet.New(asyncnet.Config{Procs: 8, Combining: true})
				defer net.Close()
				var wg sync.WaitGroup
				for id := 0; id < 8; id++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						body(id, PortMemory{Port: net.Port(id)})
					}()
				}
				wg.Wait()
			},
		},
	}
}

func TestCounter(t *testing.T) {
	for _, s := range substrates(t) {
		t.Run(s.name, func(t *testing.T) {
			const perG = 40
			tickets := make([][]int64, s.n)
			s.run(t, func(id int, mem Memory) {
				c := NewCounter(mem, 0)
				for i := 0; i < perG; i++ {
					tickets[id] = append(tickets[id], c.Inc())
				}
			})
			var all []int64
			for _, ts := range tickets {
				all = append(all, ts...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			for i, v := range all {
				if v != int64(i) {
					t.Fatalf("tickets are not a permutation: position %d holds %d", i, v)
				}
			}
		})
	}
}

func TestBarrier(t *testing.T) {
	for _, s := range substrates(t) {
		t.Run(s.name, func(t *testing.T) {
			const rounds = 10
			arrived := make([]atomic.Int64, rounds)
			s.run(t, func(id int, mem Memory) {
				b := NewBarrier(mem, 0, s.n)
				for r := 0; r < rounds; r++ {
					arrived[r].Add(1)
					b.Await()
					if got := arrived[r].Load(); got != int64(s.n) {
						t.Errorf("round %d: participant %d passed the barrier with %d/%d arrivals",
							r, id, got, s.n)
						return
					}
				}
			})
		})
	}
}

func TestQueue(t *testing.T) {
	for _, s := range substrates(t) {
		t.Run(s.name, func(t *testing.T) {
			const perProducer = 30
			producers := s.n / 2
			consumers := s.n - producers
			total := producers * perProducer
			consumed := make(chan int64, total)
			var taken atomic.Int64
			s.run(t, func(id int, mem Memory) {
				q := NewQueue(mem, 100, 8)
				if id < producers {
					for i := 0; i < perProducer; i++ {
						q.Enqueue(int64(id*1000 + i))
					}
					return
				}
				for {
					if taken.Add(1) > int64(total) {
						return
					}
					consumed <- q.Dequeue()
				}
			})
			_ = consumers
			close(consumed)
			perProd := make(map[int64][]int64)
			count := 0
			for v := range consumed {
				perProd[v/1000] = append(perProd[v/1000], v%1000)
				count++
			}
			if count != total {
				t.Fatalf("consumed %d items, want %d", count, total)
			}
			// Global FIFO implies each producer's items leave in order;
			// since consumers may interleave, check each producer's
			// dequeue sequence is a permutation (exactly once each).
			for p, items := range perProd {
				if len(items) != perProducer {
					t.Fatalf("producer %d: %d items consumed", p, len(items))
				}
				seen := make([]bool, perProducer)
				for _, it := range items {
					if it < 0 || it >= perProducer || seen[it] {
						t.Fatalf("producer %d: item %d duplicated or out of range", p, it)
					}
					seen[it] = true
				}
			}
		})
	}
}
