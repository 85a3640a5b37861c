package coord

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// parties is the participant count every test runs.
const parties = 16

// run runs body on parties goroutines over one native memory, each
// participant building its own view of the shared cells. The tests
// name their subtests after that memory.
func run(body func(id int, mem Memory)) {
	mem := NewNative()
	var wg sync.WaitGroup
	for id := 0; id < parties; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(id, mem)
		}()
	}
	wg.Wait()
}

func TestCounter(t *testing.T) {
	t.Run("native", func(t *testing.T) {
		const perG = 40
		tickets := make([][]int64, parties)
		run(func(id int, mem Memory) {
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

func TestBarrier(t *testing.T) {
	t.Run("native", func(t *testing.T) {
		const rounds = 10
		arrived := make([]atomic.Int64, rounds)
		run(func(id int, mem Memory) {
			b := NewBarrier(mem, 0, parties)
			for r := 0; r < rounds; r++ {
				arrived[r].Add(1)
				b.Await()
				if got := arrived[r].Load(); got != int64(parties) {
					t.Errorf("round %d: participant %d passed the barrier with %d/%d arrivals",
						r, id, got, parties)
					return
				}
			}
		})
	})
}

func TestQueue(t *testing.T) {
	t.Run("native", func(t *testing.T) {
		const perProducer = 30
		producers := parties / 2
		total := producers * perProducer
		consumed := make(chan int64, total)
		var taken atomic.Int64
		run(func(id int, mem Memory) {
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
