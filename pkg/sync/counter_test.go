package sync_test

import (
	stdsync "sync"
	"testing"

	"combining/internal/core"
	"combining/internal/rmw"
	"combining/internal/word"
	csync "combining/pkg/sync"
)

func TestCounterShardRounding(t *testing.T) {
	for _, tc := range []struct{ k, want int }{{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}} {
		if got := csync.NewCounterShards(tc.k).Shards(); got != tc.want {
			t.Fatalf("NewCounterShards(%d).Shards() = %d, want %d", tc.k, got, tc.want)
		}
	}
}

// TestCounterDifferentialSerialOracle drives concurrent adds with
// per-operation deltas derived from a fixed formula, then replays the same
// multiset of fetch-and-adds through core.SerialReplies: because the Assoc
// family is commutative, the serial oracle's final memory must equal
// Read() no matter how the shards interleaved.  The same deltas are also
// combined pairwise up an explicit rmw.Compose tree — the literal
// combine-at-switch algebra — which must agree with both.
func TestCounterDifferentialSerialOracle(t *testing.T) {
	const goroutines, ops = 64, 500
	c := csync.NewCounterShards(16)
	var wg stdsync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				c.Add(delta(g, i))
			}
		}(g)
	}
	wg.Wait()

	trace := make([]rmw.Mapping, 0, goroutines*ops)
	for g := 0; g < goroutines; g++ {
		for i := 0; i < ops; i++ {
			trace = append(trace, rmw.FetchAdd(delta(g, i)))
		}
	}
	_, final := core.SerialReplies(word.W(0), trace)
	if got := c.Read(); got != final.Val {
		t.Fatalf("Read() = %d, serial oracle final = %d", got, final.Val)
	}
	if got := combineTree(t, trace).Apply(word.W(0)); got.Val != final.Val {
		t.Fatalf("pairwise combining tree yields %d, serial oracle final = %d", got.Val, final.Val)
	}
}

func delta(g, i int) int64 { return int64((g*31+i*7)%23 - 11) }

// combineTree folds a trace pairwise, level by level — the shape of the
// paper's combining network rather than a serial chain.
func combineTree(t *testing.T, ops []rmw.Mapping) rmw.Mapping {
	t.Helper()
	level := ops
	for len(level) > 1 {
		next := make([]rmw.Mapping, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			m, ok := rmw.Compose(level[i], level[i+1])
			if !ok {
				t.Fatalf("fetch-and-adds failed to combine at level size %d", len(level))
			}
			next = append(next, m)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0]
}

// TestCounterAddAllocFree asserts the acceptance criterion: the
// steady-state Add path performs zero allocations.
func TestCounterAddAllocFree(t *testing.T) {
	c := csync.NewCounter()
	for i := 0; i < 1000; i++ {
		c.Add(1) // warm the per-P pool caches
	}
	if avg := testing.AllocsPerRun(10000, func() { c.Add(1) }); avg != 0 {
		t.Fatalf("Add allocates %.4f objects per call, want 0", avg)
	}
}

// TestCounterReadAllocFree: Read combines the shards on its own stack at
// every width NewCounter produces on hosts up to 64 Ps; a wider counter
// still reads right, from the heap.
func TestCounterReadAllocFree(t *testing.T) {
	for _, c := range []*csync.Counter{csync.NewCounter(), csync.NewCounterShards(64), csync.NewCounterShards(256)} {
		for i := 0; i < 1000; i++ {
			c.Add(3)
		}
		var got int64
		avg := testing.AllocsPerRun(1000, func() { got = c.Read() })
		if got != 3000 {
			t.Fatalf("%d shards: Read() = %d, want 3000", c.Shards(), got)
		}
		if c.Shards() <= 64 && avg != 0 {
			t.Fatalf("%d shards: Read allocates %.2f objects per call, want 0", c.Shards(), avg)
		}
	}
}

// TestCounterHotSpot100k is the acceptance-scale soak: 100k goroutines
// hammering one counter, under the race detector in `make check`.  Read
// must equal the final value of core.SerialReplies on the same adds.
func TestCounterHotSpot100k(t *testing.T) {
	const goroutines = 100_000
	c := csync.NewCounter()
	var wg stdsync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			c.Add(int64(g%7 + 1))
		}()
	}
	wg.Wait()
	ops := make([]rmw.Mapping, goroutines)
	for g := range ops {
		ops[g] = rmw.FetchAdd(int64(g%7 + 1))
	}
	_, final := core.SerialReplies(word.W(0), ops)
	if got := c.Read(); got != final.Val {
		t.Fatalf("Read() = %d, serial oracle final = %d", got, final.Val)
	}
}
