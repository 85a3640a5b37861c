package sync

import (
	"runtime"
	stdsync "sync"
	"sync/atomic"
	"testing"
	"time"
)

// withCensus installs the counter block on a barrier nobody is using yet.
func withCensus(b *Barrier) *census {
	c := &census{swaps: make([][]atomic.Int64, len(b.nodes)), awaits: make([]atomic.Int64, b.n)}
	for r := range b.nodes {
		c.swaps[r] = make([]atomic.Int64, len(b.nodes[r]))
	}
	b.census = c
	return c
}

// TestBarrierEpisodeCensus counts what an episode costs instead of arguing
// it: exactly two swaps on every node that joins two subtrees and none on a
// bye, exactly n−1 wake-up stores, and no participant waiting more than once
// — O(1) remote references per node and per participant, whatever the
// arrival order.  A second barrier fences each episode off so participant 0
// reads the counters while nobody is inside the first.
func TestBarrierEpisodeCensus(t *testing.T) {
	const episodes = 200
	for _, n := range []int{2, 3, 5, 8, 31, 64} {
		b, fence := NewBarrier(n), NewBarrier(n)
		c := withCensus(b)
		check := func(ep int64) {
			for r := range b.nodes {
				for i := range b.nodes[r] {
					want := 2 * ep
					if (2*i+1)<<r >= n {
						want = 0
					}
					if got := c.swaps[r][i].Load(); got != want {
						t.Errorf("width %d after %d episodes: node %d of level %d took %d swaps, want %d", n, ep, i, r, got, want)
					}
				}
			}
			if got, want := c.sets.Load(), ep*int64(n-1); got != want {
				t.Errorf("width %d after %d episodes: %d wake-up stores, want %d", n, ep, got, want)
			}
			var waited int64
			for w := range c.awaits {
				waited += c.awaits[w].Load()
			}
			if want := ep * int64(n-1); waited != want {
				t.Errorf("width %d after %d episodes: %d waits, want %d (all but the last at the root)", n, ep, waited, want)
			}
		}
		var wg stdsync.WaitGroup
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for ep := int64(1); ep <= episodes; ep++ {
					before := c.awaits[w].Load()
					b.Wait(w)
					if a := c.awaits[w].Load() - before; a > 1 {
						t.Errorf("width %d episode %d: participant %d waited %d times", n, ep, w, a)
					}
					fence.Wait(w)
					if w == 0 && !t.Failed() {
						check(ep)
					}
					fence.Wait(w)
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestBarrierEpisodeNumbersStartOver pins the one case the episode numbers
// leave open: a participant that last waited in episode 2, then arrived last
// for a whole run of numbers, and waits again in the next episode 2.  Its
// flag still says 2 unless it zeroed it when its numbers started over, and
// then it leaves the barrier before its peer has arrived.  Width 2; "after
// the other" is read off the node, so the order is exact.
func TestBarrierEpisodeNumbersStartOver(t *testing.T) {
	b := NewBarrier(2)
	for w := range b.local {
		b.local[w].episode = episodeEnd - 3
	}
	b.wake[1].v.Init(2)
	nd := &b.nodes[0][0].v
	// Episodes end−2, end−1 and 1: participant 1 arrives last.  Episode 2:
	// first.  Episode 3: last again.
	firstIn := []int{0, 0, 0, 1, 0}
	var phase [2]atomic.Int64
	var wg stdsync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for e, first := range firstIn {
				if w != first {
					for nd.Load() == 0 {
						runtime.Gosched()
					}
				}
				phase[w].Store(int64(e + 1))
				b.Wait(w)
				if p := phase[1-w].Load(); p < int64(e+1) {
					t.Errorf("participant %d left episode %d of the script with its peer still in %d", w, e+1, p)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the script did not finish")
	}
	if got := b.local[0].episode; got != 3 {
		t.Fatalf("episode number %d after the script, want 3", got)
	}
}
