package memory

import (
	"testing"

	"combining/internal/core"
	"combining/internal/rmw"
	"combining/internal/word"
)

// leafReq builds a fresh single-leaf request as fault-mode transports issue
// it: its one leaf is implicit, its source the request's own.
func leafReq(id word.ReqID, addr word.Addr, op rmw.Mapping, src word.ProcID) core.Request {
	return core.NewRequest(id, addr, op, src)
}

// retry returns the request's k-th retransmission: same id and leaves,
// bumped attempt.
func retry(r core.Request, k uint32) core.Request {
	r.Attempt = k
	return r
}

// combined merges two leaf requests the way a fault-mode switch would,
// keeping the books, so the message reaching memory carries both
// representation leaves.
func combined(a, b core.Request) core.Request {
	c, _, ok := core.Combine(a, b, core.Policy{Bookkeeping: true})
	if !ok {
		panic("dedup_test: requests did not combine")
	}
	return c
}

// TestReplyCacheDedup is the table-driven exactly-once suite: each case
// plays a sequence of requests (originals, retransmits, combined copies)
// into one cache-armed module and checks every reply value, the dedup-hit
// count, and the final cell — the module-side contract that keeps
// non-idempotent RMWs exactly-once under retransmission.
func TestReplyCacheDedup(t *testing.T) {
	const addr = word.Addr(4)
	a := leafReq(1, addr, rmw.FetchAdd(10), 0)
	b := leafReq(2, addr, rmw.FetchAdd(100), 1)
	c := leafReq(3, addr, rmw.FetchAdd(1000), 2)

	type step struct {
		req core.Request
		// want maps each leaf id to the value its operation must have
		// seen; the reply's top-level Val must equal want[req.ID].
		want map[word.ReqID]int64
	}
	cases := []struct {
		name      string
		steps     []step
		dedupHits int64
		final     int64
	}{
		{
			// The reply was delivered, then a raced retransmit arrives:
			// pure cache hit, no second execution.
			name: "retransmit after delivered reply",
			steps: []step{
				{a, map[word.ReqID]int64{1: 0}},
				{retry(a, 1), map[word.ReqID]int64{1: 0}},
			},
			dedupHits: 1,
			final:     10,
		},
		{
			// The first copy executed but its reply was lost; other
			// traffic moved the cell before the retransmit arrives.  The
			// cache must answer with the value the lost execution saw,
			// not the current cell.
			name: "retransmit after lost reply, cell moved",
			steps: []step{
				{a, map[word.ReqID]int64{1: 0}},
				{b, map[word.ReqID]int64{2: 10}},
				{retry(a, 1), map[word.ReqID]int64{1: 0}},
			},
			dedupHits: 1,
			final:     110,
		},
		{
			// A combined message whose leaves mix one already-executed
			// request and one fresh one: the cached leaf is skipped, the
			// fresh leaf executes — each exactly once.
			name: "combined copy mixing cached and fresh leaves",
			steps: []step{
				{a, map[word.ReqID]int64{1: 0}},
				{retry(combined(a, c), 1), map[word.ReqID]int64{1: 0, 3: 10}},
			},
			dedupHits: 1,
			final:     1010,
		},
		{
			// A stale retransmit arriving long after the issuer fenced
			// and moved on (the cross-epoch case): still answered from
			// the cache, still no re-execution.
			name: "retransmit across fence epochs",
			steps: []step{
				{a, map[word.ReqID]int64{1: 0}},
				{b, map[word.ReqID]int64{2: 10}},
				{c, map[word.ReqID]int64{3: 110}},
				{retry(a, 3), map[word.ReqID]int64{1: 0}},
				{retry(b, 1), map[word.ReqID]int64{2: 10}},
			},
			dedupHits: 2,
			final:     1110,
		},
		{
			// Repeated retransmits of the same request each hit the
			// cache; the operation still executes once.
			name: "many retransmits, one execution",
			steps: []step{
				{a, map[word.ReqID]int64{1: 0}},
				{retry(a, 1), map[word.ReqID]int64{1: 0}},
				{retry(a, 2), map[word.ReqID]int64{1: 0}},
				{retry(a, 3), map[word.ReqID]int64{1: 0}},
			},
			dedupHits: 3,
			final:     10,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod := NewModule(WithReplyCache())
			for i, st := range tc.steps {
				rep := mod.Do(st.req)
				if rep.ID != st.req.ID {
					t.Fatalf("step %d: reply id %d, want %d", i, rep.ID, st.req.ID)
				}
				if want := st.want[st.req.ID]; rep.Val.Val != want {
					t.Fatalf("step %d: reply value %d, want %d", i, rep.Val.Val, want)
				}
				for id, want := range st.want {
					got, ok := rep.Leaf(id)
					if !ok {
						t.Fatalf("step %d: reply missing leaf %d", i, id)
					}
					if got.Val != want {
						t.Fatalf("step %d: leaf %d value %d, want %d", i, id, got.Val, want)
					}
				}
			}
			if mod.DedupHitCount() != tc.dedupHits {
				t.Fatalf("dedup hits = %d, want %d", mod.DedupHitCount(), tc.dedupHits)
			}
			if got := mod.Peek(addr).Val; got != tc.final {
				t.Fatalf("final cell = %d, want %d", got, tc.final)
			}
		})
	}
}

// TestReplyCacheSwapExactlyOnce: a non-idempotent swap retransmitted after
// delivery must not clobber a later writer — the failure the cache exists
// to prevent.
func TestReplyCacheSwapExactlyOnce(t *testing.T) {
	const addr = word.Addr(0)
	mod := NewModule(WithReplyCache())

	s1 := leafReq(1, addr, rmw.SwapOf(111), 0)
	s2 := leafReq(2, addr, rmw.SwapOf(222), 1)
	if rep := mod.Do(s1); rep.Val.Val != 0 {
		t.Fatalf("swap1 saw %d, want 0", rep.Val.Val)
	}
	if rep := mod.Do(s2); rep.Val.Val != 111 {
		t.Fatalf("swap2 saw %d, want 111", rep.Val.Val)
	}
	// Without the cache this retransmit would write 111 over 222.
	if rep := mod.Do(retry(s1, 1)); rep.Val.Val != 0 {
		t.Fatalf("retransmitted swap1 saw %d, want its original 0", rep.Val.Val)
	}
	if got := mod.Peek(addr).Val; got != 222 {
		t.Fatalf("cell = %d, want 222 (retransmit re-executed a swap)", got)
	}
}

// TestStaleCopyBelowFloor: once a processor's delivered floor passes a
// leaf, the reply cache forgets it — at the next checkpoint, or without
// checkpoints once the cache has doubled — and a stale copy of it arriving
// later is skipped, counted as a cache hit, and does not re-execute.  A
// combined copy executes its live leaf only.  Under the nodedup canary
// nothing is skipped.
func TestStaleCopyBelowFloor(t *testing.T) {
	const addr = word.Addr(4)
	a := leafReq(1, addr, rmw.FetchAdd(10), 0)
	b := leafReq(2, addr, rmw.FetchAdd(100), 1)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"checkpoints", []Option{WithCheckpoints()}},
		{"no checkpoints", []Option{WithReplyCache()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			floors := make([]word.ReqID, 2)
			m := NewModule(append(tc.opts, WithDeliveredFloors(floors))...)
			m.Do(a)
			floors[0] = 2 // processor 0's id 1 has been delivered
			if m.ckpt {
				m.Checkpoint()
			} else {
				// Fill the cache to its prune size with another processor's
				// live leaves.
				for id := word.ReqID(101); m.replyCache.len() < minPrune-1; id += 2 {
					m.Do(leafReq(id, addr+1, rmw.FetchAdd(1), 1))
				}
				m.Do(leafReq(999, addr+1, rmw.FetchAdd(1), 1))
			}
			if _, ok := m.replyCache.get(a.ID); ok {
				t.Fatal("a leaf below its processor's floor is still cached after a prune")
			}
			hits := m.DedupHits
			m.Do(retry(a, 1))
			if got := m.Peek(addr).Val; got != 10 || m.DedupHits != hits+1 {
				t.Fatalf("a stale copy below its floor: cell %d, dedup hits %d → %d; want 10 and one hit", got, hits, m.DedupHits)
			}
			rep := m.Do(combined(a, b)) // a stale original met b on the way
			if got := m.Peek(addr).Val; got != 110 || m.DedupHits != hits+2 {
				t.Fatalf("a combined copy: cell %d, dedup hits %d; want 110 and one more hit", got, m.DedupHits)
			}
			if v, _ := rep.Leaf(b.ID); v.Val != 10 {
				t.Fatalf("the live leaf saw %d, want 10", v.Val)
			}
		})
	}
	t.Run("nodedup canary", func(t *testing.T) {
		floors := []word.ReqID{2}
		m := NewModule(WithReplyCache(), WithDeliveredFloors(floors), WithNoDedupCanary())
		m.Do(a)
		m.Do(retry(a, 1))
		if got := m.Peek(addr).Val; got != 20 {
			t.Fatalf("canary: cell %d after a stale copy, want 20 (the planted double execution)", got)
		}
	})
}
