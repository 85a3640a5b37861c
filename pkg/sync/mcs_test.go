package sync_test

import (
	stdsync "sync"
	"testing"

	"combining/internal/core"
	"combining/internal/rmw"
	"combining/internal/word"
	csync "combining/pkg/sync"
)

// TestMCSLockMutualExclusion hammers a non-atomic counter from many
// goroutines through the pooled Lock/Unlock API; any mutual-exclusion hole
// shows up as a lost update (and as a race under -race).
func TestMCSLockMutualExclusion(t *testing.T) {
	const goroutines, ops = 128, 200
	var l csync.MCSLock
	var v int64 // deliberately non-atomic: the lock is the only protection
	var wg stdsync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				q := l.Lock()
				v++
				l.Unlock(q)
			}
		}()
	}
	wg.Wait()
	if v != goroutines*ops {
		t.Fatalf("final counter %d, want %d — mutual exclusion violated", v, goroutines*ops)
	}
}

// TestMCSLockExplicitQNodes exercises the Acquire/Release API with
// caller-owned nodes, including reuse of one node across acquisitions.
func TestMCSLockExplicitQNodes(t *testing.T) {
	const goroutines, ops = 64, 100
	var l csync.MCSLock
	var v int64
	var wg stdsync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var q csync.QNode // one node, reused every acquisition
			for i := 0; i < ops; i++ {
				l.Acquire(&q)
				v++
				l.Release(&q)
			}
		}()
	}
	wg.Wait()
	if v != goroutines*ops {
		t.Fatalf("final counter %d, want %d", v, goroutines*ops)
	}
}

// TestMCSLockDifferentialSerialOracle is the paper-side validation: each
// critical section performs a split read-modify-write (read the old value,
// add a delta) and records the (delta, old) pair in acquisition order.
// Lemma 4.1 says a correct serialization behaves as if the RMWs executed
// consecutively at memory, so replaying the recorded deltas as a serial
// fetch-and-add trace through core.SerialReplies must reproduce every
// observed old value and the final cell.
func TestMCSLockDifferentialSerialOracle(t *testing.T) {
	const goroutines, ops = 64, 150
	type rec struct{ delta, old int64 }
	var (
		l    csync.MCSLock
		v    int64
		recs = make([]rec, 0, goroutines*ops)
		wg   stdsync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				delta := int64((g*31+i*7)%19 - 9)
				q := l.Lock()
				recs = append(recs, rec{delta, v}) // protected by the lock
				v += delta
				l.Unlock(q)
			}
		}(g)
	}
	wg.Wait()

	ops2 := make([]rmw.Mapping, len(recs))
	for i, r := range recs {
		ops2[i] = rmw.FetchAdd(r.delta)
	}
	replies, final := core.SerialReplies(word.W(0), ops2)
	for i, r := range recs {
		if replies[i].Val != r.old {
			t.Fatalf("critical section %d observed %d, serial oracle says %d", i, r.old, replies[i].Val)
		}
	}
	if final.Val != v {
		t.Fatalf("final value %d, serial oracle says %d", v, final.Val)
	}
}

// TestMCSLockHotSpot100k is the acceptance-scale soak: 100k goroutines,
// one critical section each, under the race detector in `make check`.
// Every critical section's observed old value is checked against the
// Lemma 4.1 serial oracle on the same fetch-and-add trace.
func TestMCSLockHotSpot100k(t *testing.T) {
	const goroutines = 100_000
	var l csync.MCSLock
	var v int64
	olds := make([]int64, 0, goroutines)
	var wg stdsync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			q := l.Lock()
			olds = append(olds, v) // protected by the lock
			v++
			l.Unlock(q)
		}()
	}
	wg.Wait()
	if v != goroutines {
		t.Fatalf("final counter %d, want %d", v, goroutines)
	}
	ops := make([]rmw.Mapping, len(olds))
	for i := range ops {
		ops[i] = rmw.FetchAdd(1)
	}
	replies, _ := core.SerialReplies(word.W(0), ops)
	for i, old := range olds {
		if old != replies[i].Val {
			t.Fatalf("critical section %d observed %d, serial oracle says %d", i, old, replies[i].Val)
		}
	}
}
