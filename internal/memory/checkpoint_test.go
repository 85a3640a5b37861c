package memory

import (
	"testing"

	"combining/internal/rmw"
	"combining/internal/word"
)

// Checkpoint/crash–restart mode (WithCheckpoints): replies are withheld
// until the checkpoint covering their execution commits (output commit),
// a crash rolls cells and the reply cache back to the last checkpoint, and
// committed leaves survive a crash so retransmits are answered from the
// cache without re-executing.

// drain ticks the module n cycles and returns every reply that escaped.
func drain(m *Module, n int) []word.ReqID {
	var out []word.ReqID
	for i := 0; i < n; i++ {
		if rep, ok := m.Tick(); ok {
			out = append(out, rep.ID)
		}
	}
	return out
}

func TestCheckpointOutputCommit(t *testing.T) {
	m := NewModule(WithCheckpoints())
	m.Enqueue(req(1, 3, rmw.FetchAdd(5)))
	// Service time 1: the operation executes on the first tick, but the
	// reply must stay inside the module until a checkpoint commits it.
	if got := drain(m, 10); len(got) != 0 {
		t.Fatalf("replies escaped before checkpoint: %v", got)
	}
	if got := m.Peek(3).Val; got != 5 {
		t.Fatalf("cell = %d after execution, want 5", got)
	}
	// A withheld reply is no work for a tick; the checkpoint releases it.
	if got := m.Work(); got != 0 {
		t.Fatalf("Work = %d with only a withheld reply, want 0", got)
	}
	if released := m.Checkpoint(); released != 1 {
		t.Fatalf("Checkpoint released %d replies, want 1", released)
	}
	got := drain(m, 10)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("after checkpoint got replies %v, want [1]", got)
	}
	if m.Work() != 0 || m.Checkpoint() != 0 {
		t.Fatal("a reply was left behind after the drain")
	}
}

// TestCheckpointReleasesOnePerTick: released replies drain one per Tick, and
// Work counts the queue and the released replies — each request served into
// the withheld lowers it, the checkpoint raises it by what it released, each
// emerging reply lowers it.
func TestCheckpointReleasesOnePerTick(t *testing.T) {
	m := NewModule(WithCheckpoints())
	for i := 1; i <= 3; i++ {
		m.Enqueue(req(word.ReqID(i), 0, rmw.FetchAdd(1)))
	}
	for want := 2; want >= 0; want-- {
		if drain(m, 1); m.Work() != want {
			t.Fatalf("Work = %d after a request was served, want %d", m.Work(), want)
		}
	}
	if released := m.Checkpoint(); released != 3 || m.Work() != 3 {
		t.Fatalf("Checkpoint released %d, Work %d; want 3 and 3", released, m.Work())
	}
	// One committed reply per Tick: the engines' one-reply-per-module-
	// per-cycle contract.
	for i := 1; i <= 3; i++ {
		rep, ok := m.Tick()
		if !ok || rep.ID != word.ReqID(i) || m.Work() != 3-i {
			t.Fatalf("tick %d: got (%v, %v) and Work %d, want reply %d and Work %d", i, rep.ID, ok, m.Work(), i, 3-i)
		}
	}
	if _, ok := m.Tick(); ok {
		t.Fatal("reply escaped after the releasable queue drained")
	}
}

func TestCrashRollsBackToLastCheckpoint(t *testing.T) {
	m := NewModule(WithCheckpoints())
	// Committed prefix: id 1 adds 10, checkpointed.
	m.Enqueue(req(1, 7, rmw.FetchAdd(10)))
	drain(m, 3)
	m.Checkpoint()
	drain(m, 3)
	// Uncommitted suffix: id 2 adds 100, never checkpointed.
	m.Enqueue(req(2, 7, rmw.FetchAdd(100)))
	drain(m, 3)
	if got := m.Peek(7).Val; got != 110 {
		t.Fatalf("cell = %d before crash, want 110", got)
	}

	lost := m.Crash()
	if len(lost) != 1 || lost[0] != 2 {
		t.Fatalf("Crash lost %v, want [2]", lost)
	}
	if got := m.Peek(7).Val; got != 10 {
		t.Fatalf("cell = %d after crash, want rollback to 10", got)
	}

	// Retransmit of the committed leaf: answered from the surviving cache
	// with its original old value, without re-executing.
	rep := m.Do(req(1, 7, rmw.FetchAdd(10)))
	if rep.Val.Val != 0 {
		t.Fatalf("retransmit of committed leaf saw %d, want cached 0", rep.Val.Val)
	}
	if m.DedupHits != 1 {
		t.Fatalf("DedupHits = %d, want 1", m.DedupHits)
	}
	// Retransmit of the rolled-back leaf: re-executes against the restored
	// cell and sees the same old value the lost execution saw.
	rep = m.Do(req(2, 7, rmw.FetchAdd(100)))
	if rep.Val.Val != 10 {
		t.Fatalf("re-driven leaf saw %d, want 10", rep.Val.Val)
	}
	if got := m.Peek(7).Val; got != 110 {
		t.Fatalf("cell = %d after recovery, want 110", got)
	}
}

func TestCrashFlushesQueueAndWithheldReplies(t *testing.T) {
	m := NewModule(WithCheckpoints(), WithServiceTime(2))
	// id 1 executed but its reply is still withheld; ids 2, 3 queued.
	m.Enqueue(req(1, 0, rmw.FetchAdd(1)))
	drain(m, 2)
	m.Enqueue(req(2, 0, rmw.FetchAdd(1)))
	m.Enqueue(req(3, 0, rmw.FetchAdd(1)))

	lost := m.Crash()
	want := map[word.ReqID]bool{1: true, 2: true, 3: true}
	if len(lost) != len(want) {
		t.Fatalf("Crash lost %v, want ids 1..3", lost)
	}
	for _, id := range lost {
		if !want[id] {
			t.Fatalf("Crash lost unexpected id %d (all: %v)", id, lost)
		}
	}
	if got := m.Peek(0).Val; got != 0 {
		t.Fatalf("cell = %d after crash, want 0", got)
	}
	if work, withheld := m.Work(), m.Checkpoint(); work != 0 || withheld != 0 {
		t.Fatalf("volatile state survived the crash: work %d, withheld %d", work, withheld)
	}
}

func TestCheckpointIdempotentWithoutMode(t *testing.T) {
	m := NewModule(WithReplyCache())
	m.Enqueue(req(1, 0, rmw.FetchAdd(1)))
	drain(m, 2)
	m.Checkpoint() // no-op outside checkpoint mode
	if got := m.Crash(); got != nil {
		t.Fatalf("Crash on a non-checkpointed module lost %v, want nil", got)
	}
	if got := m.Peek(0).Val; got != 1 {
		t.Fatalf("cell = %d, want 1 (no rollback without checkpoint mode)", got)
	}
}
