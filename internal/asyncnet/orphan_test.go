package asyncnet

import (
	"testing"

	"combining/internal/engine"
	"combining/internal/faults"
)

// Regression test for the orphan_replies drift: Snapshot used to hardcode
// the key to zero, so replies discarded at shutdown (fault-mode retransmit
// residue racing Close) were invisible.  Drive the reverse wiring directly:
// with the port's reply channel full and the net closed, a reverse send
// must report non-delivery and the discard must surface in the snapshot.
func TestOrphanRepliesCounted(t *testing.T) {
	// A zero plan injects nothing but enables the fault/recovery schema;
	// ChanCap 1 makes the reply channel trivially fillable.
	net := New(Config{Procs: 4, Window: 1, ChanCap: 1, Faults: &faults.Plan{Seed: 1}})

	// Stage-0 switch 0, input port 0 delivers to a processor's reply
	// channel (capacity 1): the first send lands, the second would block —
	// after Close it must be discarded and counted instead.
	sw := net.switches[0]
	sw.revOut[0](engine.Rev{})
	if got := net.orphans.Load(); got != 0 {
		t.Fatalf("orphans after deliverable send = %d, want 0", got)
	}

	net.Close()
	sw.revOut[0](engine.Rev{})
	sw.revOut[0](engine.Rev{})

	snap := net.Snapshot()
	got, ok := snap.Counters["orphan_replies"]
	if !ok {
		t.Fatal("snapshot missing orphan_replies")
	}
	if got != 2 {
		t.Fatalf("orphan_replies = %d, want 2", got)
	}
}
