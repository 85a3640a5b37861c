package faults

import "combining/internal/stats"

// Values is the fault/recovery counter block shared by every engine's
// snapshot: one value per key of the schema AddValues writes, the key in
// the field's tag.  The cycle engines' shell fills it from its
// Injector/Tracker pair and its crash ledger.
type Values struct {
	Injected       int64 `counter:"faults_injected"`
	DropsFwd       int64 `counter:"drops_fwd"`
	DropsRev       int64 `counter:"drops_rev"`
	StallCycles    int64 `counter:"stall_cycles"`
	MemStallCycles int64 `counter:"mem_stall_cycles"`
	Retries        int64 `counter:"retries"`
	Duplicates     int64 `counter:"duplicates_suppressed"`
	Recovered      int64 `counter:"recovered"`
	DedupHits      int64 `counter:"dedup_hits"`
	Orphans        int64 `counter:"orphan_replies"`

	// Adversarial-delivery block: link reordering, network-born
	// duplicates and corrupted payloads dropped at the terminal links.
	ReorderedHeld  int64 `counter:"reordered_held"`
	DupInjected    int64 `counter:"dup_injected"`
	CorruptDropped int64 `counter:"corrupt_dropped"`

	// Crash–restart block (the cycle engines' crash ledger): crash and
	// rejoin transitions, operations flushed from crashed queues, wait
	// buffers and rolled-back state, and how many of those the retry
	// machinery later re-drove to completion.  Structurally zero under a
	// plan without crash windows.
	Crashes      int64 `counter:"crashes"`
	Restores     int64 `counter:"restores"`
	Replayed     int64 `counter:"replayed_requests"`
	LostInFlight int64 `counter:"lost_in_flight"`
	CrashCycles  int64 `counter:"crash_cycles"`
}

// AddValues writes the shared fault-counter schema into a snapshot.  Every
// engine publishes the same key set so tooling (cmd/check, the bench
// reports) reads one schema regardless of transport.
func AddValues(snap *stats.Snapshot, v Values) { stats.Render(v, snap.Counters) }

// CounterKeys lists the keys AddValues writes, sorted — the fault half of
// the snapshot-schema parity contract.
func CounterKeys() []string { return stats.Render(Values{}, nil) }
