package engine

import "combining/internal/stats"

// Counters is the canonical counter schema every engine's Snapshot emits.
// Each engine fills the fields it measures and leaves the rest zero, so
// all four transports publish the identical counter key set — the parity
// contract the differential schema test asserts.  A structurally-zero key
// (e.g. bus_ops on the omega network) reads as "this engine has no such
// event", which downstream tooling can subtract without first sniffing
// which engine produced the snapshot.  Fault/recovery counters are a
// separate block appended by internal/faults when fault injection is
// configured; gauges and histograms stay engine-specific.
type Counters struct {
	Cycles           int64 `counter:"cycles"`            // simulated cycles (0 for the goroutine engine)
	Issued           int64 `counter:"issued"`            // requests issued by processors
	Completed        int64 `counter:"completed"`         // replies delivered back to their issuer
	HotCompleted     int64 `counter:"hot_completed"`     // completions against the hot-spot cell
	ColdCompleted    int64 `counter:"cold_completed"`    // completions against background addresses
	Replies          int64 `counter:"replies"`           // replies absorbed at ports (== completed)
	Combines         int64 `counter:"combines"`          // requests absorbed by combining en route
	CombineRejects   int64 `counter:"combine_rejects"`   // combines forfeited to a full wait buffer
	FwdHops          int64 `counter:"fwd_hops"`          // forward switch/router traversals
	RevHops          int64 `counter:"rev_hops"`          // reverse switch/router traversals
	FwdSlots         int64 `counter:"fwd_slots"`         // forward payload slots moved (k-word transfers)
	RevSlots         int64 `counter:"rev_slots"`         // reverse payload slots moved
	MemRequests      int64 `counter:"mem_requests"`      // requests handed to memory modules
	MemAcks          int64 `counter:"mem_acks"`          // operations serviced by memory modules
	MemOps           int64 `counter:"mem_ops"`           // node-local memory operations (direct engines)
	BankOps          int64 `counter:"bank_ops"`          // bank operations (bus engine)
	BusOps           int64 `counter:"bus_ops"`           // bus grants (bus engine)
	HOLBlocked       int64 `counter:"hol_blocked"`       // head-of-line blocking events (bus engine)
	CreditStalls     int64 `counter:"credit_stalls"`     // sends stalled on exhausted credit (async engine)
	SaturationCycles int64 `counter:"saturation_cycles"` // cycles the saturation detector held admission
	HoldsRev         int64 `counter:"holds_rev"`         // reverse transfers held by exhausted credit
	HoldsMem         int64 `counter:"holds_mem"`         // memory-input holds (full module queue)
	HoldsMemOut      int64 `counter:"holds_mem_out"`     // memory-output holds (reverse credit at the exit)
	WatchdogTrips    int64 `counter:"watchdog_trips"`    // forward-progress watchdog expirations
	Checkpoints      int64 `counter:"checkpoints"`       // module checkpoints committed under a crash plan
}

// Map renders the canonical schema; every key is always present.
func (c Counters) Map() map[string]int64 {
	m := make(map[string]int64)
	stats.Render(c, m)
	return m
}

// CounterKeys returns the canonical key set, sorted; the schema-parity
// test compares every engine's Snapshot against it.
func CounterKeys() []string { return stats.Render(Counters{}, nil) }
