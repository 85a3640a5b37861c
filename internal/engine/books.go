package engine

import (
	"fmt"

	"combining/internal/faults"
	"combining/internal/word"
)

// The shell's books: what the step frame observes once per cycle about §1's
// two failure modes — a queue tree that fills back from a hot module
// (tree saturation) and a machine that stops moving (the watchdog) — and
// the crash ledger a crash plan keeps.  With every queue bounded and
// upstream holds in place of unbounded appends, the engines degrade by
// backpressure instead of ballooning; these books observe that degradation
// and guard against the one remaining catastrophic outcome, no progress at
// all.

// watchdog declares livelock/deadlock when in-flight work makes no progress
// for limit cycles (DefaultWatchdogCycles on every machine).  The step
// epilogue feeds it once per cycle with the monotone progress signature
// (any message movement changes it) and the requests in flight
// (Shell.InFlight); a quiescent machine (nothing in flight) never trips.
type watchdog struct {
	limit      int64
	lastSig    int64
	lastChange int64
	// tripCycle is the cycle the watchdog tripped, 0 until it does: a trip
	// comes at least limit cycles after cycle 0.
	tripCycle int64
}

// observe feeds one cycle: sig is the machine's progress signature, inflight
// counts the requests in flight.  observe returns true exactly once, on the
// cycle the watchdog trips.
func (w *watchdog) observe(cycle, sig int64, inflight int) bool {
	if w.tripCycle != 0 {
		return false
	}
	if sig != w.lastSig || inflight == 0 {
		w.lastSig = sig
		w.lastChange = cycle
		return false
	}
	if cycle-w.lastChange < w.limit {
		return false
	}
	w.tripCycle = cycle
	return true
}

// tripped reports whether the watchdog has declared a stall.
func (w *watchdog) tripped() bool { return w.tripCycle != 0 }

// saturation counts tree-saturation cycles: the wiring's predicate reports,
// once per cycle, whether some bounded queue on the path to memory was
// full, and the monitor keeps the total, the current streak of consecutive
// saturated cycles and the longest streak seen.  Transiently full queues
// are normal under bursts; a long streak is the tree-saturation regime.
type saturation struct {
	cycles, streak, maxStreak int64
}

// observe feeds one cycle's saturation bit.
func (s *saturation) observe(full bool) {
	if !full {
		s.streak = 0
		return
	}
	s.cycles++
	s.streak++
	s.maxStreak = max(s.maxStreak, s.streak)
}

// stallReport formats the watchdog diagnostic: where the machine stood when
// progress stopped.  detail is the machine's queue snapshot; the caller's
// harness supplies the replay seed (every soak prints it with the failure).
// crashed, when non-empty, names the components inside crash windows at the
// trip cycle — a restarting module cannot trip the watchdog (dead time
// counts as injected progress), so a trip during a crash window points at
// what stayed stuck after the flush.
func stallReport(engine string, wd *watchdog, inflight int, crashed, detail string) string {
	site := ""
	if crashed != "" {
		site = fmt.Sprintf("\ncrashed sites: %s", crashed)
	}
	return fmt.Sprintf("%s: watchdog tripped at cycle %d: %d in flight, no progress for %d cycles%s\n%s",
		engine, wd.tripCycle, inflight, wd.limit, site, detail)
}

// ledger is the crash–restart accounting of a machine under a crash plan.
// The shell owns the mechanics — flushing a crashed station's queues and
// wait buffer, rolling a module back to its last checkpoint
// (memory.Module.Crash), re-driving lost operations through the
// exactly-once retry machinery — and the ledger the counts: crash and
// restore transitions, the set of in-flight operations lost to a flush, and
// how many of those the retransmit path later re-drove to completion.
//
// Why checkpoint + retry preserves exactly-once semantics: a module in
// checkpoint mode withholds every reply until the checkpoint covering its
// execution commits (output commit, memory.Module).  A crash therefore
// rolls back only operations whose replies never escaped — the issuing
// processors are still waiting, their retry trackers still hold the
// requests, and the capped-backoff retransmits re-execute them at the
// module's (single) recovered serialization point.  Operations whose
// replies did escape are committed by construction; their retransmits hit
// the committed reply cache and are answered without re-execution.  No
// completion is lost and none duplicates — the same M2 argument as the
// message-loss plans, extended to component loss.
//
// The ledger keeps no set of lost ids: a lost operation is marked on its
// box in the retry tracker (faults.Tracker.MarkLost), and the delivery
// that returns a marked box counts a replay in the delivering lane
// (Shard.Replayed), so the ports of different processors share nothing
// here.  The ledger itself is written only by the step prologue, before the
// sweep (updateMasks); no hop or port touches it, and Tick reads only the
// period, fixed at Init.
type ledger struct {
	// every is the checkpoint period in cycles.
	every int64

	crashes, restores int64
	// lostN counts the leaf ids a crash flushed while the tracker still
	// owed them a delivery, each once.
	lostN int64
}

// checkpointDue reports whether a checkpoint commits this cycle — a pure
// function of the cycle so every Workers width checkpoints identically.
func (l *ledger) checkpointDue(cycle int64) bool { return cycle > 0 && cycle%l.every == 0 }

// noteLost records leaf request ids flushed by a crash (queued messages,
// wait-buffer trees, rolled-back executions, withheld replies) by marking
// their boxes in the tracker.  Each id counts once however many components
// lose copies of it, and only while the tracker still owes it a delivery —
// a flushed duplicate of an operation whose original reply already arrived
// is redundant state, not lost work, and will never be re-driven.
func (l *ledger) noteLost(trk *faults.Tracker, ids []word.ReqID) {
	for _, id := range ids {
		if trk.MarkLost(id) {
			l.lostN++
		}
	}
}
