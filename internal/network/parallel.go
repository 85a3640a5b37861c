package network

// Parallel stepper for the staged engine (Config.Workers > 1): each cycle's
// switch/module sweeps run as barrier-separated phases on an internal/par
// pool, with the work of every phase partitioned into conflict groups —
// sets of switches (or modules) that touch overlapping machine state.
// Groups are spread across workers; within a group the owning worker
// replays the exact serial rotation order, so the machine state after each
// phase is identical to the single-threaded stepper.  The group shapes per
// phase:
//
//   reverse stage 0     each switch alone (delivers only to processors;
//                       deliveries buffer per rotation slot and commit
//                       serially, because injectors are single-goroutine)
//   reverse stage ≥ 1   switches sharing a previous-stage switch —
//                       engine.RevGroups, derived from the wiring at
//                       construction (for omega, the radix contiguous
//                       switches DESIGN.md §6 derives analytically)
//   memory tick         radix modules behind one last-stage switch
//                       (wiring-independent: output line L is module L)
//   forward stage k−1   each switch alone (owns its radix modules and
//                       their metadata shards)
//   forward stage < k−1 switches sharing a next-stage switch —
//                       engine.FwdGroups (for omega, the radix switches
//                       congruent mod n/radix²)
//
// Mutable state a phase shares across groups is commutative: stats go to
// per-worker shards merged (sum / max) after the phases, and the fault
// injector's counters are atomic with purely hash-derived decisions.

import (
	"sort"

	"combining/internal/engine"
	"combining/internal/par"
)

// netShard is one worker's private slice of the per-cycle statistics — the
// fabric's and, in rim, the shell's — merged by mergeShards after the
// phases.  The trailing
// pad keeps adjacent shards off one cache line: the shards live in a
// contiguous slice and every worker writes its own on every phase, so
// unpadded neighbors would false-share at the boundaries.
type netShard struct {
	st  Stats
	rim engine.Shard
	_   [64]byte
}

// delivery is a stage-0 reply buffered during the parallel reverse phase
// for the serial worker-0 commit.
type delivery struct {
	proc int
	r    revMsg
}

// runPhases is the parallel equivalent of drainReverse + tickMemory +
// drainForward.  injectAll stays outside: injectors and the retry tracker
// are single-goroutine by contract.  The pool is handed the phase function
// bound once at construction (Sim.stepFn), so the cycle loop builds no
// closures; the workers themselves persist across cycles (started by
// Run/Drain), so the steady-state cost of a cycle is the channel dispatch
// and the phase barriers — nothing allocates.
func (s *Sim) runPhases() {
	s.pool.Run(s.stepFn)
	s.mergeShards()
}

// phaseWorker is the per-worker body of one parallel cycle.
func (s *Sim) phaseWorker(w int) {
	rot := int(s.Cycle())
	workers := s.pool.Workers()
	sh := &s.shards[w]

	// Reverse, stage 0: split over rotation slots so each worker owns
	// its delivery buffers; each switch is its own conflict group.
	n0 := len(s.stages[0])
	lo, hi := par.Split(n0, workers, w)
	for si := lo; si < hi; si++ {
		s.delivBuf[si] = s.delivBuf[si][:0]
		s.revSwitch0((si+rot)%n0, &sh.st, &s.delivBuf[si])
	}
	s.bar.Sync(w)

	// Delivery commit: worker 0 replays the buffered deliveries in
	// serial (rotation-slot) order on the caller's goroutine.  This
	// overlaps the next phases safely — deliveries touch injectors,
	// the retry ledger and the completion stats, none of which the
	// switch sweeps read or write; TestDeliveryCommitOverlap pins the
	// claim under the race detector.
	if w == 0 {
		for si := 0; si < n0; si++ {
			buf := s.delivBuf[si]
			for i := range buf {
				s.deliver(buf[i].proc, &buf[i].r)
			}
		}
	}

	// Reverse, stages ≥ 1, in ascending stage order as in serial; the
	// barrier between stages keeps stage s+1's credit checks from
	// observing stage s mid-sweep.
	for stage := 1; stage < s.k; stage++ {
		groups := s.revGroups[stage]
		glo, ghi := par.Split(len(groups), workers, w)
		for g := glo; g < ghi; g++ {
			s.runRevGroup(stage, groups[g], rot, &sh.st)
		}
		s.bar.Sync(w)
	}

	// Memory: the radix modules behind one last-stage switch form a
	// group (they share that switch's reverse credits).
	ngm := s.n / s.radix
	mlo, mhi := par.Split(ngm, workers, w)
	for b := mlo; b < mhi; b++ {
		s.tickModules(b, &sh.st, &sh.rim)
	}
	s.bar.Sync(w)

	// Forward, stage k−1: each switch owns its modules and metadata
	// shards outright, so switch order is free.
	nsLast := len(s.stages[s.k-1])
	flo, fhi := par.Split(nsLast, workers, w)
	for idx := flo; idx < fhi; idx++ {
		s.fwdSwitch(s.k-1, idx, &sh.st, &sh.rim)
	}
	if s.k > 1 {
		s.bar.Sync(w)
	}

	// Forward, stages k−2 … 0, in descending stage order as in serial.
	for stage := s.k - 2; stage >= 0; stage-- {
		groups := s.fwdGroups[stage]
		glo, ghi := par.Split(len(groups), workers, w)
		for g := glo; g < ghi; g++ {
			s.runFwdGroup(stage, groups[g], rot, sh)
		}
		if stage > 0 {
			s.bar.Sync(w)
		}
	}
}

// runRevGroup processes one reverse conflict group of a stage ≥ 1 in the
// serial rotation order: switch idx sits at rotation slot (idx−rot) mod ns,
// so with ascending members the serial order is members ≥ rot mod ns first
// (they have the smaller slots), then the wrapped prefix.
func (s *Sim) runRevGroup(stage int, members []int, rot int, st *Stats) {
	ns := len(s.stages[stage])
	split := sort.SearchInts(members, ((rot%ns)+ns)%ns)
	for _, idx := range members[split:] {
		s.revSwitch(stage, idx, st)
	}
	for _, idx := range members[:split] {
		s.revSwitch(stage, idx, st)
	}
}

// runFwdGroup processes one forward conflict group of a stage < k−1 in the
// serial rotation order (same slot arithmetic as runRevGroup).
func (s *Sim) runFwdGroup(stage int, members []int, rot int, sh *netShard) {
	ns := len(s.stages[stage])
	split := sort.SearchInts(members, ((rot%ns)+ns)%ns)
	for _, idx := range members[split:] {
		s.fwdSwitch(stage, idx, &sh.st, &sh.rim)
	}
	for _, idx := range members[:split] {
		s.fwdSwitch(stage, idx, &sh.st, &sh.rim)
	}
}

// mergeShards folds the per-worker shards into the serial stats after the
// phases.  The observation multiset equals the serial stepper's, so the
// sums add exactly and the queue high-water merges by max to the same
// value; shards reset for the next cycle.
func (s *Sim) mergeShards() {
	for i := range s.shards {
		sh := &s.shards[i]
		s.stats.Combines += sh.st.Combines
		s.stats.HoldsRev += sh.st.HoldsRev
		s.stats.HoldsMem += sh.st.HoldsMem
		s.stats.HoldsMemOut += sh.st.HoldsMemOut
		s.stats.FwdHops += sh.st.FwdHops
		s.stats.RevHops += sh.st.RevHops
		s.stats.FwdSlots += sh.st.FwdSlots
		s.stats.RevSlots += sh.st.RevSlots
		if sh.st.MaxOutQueue > s.stats.MaxOutQueue {
			s.stats.MaxOutQueue = sh.st.MaxOutQueue
		}
		s.Merge(&sh.rim)
		sh.st = Stats{}
	}
}
