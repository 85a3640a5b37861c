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

// phaseWorker is the per-worker body of one parallel cycle — the parallel
// equivalent of sweep's reverse, memory and forward loops, over the same
// hops.  Injection stays outside: injectors and the retry tracker are
// single-goroutine by contract.  The pool is handed this function bound once
// at construction (Sim.stepFn), so the cycle loop builds no closures; the
// workers themselves persist across cycles (started by Run/Drain), so the
// steady-state cost of a cycle is the channel dispatch and the phase
// barriers — nothing allocates.
func (s *Sim) phaseWorker(w int) {
	sw0, port0 := s.Turn(s.ns), s.Turn(s.cfg.Radix)
	workers := s.pool.Workers()
	ln := s.Lane(w)

	// Reverse, stage 0: split over rotation slots, a contiguous range per
	// worker, so the lanes in order hold the deliveries in serial order;
	// each switch is its own conflict group.
	lo, hi := par.Split(s.ns, workers, w)
	for si := lo; si < hi; si++ {
		s.RevHop((si+sw0)%s.ns, port0, ln)
	}
	s.bar.Sync(w)

	// Delivery commit: worker 0 replays the buffered deliveries in
	// serial (rotation-slot) order on the caller's goroutine.  This
	// overlaps the next phases safely — deliveries touch injectors,
	// the retry ledger and the completion stats, none of which the
	// hops read or write, and no later phase of a staged network brings a
	// reply home; TestDeliveryCommitOverlap pins the claim under the race
	// detector.
	if w == 0 {
		s.Commit()
	}

	// Reverse, stages ≥ 1, in ascending stage order as in serial; the
	// barrier between stages keeps stage s+1's credit checks from
	// observing stage s mid-sweep.
	for stage := 1; stage < s.k; stage++ {
		groups := s.revGroups[stage]
		glo, ghi := par.Split(len(groups), workers, w)
		for _, g := range groups[glo:ghi] {
			for i, j := 0, sort.SearchInts(g, sw0)%len(g); i < len(g); i, j = i+1, engine.Next(j, len(g)) {
				s.RevHop(stage*s.ns+g[j], port0, ln)
			}
		}
		s.bar.Sync(w)
	}

	// Memory: the radix modules behind one last-stage switch form a
	// group (they share that switch's reverse credits).
	mlo, mhi := par.Split(s.ns, workers, w)
	for mod := mlo * s.cfg.Radix; mod < mhi*s.cfg.Radix; mod++ {
		s.Tick(mod, s.memSwitch(mod), ln)
	}
	s.bar.Sync(w)

	// Forward, stage k−1: each switch owns its modules and metadata
	// shards outright, so switch order is free.
	for idx := mlo; idx < mhi; idx++ {
		s.FwdHop((s.k-1)*s.ns+idx, port0, ln)
	}
	if s.k > 1 {
		s.bar.Sync(w)
	}

	// Forward, stages k−2 … 0, in descending stage order as in serial.
	for stage := s.k - 2; stage >= 0; stage-- {
		groups := s.fwdGroups[stage]
		glo, ghi := par.Split(len(groups), workers, w)
		for _, g := range groups[glo:ghi] {
			for i, j := 0, sort.SearchInts(g, sw0)%len(g); i < len(g); i, j = i+1, engine.Next(j, len(g)) {
				s.FwdHop(stage*s.ns+g[j], port0, ln)
			}
		}
		if stage > 0 {
			s.bar.Sync(w)
		}
	}
}
