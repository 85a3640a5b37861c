package network

// The staged engine's one stepper: each cycle's switch/module sweeps run as
// barrier-separated phases on an internal/par pool, with the work of every
// phase partitioned into conflict groups — sets of switches (or modules)
// that touch overlapping machine state.  Groups are spread across workers
// by par.Split into a per-stage owner table built once; each worker walks a
// stage in the cycle's rotation order and hops only the switches it owns,
// which is the rotation order restricted to its groups.  One worker owns
// everything, so at width one the walk is the plain serial sweep, and at
// any width the machine state after each phase is the same.  The group
// shapes per phase:
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
//   forward stage k−1   each switch alone (owns its radix modules, their
//                       metadata shards and their limbo)
//   forward stage < k−1 switches sharing a next-stage switch —
//                       engine.FwdGroups (for omega, the radix switches
//                       congruent mod n/radix²)
//
// Mutable state a phase shares across groups is commutative: stats go to
// per-worker lanes merged (sum / max) after the phases, and the fault
// injector's counters are atomic with purely hash-derived decisions.

import (
	"combining/internal/engine"
	"combining/internal/par"
)

// owners builds the owner tables: for every station, the worker that hops
// it in the forward and in the reverse sweep.  Reverse stage 0 splits
// rotation slots instead (phaseWorker) and has no table.
func (s *Sim) owners() (fwd, rev []int32) {
	workers := s.pool.Workers()
	fwd, rev = make([]int32, s.k*s.ns), make([]int32, s.k*s.ns)
	own := func(table []int32, stage int, groups [][]int) {
		for w := 0; w < workers; w++ {
			lo, hi := par.Split(len(groups), workers, w)
			for _, g := range groups[lo:hi] {
				for _, sw := range g {
					table[stage*s.ns+sw] = int32(w)
				}
			}
		}
	}
	alone := make([][]int, s.ns)
	for sw := range alone {
		alone[sw] = []int{sw}
	}
	own(fwd, s.k-1, alone)
	for stage := 0; stage+1 < s.k; stage++ {
		own(fwd, stage, engine.FwdGroups(s.topo, stage))
	}
	for stage := 1; stage < s.k; stage++ {
		own(rev, stage, engine.RevGroups(s.topo, stage))
	}
	return fwd, rev
}

// phaseWorker is the per-worker body of one cycle: the reverse, memory and
// forward sweeps over the hops.  Injection stays outside: injectors and the
// retry tracker are single-goroutine by contract.  The pool is handed this
// function bound once at construction (Sim.stepFn), so the cycle loop builds
// no closures; at width one the pool calls it inline, and wider workers
// persist across cycles (started by Run/Drain), so the steady-state cost of
// a cycle is the channel dispatch and the phase barriers — nothing
// allocates.
func (s *Sim) phaseWorker(w int) {
	sw0, port0 := s.Turn(s.ns), s.Turn(s.cfg.Radix)
	ln, me := s.Lane(w), int32(w)

	// Reverse, stage 0: split over rotation slots, a contiguous range per
	// worker, so the lanes in order hold the deliveries in rotation order;
	// each switch is its own conflict group.
	lo, hi := par.Split(s.ns, s.pool.Workers(), w)
	for si, sw := lo, (sw0+lo)%s.ns; si < hi; si, sw = si+1, engine.Next(sw, s.ns) {
		s.RevHop(sw, port0, ln)
	}
	s.bar.Sync(w)

	// Reverse, stages ≥ 1, in ascending stage order; the barrier between
	// stages keeps stage s+1's credit checks from observing stage s
	// mid-sweep.
	for stage := 1; stage < s.k; stage++ {
		base := stage * s.ns
		own := s.revOwner[base : base+s.ns]
		for i, sw := 0, sw0; i < len(own); i, sw = i+1, engine.Next(sw, len(own)) {
			if own[sw] == me {
				s.RevHop(base+sw, port0, ln)
			}
		}
		s.bar.Sync(w)
	}

	// Memory: the radix modules behind one last-stage switch form a
	// group (they share that switch's reverse credits).
	for mod := lo * s.cfg.Radix; mod < hi*s.cfg.Radix; mod++ {
		s.Tick(mod, s.memSwitch(mod), ln)
	}
	s.bar.Sync(w)

	// Forward, stages k−1 … 0, in descending stage order.
	for stage := s.k - 1; stage >= 0; stage-- {
		base := stage * s.ns
		own := s.fwdOwner[base : base+s.ns]
		for i, sw := 0, sw0; i < len(own); i, sw = i+1, engine.Next(sw, len(own)) {
			if own[sw] == me {
				s.FwdHop(base+sw, port0, ln)
			}
		}
		if stage > 0 {
			s.bar.Sync(w)
		}
	}

	// Delivery commit: worker 0 replays the buffered deliveries in
	// rotation-slot order on the caller's goroutine, while the others
	// finish forward stage 0.  The overlap is safe — deliveries touch
	// injectors, the retry ledger, the completion stats and the
	// processor-side limbo, none of which a hop reads or writes, and no
	// forward hop brings a reply home; TestDeliveryCommitOverlap pins the
	// claim under the race detector.  (Committing right after reverse stage
	// 0 overlapped more and measured slower: E27.)
	if w == 0 {
		s.Commit()
	}
}
