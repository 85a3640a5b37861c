package network

// The staged engine's one stepper: each cycle's switch/module sweeps run as
// barrier-separated phases on an internal/par pool, with the work of every
// phase partitioned into conflict groups — sets of switches (or modules)
// that touch overlapping machine state.  Groups are spread across workers
// by par.Split into per-worker switch lists built once; each worker walks a
// stage's list from the cycle's first switch on, wrapping, which is the
// rotation order restricted to its groups.  One worker owns everything, so
// at width one the walk is the plain serial sweep, and at any width the
// machine state after each phase is the same.  The group shapes per phase:
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
	"slices"

	"combining/internal/engine"
	"combining/internal/par"
)

// switchLists builds the per-worker switch lists of wiring t at the given
// width: fwd[w·k+stage] and rev[w·k+stage] are the switches of that stage
// worker w hops in the forward and in the reverse sweep, ascending.
// Reverse stage 0 splits rotation slots instead (phaseWorker) and has no
// lists.
func switchLists(t engine.Staged, workers int) (fwd, rev [][]int32) {
	k, ns := t.Stages(), t.Procs()/t.Radix()
	fwd, rev = make([][]int32, workers*k), make([][]int32, workers*k)
	own := func(lists [][]int32, stage int, groups [][]int) {
		for w := 0; w < workers; w++ {
			lo, hi := par.Split(len(groups), workers, w)
			var l []int32
			for _, g := range groups[lo:hi] {
				for _, sw := range g {
					l = append(l, int32(sw))
				}
			}
			slices.Sort(l)
			lists[w*k+stage] = l
		}
	}
	alone := make([][]int, ns)
	for sw := range alone {
		alone[sw] = []int{sw}
	}
	own(fwd, k-1, alone)
	for stage := 0; stage+1 < k; stage++ {
		own(fwd, stage, engine.FwdGroups(t, stage))
	}
	for stage := 1; stage < k; stage++ {
		own(rev, stage, engine.RevGroups(t, stage))
	}
	return fwd, rev
}

// inTurn splits a worker's ascending switch list at the cycle's first
// switch sw0: walking after and then before visits sw0, sw0+1, … wrapping
// to sw0−1 — the cycle's rotation order — restricted to the list.
func inTurn(list []int32, sw0 int) (after, before []int32) {
	j, _ := slices.BinarySearch(list, int32(sw0))
	return list[j:], list[:j]
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
	ln := s.Lane(w)

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
		after, before := inTurn(s.revList[w*s.k+stage], sw0)
		for _, sw := range after {
			s.RevHop(base+int(sw), port0, ln)
		}
		for _, sw := range before {
			s.RevHop(base+int(sw), port0, ln)
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
		after, before := inTurn(s.fwdList[w*s.k+stage], sw0)
		for _, sw := range after {
			s.FwdHop(base+int(sw), port0, ln)
		}
		for _, sw := range before {
			s.FwdHop(base+int(sw), port0, ln)
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
