package network

// The staged engine's one stepper: each cycle's switch/module sweeps run as
// barrier-separated phases on an internal/par pool.  A phase hops one stage
// or two adjacent ones, and its switches are partitioned into closed blocks
// — sets of switches whose hops touch no machine state another block's
// touch in the same phase.  Blocks are spread across workers by par.Split
// into per-worker switch lists built once; each worker walks a stage's list
// from the cycle's first switch on, wrapping, which is the rotation order
// restricted to its blocks, and hops a pair's first stage before its
// second.  One worker owns everything, so at width one the walk is the plain
// serial sweep, and at any width every station sees the same operations in
// the same order.  The phases, in order:
//
//   reverse stage 0       each switch alone (delivers only to processors)
//   reverse 1+2, 3+4, …   pairs from the processor side, an odd stage left
//                         over alone: a first-stage block is the switches
//                         sharing a previous-stage switch (for omega the
//                         radix contiguous switches DESIGN.md §6 derives),
//                         and each second-stage switch joins the first-stage
//                         switches its replies enter (engine.RevBlocks)
//   forward k−1+k−2, …    pairs from the memory side, an odd stage left
//                         over alone: at the last stage each switch is alone
//                         and its owner ticks its radix modules just before
//                         hopping it; elsewhere a first-stage block is the
//                         switches sharing a next-stage switch, and each
//                         second-stage switch joins the first-stage switches
//                         it feeds (engine.FwdBlocks)
//
// At k = 10 that is 11 phases and 10 barriers a cycle.  Omega at radix 2
// pairs into blocks of 4 + 4 switches.
//
// Who owns the ports.  Each worker walks reverse stage 0 over the stage-0
// switches it owns in the last forward phase, so its lane's home list holds
// exactly its own processors' replies; after its forward hops it commits its
// lane and injects its processors in the cycle's rotation order restricted
// to them — so each switch's processors go in that switch's rotation order,
// and at width one every processor goes in the serial order.  Processors on
// different stage-0 switches share no state a port touches — under a fault
// plan each has its own record in the retry tracker, whose shared estimator
// and timing wheel only the next prologue's settle writes, its own trace
// buffer, and its lane's reverse limbo — so how the switches interleave is
// unobservable, on every machine: clean, faulted, traced or intercepted.
//
// Mutable state a phase shares across blocks is commutative: stats go to
// per-worker lanes merged (sum / max) after the phases, the latency
// histogram is atomic, and the fault injector's counters are atomic with
// purely hash-derived decisions.

import (
	"slices"

	"combining/internal/engine"
	"combining/internal/par"
)

// phase is one barrier-separated phase after reverse stage 0: the stages it
// hops, the first before the second.
type phase struct {
	fwd    bool
	stages []int
}

// blocks returns the phase's closed blocks on wiring t (engine.FwdBlocks,
// engine.RevBlocks).
func (ph phase) blocks(t engine.Staged) [][]int {
	if ph.fwd {
		return engine.FwdBlocks(t, ph.stages[0], len(ph.stages) == 2)
	}
	return engine.RevBlocks(t, ph.stages[0], len(ph.stages) == 2)
}

// stagedPhases lists the phases of a k-stage network after reverse stage 0:
// reverse pairs from the processor side, then forward pairs from the memory
// side.
func stagedPhases(k int) []phase {
	var ps []phase
	for s := 1; s < k; s += 2 {
		ps = append(ps, phase{stages: []int{s, s + 1}[:min(2, k-s)]})
	}
	for s := k - 1; s >= 0; s -= 2 {
		ps = append(ps, phase{fwd: true, stages: []int{s, s - 1}[:min(2, s+1)]})
	}
	return ps
}

// switchLists builds the per-worker switch lists of wiring t at the given
// width over phases ps: lists[(i·workers+w)·2+j] are the switches of
// ps[i].stages[j] worker w hops in that phase, ascending, and stage0[w] are
// the stage-0 switches it owns in the last phase — the ones whose
// processors it serves.
func switchLists(t engine.Staged, workers int, ps []phase) (lists, stage0 [][]int32) {
	ns := t.Procs() / t.Radix()
	lists = make([][]int32, len(ps)*workers*2)
	for i, ph := range ps {
		blocks := ph.blocks(t)
		for w := 0; w < workers; w++ {
			lo, hi := par.Split(len(blocks), workers, w)
			var l [2][]int32
			for _, b := range blocks[lo:hi] {
				for _, m := range b {
					l[m/ns] = append(l[m/ns], int32(m%ns))
				}
			}
			for j := range ph.stages {
				slices.Sort(l[j])
				lists[(i*workers+w)*2+j] = l[j]
			}
		}
	}
	last := len(ps) - 1
	for w := 0; w < workers; w++ {
		stage0 = append(stage0, lists[(last*workers+w)*2+len(ps[last].stages)-1])
	}
	return lists, stage0
}

// portsOf lists the processors each worker serves: ports[w] are those whose links enter the stage-0 switches stage0[w],
// ascending.
func portsOf(t engine.Staged, stage0 [][]int32) [][]int32 {
	owner := make([]int, t.Procs()/t.Radix())
	for w, sws := range stage0 {
		for _, sw := range sws {
			owner[sw] = w
		}
	}
	ports := make([][]int32, len(stage0))
	for p := 0; p < t.Procs(); p++ {
		w := owner[t.ProcLine(p)/t.Radix()]
		ports[w] = append(ports[w], int32(p))
	}
	return ports
}

// inTurn splits a worker's ascending list of switches (or processors) at
// the cycle's first one, first: walking after and then before visits
// first, first+1, … wrapping to first−1 — the cycle's rotation order —
// restricted to the list.
func inTurn(list []int32, first int) (after, before []int32) {
	j, _ := slices.BinarySearch(list, int32(first))
	return list[j:], list[:j]
}

// phaseWorker is the per-worker body of one cycle: reverse stage 0, then
// the phases, then the worker's own deliveries and injections.  The pool is
// handed this function bound once at construction (Sim.stepFn), so the
// cycle loop builds no closures; at width one the pool calls it inline, and
// wider workers persist across cycles (started by Run/Drain), so the
// steady-state cost of a cycle is the dispatch and the phase barriers —
// nothing allocates.
func (s *Sim) phaseWorker(w int) {
	sw0, port0 := s.Turn(s.ns), s.Turn(s.cfg.Radix)
	ln, workers := s.Lane(w), s.pool.Workers()

	// Reverse, stage 0: each switch is its own block, and the worker hops
	// the ones whose processors it serves.
	after, before := inTurn(s.stage0[w], sw0)
	s.hopAll(false, 0, after, port0, ln)
	s.hopAll(false, 0, before, port0, ln)
	s.bar.Sync(w)

	// The pairs; the barrier after each keeps the next phase's hops and
	// credit checks from observing this one mid-sweep.
	for i := range s.phases {
		ph := &s.phases[i]
		for j, stage := range ph.stages {
			after, before := inTurn(s.lists[(i*workers+w)*2+j], sw0)
			s.hopAll(ph.fwd, stage, after, port0, ln)
			s.hopAll(ph.fwd, stage, before, port0, ln)
		}
		if i+1 < len(s.phases) {
			s.bar.Sync(w)
		}
	}

	// Delivery commit, then injection.  Deliveries touch injectors, the
	// processors' tracker records, the completion stats and the lane's
	// limbo, none of which a hop reads or writes, and no forward hop brings
	// a reply home, so a worker commits while the others still hop;
	// TestDeliveryCommitOverlap and TestOwnPortsOverlap pin the claim under
	// the race detector.  (Committing right after reverse stage 0 overlapped
	// more and measured slower: E27.)
	s.CommitLane(ln)
	after, before = inTurn(s.ports[w], s.Turn(s.n))
	for _, p := range after {
		s.Inject(int(p), ln)
	}
	for _, p := range before {
		s.Inject(int(p), ln)
	}
}

// hopAll hops the given switches of one stage in order; a forward hop at
// the last stage first ticks the radix modules behind the switch, which
// share its reverse credits.
func (s *Sim) hopAll(fwd bool, stage int, sws []int32, port0 int, ln *engine.Lane) {
	base, r := stage*s.ns, s.cfg.Radix
	switch {
	case !fwd:
		for _, sw := range sws {
			s.RevHop(base+int(sw), port0, ln)
		}
	case stage == s.k-1:
		for _, sw := range sws {
			at := base + int(sw)
			for mod := int(sw) * r; mod < int(sw)*r+r; mod++ {
				s.Tick(mod, at, ln)
			}
			s.FwdHop(at, port0, ln)
		}
	default:
		for _, sw := range sws {
			s.FwdHop(base+int(sw), port0, ln)
		}
	}
}
