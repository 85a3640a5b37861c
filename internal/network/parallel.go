package network

// The staged engine's one stepper: each cycle's switch/module sweeps run as
// barrier-separated phases on an internal/par pool.  A phase hops one stage
// or two adjacent ones, and its switches are partitioned into closed blocks
// — sets of switches whose hops touch no machine state another block's
// touch in the same phase.  Blocks are spread across workers by par.Split
// into owner tables built once, which lay out the stations' occupancy words
// (engine.Stations.Own): each worker walks the set bits of its own words of
// a stage from the cycle's first switch on, wrapping, which is the rotation
// order restricted to its blocks and to the switches holding a message, and
// hops a pair's first stage before its second.  One worker owns everything,
// so at width one the walk is the serial sweep less its idle switches, and
// at any width every station sees the same operations in the same order.
// The phases, in order:
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
// lane and injects its processors that may act — their bits in its port
// words (engine.Shell.InjectPorts) — in the cycle's rotation order
// restricted to them, so each switch's processors go in that switch's
// rotation order, and at width one every processor goes in the serial
// order.  Processors on
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
	"math/bits"

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

// owners builds the hop-owner tables of wiring t at the given width over
// phases ps: fwd[stage·ns+sw] and rev[stage·ns+sw] are the workers that hop
// switch sw of that stage forward and in reverse, the worker par.Split gives
// its block in the phase that hops it.  Reverse stage 0, which precedes the
// phases, goes to each switch's forward owner, which serves its ports.
func owners(t engine.Staged, workers int, ps []phase) (fwd, rev []int) {
	ns := t.Procs() / t.Radix()
	fwd, rev = make([]int, t.Stages()*ns), make([]int, t.Stages()*ns)
	for _, ph := range ps {
		own, blocks := rev, ph.blocks(t)
		if ph.fwd {
			own = fwd
		}
		for w := 0; w < workers; w++ {
			lo, hi := par.Split(len(blocks), workers, w)
			for _, b := range blocks[lo:hi] {
				for _, m := range b {
					own[ph.stages[m/ns]*ns+m%ns] = w
				}
			}
		}
	}
	copy(rev[:ns], fwd[:ns])
	return fwd, rev
}

// ownBits is the set of the items own gives worker w, a bit an item, 64 to
// a word: the last-stage switches it visits on a cycle that is not quiet.
func ownBits(own []int, w int) []uint64 {
	b := make([]uint64, (len(own)+63)/64)
	for i, o := range own {
		if o == w {
			b[i>>6] |= 1 << (i & 63)
		}
	}
	return b
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
	ln := s.Lane(w)

	// Reverse, stage 0: each switch is its own block, and the worker hops
	// the ones whose processors it serves.
	s.hopAll(false, 0, w, sw0, port0, ln)
	s.bar.Sync(w)

	// The pairs; the barrier after each keeps the next phase's hops and
	// credit checks from observing this one mid-sweep.
	for i := range s.phases {
		ph := &s.phases[i]
		for _, stage := range ph.stages {
			s.hopAll(ph.fwd, stage, w, sw0, port0, ln)
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
	s.InjectPorts(w, s.Turn(s.n), ln, engine.EveryPort)
}

// hopAll hops worker w's switches of one stage in the cycle's rotation
// order from sw0: those whose side holds a message (Shell.HopRow).  At the
// last stage a forward hop first ticks the radix modules behind the switch,
// which share its reverse credits, so the walk there also takes the
// switches whose reverse side holds a reply — a module behind one without
// credit counts a hold, idle or not — or whose modules have work
// (Shell.Busy), and on a cycle that is not quiet every switch it owns.
// Nothing a hop of one last-stage switch does changes another's, so each
// word is read once.
func (s *Sim) hopAll(fwd bool, stage, w, sw0, port0 int, ln *engine.Lane) {
	if !fwd || stage < s.k-1 {
		s.HopRow(fwd, stage, sw0, w, port0, ln)
		return
	}
	base, r, rot, quiet := stage*s.ns, s.cfg.Radix, engine.Rotate(sw0, s.ns), s.Quiet()
	for v := 0; v < rot.Visits(); v++ {
		i, keep := rot.Word(v)
		m := s.tick[w][i] & keep
		if due := s.Occupied(true, stage, i, w) | s.Pushed(false, stage, i, w); quiet && m&^due != 0 {
			m &= due | s.busySwitches(w, i)
		}
		for ; m != 0; m &= m - 1 {
			sw := i<<6 | bits.TrailingZeros64(m)
			for mod := sw * r; mod < sw*r+r; mod++ {
				s.Tick(mod, base+sw, ln)
			}
			s.FwdHop(base+sw, port0, ln)
		}
	}
}

// busySwitches is word i of the last-stage switches behind which worker w
// owns a module with work: switch sw's modules are sw·radix to
// sw·radix+radix−1, so the word's switches own module words i·radix to
// i·radix+radix−1.
func (s *Sim) busySwitches(w, i int) uint64 {
	var m uint64
	r := s.cfg.Radix
	for j := i * r; j < min((i+1)*r, (s.n+63)/64); j++ {
		for b := s.Busy(w, j); b != 0; b &= b - 1 {
			m |= 1 << ((j<<6|bits.TrailingZeros64(b))/r - i<<6)
		}
	}
	return m
}
