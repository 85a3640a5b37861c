// Package faults is the deterministic fault-plan engine shared by the
// three cycle engines.  A Plan describes what goes wrong — link drops on the
// forward network, reply loss on the reverse network, switch stall/blackout
// windows, memory-module slowdowns — and an Injector answers, for any
// concrete event, whether the fault fires.
//
// Every decision is a pure hash of (plan seed, fault kind, site, request id,
// attempt): the same plan produces the same faults on the cycle-driven
// engines regardless of unrelated configuration and of the stepper's width
// — a failing run replays from its seed alone.
// Theorem 4.2 makes combining transparent on a healthy network; this package
// supplies the unhealthy ones, so the recovery layer (sequence-numbered
// retransmits, memory-side reply caches — see internal/memory and the engine
// packages) can be shown to preserve per-location serializability and
// exactly-once RMW semantics under every plan.
package faults

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"combining/internal/word"
)

// Window is a half-open cycle interval [From, To) during which a fault
// condition holds at a site.  Stage and Index select the site; -1 is a
// wildcard.  The cycle-driven engines interpret (Stage, Index) as (network
// stage, switch index); the hypercube uses Index as the node and the bus
// machine has a single site (0, 0).
type Window struct {
	Stage, Index int
	From, To     int64
}

// matches reports whether the window covers the site at the cycle.
func (w Window) matches(stage, index int, cycle int64) bool {
	return (w.Stage == -1 || w.Stage == stage) &&
		(w.Index == -1 || w.Index == index) &&
		cycle >= w.From && cycle < w.To
}

// Names reports whether some window of ws can ever cover site (stage,
// index): it selects the site (-1 is any stage or index) and spans a cycle.
// A hop that must not miss a window's cycle-by-cycle draw asks it up front.
func Names(ws []Window, stage, index int) bool {
	for _, w := range ws {
		if w.From < w.To && (w.Stage == -1 || w.Stage == stage) && (w.Index == -1 || w.Index == index) {
			return true
		}
	}
	return false
}

// Plan is one deterministic fault scenario.  The zero Plan (with a seed)
// injects nothing but still enables the recovery machinery, which is useful
// for overhead measurements.
type Plan struct {
	// Seed keys every probabilistic decision.  Two runs with equal plans
	// see identical faults.
	Seed uint64

	// DropFwd is the probability a request hop on a forward link is
	// dropped (the message vanishes; the issuer must retransmit).
	DropFwd float64
	// DropRev is the probability a reply hop on the reverse network is
	// dropped (the operation executed, its reply is lost — the case the
	// reply cache exists for).
	DropRev float64

	// Stalls are switch stall/blackout windows: a stalled switch moves no
	// traffic in either direction (it still latches arrivals).
	Stalls []Window
	// MemStalls are memory-module slowdown windows, keyed by Index =
	// module; a stalled module serves nothing that cycle.
	MemStalls []Window

	// Crashes are switch crash–restart windows: on entry the switch loses
	// its queues and wait buffers (in-flight combined trees are flushed and
	// must be re-driven by retransmits), stays dead for the window, and
	// rejoins empty when it closes.  Site semantics match Stalls.
	Crashes []Window
	// MemCrashes are memory-module crash–restart windows, keyed by Index =
	// module.  A crashing module rolls back to its last checkpoint: cells
	// and reply-cache entries newer than the checkpoint are lost, and the
	// exactly-once retry machinery re-drives the lost operations.
	MemCrashes []Window
	// LinkCrashes are link-down windows keyed by (Stage, Index) = the
	// forward-hop site of the link.  Messages traversing a dead link are
	// dropped (counted as drops_fwd/drops_rev) for the whole window — a
	// deterministic burst-loss fault, unlike the Bernoulli DropFwd/DropRev.
	LinkCrashes []Window

	// CheckpointEvery is the checkpoint period K in cycles for modules run
	// with checkpointing (DESIGN.md §7.1).  0 defaults to 64 when the
	// plan has crash windows; irrelevant otherwise.
	CheckpointEvery int64

	// Reorder is the probability a terminal-link hop's delivery is
	// deferred past traffic that left the same link later (relaxing
	// per-link FIFO): the engine parks the message in its limbo buffer
	// for a hash-drawn delay in [1, ReorderMax] cycles and re-delivers it
	// then.
	Reorder float64
	// ReorderMax bounds the reorder deferral in cycles; 0 defaults to 8
	// when Reorder > 0.
	ReorderMax int64
	// Dup is the probability a link spontaneously re-emits a message the
	// sender never retransmitted (network-born duplication).  The
	// duplicate carries the same id and the same Attempt number, so it
	// collides with the original in every dedup structure — exactly the
	// case the leaf-keyed reply cache and the retry tracker must absorb.
	Dup float64
	// Corrupt is the probability a link flips payload bits (addr, op
	// argument, or reply value) in a message.  The end-to-end checksum
	// (core.Request.Sum / core.Reply.Sum, stamped in the trusted zone
	// before the link) never passes through the corruptor, so the next
	// receiver detects every corruption, quarantines the message
	// (NoteCorruptDropped), and the retransmit layer repairs it.
	Corrupt float64

	// RetryTimeout is the floor of the retransmit timeout (RTO) in cycles,
	// and the RTO itself until the first round trip is measured (see
	// Tracker).  Default 64.
	RetryTimeout int64
	// RetryCap is the ceiling of the RTO and of its exponential backoff:
	// the delay before attempt k is min(RTO << (k-1), RetryCap).  Default
	// 8×RetryTimeout.
	RetryCap int64
}

// String renders the plan as its spec string (EncodePlan).
func (p Plan) String() string { return EncodePlan(&p) }

// HasCrashes reports whether the plan contains any crash–restart windows.
// Engines arm the checkpoint/crash machinery only when it does, so plans
// without crashes behave byte-identically to the pre-crash engine.
func (p Plan) HasCrashes() bool {
	return len(p.Crashes) > 0 || len(p.MemCrashes) > 0 || len(p.LinkCrashes) > 0
}

// HasAdversarial reports whether the plan relaxes delivery beyond loss:
// reordering, network-born duplication, or payload corruption.  Engines arm
// the integrity layer (checksum stamping and verification, limbo buffers)
// only when it does.
func (p Plan) HasAdversarial() bool {
	return p.Reorder > 0 || p.Dup > 0 || p.Corrupt > 0
}

// Default returns the standard soak plan for a seed: 1% forward drops, 1%
// reply loss, one early switch blackout, one memory slowdown window — the
// "nonzero fault plan" the acceptance checks run under.
func Default(seed uint64) *Plan {
	return &Plan{
		Seed:      seed,
		DropFwd:   0.01,
		DropRev:   0.01,
		Stalls:    []Window{{Stage: -1, Index: 0, From: 50, To: 120}},
		MemStalls: []Window{{Stage: -1, Index: 0, From: 200, To: 280}},
	}
}

// DefaultAdversarial returns the standard adversarial soak plan for a
// seed: Default's drops and stall windows plus per-link reordering (2% of
// hops deferred up to 8 cycles), network-born duplication (2% of hops), and
// payload corruption (2% of hops) — the "relaxed delivery" plan the
// adversarial soaks and the schema-parity test run under.  The 2% rates
// keep each kind firing even on the bus machine, where heavy FIFO
// combining leaves relatively few terminal-link crossings to draw on.
func DefaultAdversarial(seed uint64) *Plan {
	p := Default(seed)
	p.Reorder = 0.02
	p.ReorderMax = 8
	p.Dup = 0.02
	p.Corrupt = 0.02
	return p
}

// DefaultCrash returns the standard crash soak plan for a seed: one early
// switch crash, one memory-module crash, one link-down burst, checkpoints
// every 64 cycles, no Bernoulli drops.  Merge with Default for the
// crash+drop soak mode.
func DefaultCrash(seed uint64) *Plan {
	return &Plan{
		Seed:            seed,
		Crashes:         []Window{{Stage: 0, Index: 0, From: 300, To: 380}},
		MemCrashes:      []Window{{Stage: -1, Index: 0, From: 600, To: 700}},
		LinkCrashes:     []Window{{Stage: 1, Index: 0, From: 900, To: 940}},
		CheckpointEvery: 64,
	}
}

// GenCrashPlan derives a seeded crash scenario: n switch crashes, n module
// crashes, and n link-down bursts with dead-time windows of the given
// length scattered deterministically over [0, horizon).  The windows are a
// pure function of (seed, n, horizon, dead) — the same arguments replay the
// same schedule on every wiring; indexes are drawn from [0, 4) so every
// topology in the menu owns the crashed sites (the bus machine's single
// switch site (0, 0) sees only index-0 windows, matching its stall-window
// convention).
func GenCrashPlan(seed uint64, n int, horizon, dead int64) *Plan {
	p := &Plan{Seed: seed, CheckpointEvery: 64}
	draw := func(kind uint64, i int) (int, int64) {
		h := splitmix64(seed ^ kind)
		h = splitmix64(h ^ uint64(i))
		idx := int(h % 4)
		from := int64(splitmix64(h) % uint64(horizon))
		return idx, from
	}
	for i := 0; i < n; i++ {
		idx, from := draw(0x517cc1b727220a95, i)
		p.Crashes = append(p.Crashes, Window{Stage: 0, Index: idx, From: from, To: from + dead})
		idx, from = draw(0x2545f4914f6cdd1d, i)
		p.MemCrashes = append(p.MemCrashes, Window{Stage: -1, Index: idx, From: from, To: from + dead})
		idx, from = draw(0x9e3779b97f4a7c15, i)
		p.LinkCrashes = append(p.LinkCrashes, Window{Stage: 1, Index: idx, From: from, To: from + dead/2})
	}
	return p
}

// Injector answers fault queries for one engine run and counts what it
// injected.  Counters are lock-free and the plan is immutable after
// NewInjector, so the parallel stepper's workers consult one injector from
// every station at once without serializing them.
type Injector struct {
	plan Plan
	// open is when the plan's site masks can be anything but all-clear: the
	// cycle intervals covered by some Stalls, Crashes or MemCrashes window,
	// merged and sorted once (WindowOpen).  linkOpen and slowOpen are the
	// same for the LinkCrashes (LinkWindowOpen) and the MemStalls
	// (MemStallOpen) windows.
	open, linkOpen, slowOpen []span
	// first is each decision kind's first hash round, splitmix64(Seed ^
	// kind): a constant of the plan, so NewInjector computes it once.
	first firstRounds

	// DropsFwd and DropsRev count dropped request and reply hops;
	// StallCycles and MemStallCycles count switch-cycles and
	// module-cycles lost to windows; CrashCycles counts dead
	// component-cycles inside crash windows.
	DropsFwd, DropsRev          atomic.Int64
	StallCycles, MemStallCycles atomic.Int64
	CrashCycles                 atomic.Int64

	// ReorderedHeld counts hops deferred into a limbo buffer (delivered
	// out of per-link FIFO order); DupInjected counts network-born
	// duplicates emitted; CorruptInjected counts payload corruptions
	// applied; CorruptDropped counts corrupt messages a receiver's
	// checksum verification detected and quarantined.  CorruptDropped can
	// lag CorruptInjected when a corrupted message dies of another fault
	// (a drop, a dead link, a crash flush) before any receiver sees it.
	ReorderedHeld, DupInjected      atomic.Int64
	CorruptInjected, CorruptDropped atomic.Int64
}

// NewInjector builds the injector for a plan, filling retry and checkpoint
// defaults.
func NewInjector(p Plan) *Injector {
	if p.RetryTimeout <= 0 {
		p.RetryTimeout = 64
	}
	if p.RetryCap <= 0 {
		p.RetryCap = 8 * p.RetryTimeout
	}
	if p.CheckpointEvery <= 0 && p.HasCrashes() {
		p.CheckpointEvery = 64
	}
	if p.ReorderMax <= 0 && p.Reorder > 0 {
		p.ReorderMax = 8
	}
	return &Injector{
		plan:     p,
		open:     mergeSpans(p.Stalls, p.Crashes, p.MemCrashes),
		linkOpen: mergeSpans(p.LinkCrashes),
		slowOpen: mergeSpans(p.MemStalls),
		first: firstRounds{
			dropFwd:      splitmix64(p.Seed ^ kindDropFwd),
			dropRev:      splitmix64(p.Seed ^ kindDropRev),
			reorder:      splitmix64(p.Seed ^ kindReorder),
			reorderDelay: splitmix64(p.Seed ^ kindReorderDelay),
			dup:          splitmix64(p.Seed ^ kindDup),
			corrupt:      splitmix64(p.Seed ^ kindCorrupt),
			corruptBits:  splitmix64(p.Seed ^ kindCorruptBits),
		},
	}
}

// span is a half-open cycle interval [from, to).
type span struct{ from, to int64 }

// covers reports whether one of the merged spans holds the cycle: the first
// span that ends after it is the only one that can.
func covers(spans []span, cycle int64) bool {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].to > cycle })
	return i < len(spans) && spans[i].from <= cycle
}

// mergeSpans returns the union of the windows' cycle intervals, whatever
// their sites, as disjoint, non-adjacent spans in increasing order.
func mergeSpans(lists ...[]Window) []span {
	var spans []span
	for _, ws := range lists {
		for _, w := range ws {
			if w.From < w.To {
				spans = append(spans, span{w.From, w.To})
			}
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.from, b.from) })
	merged := spans[:0]
	for _, sp := range spans {
		if n := len(merged); n > 0 && sp.from <= merged[n-1].to {
			merged[n-1].to = max(merged[n-1].to, sp.to)
		} else {
			merged = append(merged, sp)
		}
	}
	return merged
}

// Plan returns the (default-filled) plan the injector answers for.
func (f *Injector) Plan() Plan { return f.plan }

// Injected totals every fault the injector has fired.  Crash dead time
// counts as injected progress so the livelock watchdog — whose progress
// signature folds Injected() in — never mistakes a dead-time window for a
// hang (the same mechanism that excludes stall windows).
func (f *Injector) Injected() int64 {
	return f.DropsFwd.Load() + f.DropsRev.Load() +
		f.StallCycles.Load() + f.MemStallCycles.Load() +
		f.CrashCycles.Load() +
		f.ReorderedHeld.Load() + f.DupInjected.Load() +
		f.CorruptInjected.Load()
}

// Fault kinds, mixed into the decision hash so a forward drop and a reply
// drop at the same site draw independent randomness.
const (
	kindDropFwd      uint64 = 0x9e3779b97f4a7c15
	kindDropRev      uint64 = 0xc2b2ae3d27d4eb4f
	kindReorder      uint64 = 0xd6e8feb86659fd93
	kindReorderDelay uint64 = 0xa0761d6478bd642f
	kindDup          uint64 = 0xe7037ed1a0b428db
	kindCorrupt      uint64 = 0x8ebc6af09c88c6e3
	kindCorruptBits  uint64 = 0x589965cc75374cc3
)

// firstRounds holds splitmix64(Seed ^ kind) for every kind above.
type firstRounds struct {
	dropFwd, dropRev, reorder, reorderDelay, dup, corrupt, corruptBits uint64
}

// Site packs a (stage, index, port) coordinate into a hash key; engines
// with other geometries pack what they have (the hypercube uses node and
// dimension, the bus machine a constant).
func Site(stage, index, port int) uint64 {
	return uint64(stage)<<40 ^ uint64(index)<<16 ^ uint64(port)
}

// splitmix64 is the SplitMix64 finalizer — a strong 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decide draws the deterministic Bernoulli variable for one event, first
// being its kind's first hash round.
func decide(first, site uint64, id word.ReqID, attempt uint32, p float64) bool {
	if p <= 0 {
		return false
	}
	h := splitmix64(first ^ site)
	h = splitmix64(h ^ uint64(id)<<8 ^ uint64(attempt))
	// 53 uniform bits → [0, 1).
	return float64(h>>11)/(1<<53) < p
}

// DropForward reports whether the request hop for (id, attempt) at site is
// dropped, counting the injection.
func (f *Injector) DropForward(site uint64, id word.ReqID, attempt uint32) bool {
	if !decide(f.first.dropFwd, site, id, attempt, f.plan.DropFwd) {
		return false
	}
	f.DropsFwd.Add(1)
	return true
}

// DropReply reports whether the reply hop for (id, attempt) at site is
// dropped, counting the injection.
func (f *Injector) DropReply(site uint64, id word.ReqID, attempt uint32) bool {
	if !decide(f.first.dropRev, site, id, attempt, f.plan.DropRev) {
		return false
	}
	f.DropsRev.Add(1)
	return true
}

// ReorderDelay returns the deferral, in cycles, for the hop of (id,
// attempt) at site: 0 almost always (delivery proceeds in order), or a
// hash-drawn delay in [1, ReorderMax] when the reorder fault fires,
// counting the held message.  The caller parks the message in its limbo
// buffer and re-delivers it at cycle+delay — after traffic that left the
// same link later, relaxing per-link FIFO.
func (f *Injector) ReorderDelay(site uint64, id word.ReqID, attempt uint32) int64 {
	if !decide(f.first.reorder, site, id, attempt, f.plan.Reorder) {
		return 0
	}
	h := splitmix64(f.first.reorderDelay ^ site ^ uint64(id)<<8 ^ uint64(attempt))
	f.ReorderedHeld.Add(1)
	return 1 + int64(h%uint64(f.plan.ReorderMax))
}

// Duplicate reports whether the link spontaneously re-emits the message for
// (id, attempt) at site — a network-born duplicate the sender never
// retransmitted, carrying the same id and attempt — counting the injection.
func (f *Injector) Duplicate(site uint64, id word.ReqID, attempt uint32) bool {
	if !decide(f.first.dup, site, id, attempt, f.plan.Dup) {
		return false
	}
	f.DupInjected.Add(1)
	return true
}

// CorruptMask returns a nonzero bit mask when the link flips payload bits
// in the message for (id, attempt) at site, else 0, counting the injection.
// Engines apply the mask to the payload (core.CorruptRequest /
// core.CorruptReply — the checksum itself never passes through the
// corruptor) and the next receiver's verification quarantines the message,
// reporting it through NoteCorruptDropped.
func (f *Injector) CorruptMask(site uint64, id word.ReqID, attempt uint32) uint64 {
	if !decide(f.first.corrupt, site, id, attempt, f.plan.Corrupt) {
		return 0
	}
	h := splitmix64(f.first.corruptBits ^ site ^ uint64(id)<<8 ^ uint64(attempt))
	if h == 0 {
		h = 1
	}
	f.CorruptInjected.Add(1)
	return h
}

// NoteCorruptDropped counts one corrupt message a receiver's checksum
// verification detected and quarantined.
func (f *Injector) NoteCorruptDropped() { f.CorruptDropped.Add(1) }

// Stalled reports whether the switch at (stage, index) is inside a stall
// window this cycle, counting the lost switch-cycle.
func (f *Injector) Stalled(stage, index int, cycle int64) bool {
	for _, w := range f.plan.Stalls {
		if w.matches(stage, index, cycle) {
			f.StallCycles.Add(1)
			return true
		}
	}
	return false
}

// WindowOpen reports whether any stall, switch-crash or module-crash window,
// at any site, covers the cycle.  When none does, Stalled, SwitchCrashed and
// MemCrashed answer false for every site and count nothing, so an engine
// that keeps per-site masks of their answers may leave all-clear masks alone
// on such a cycle.  Pure, and answered from intervals merged once in
// NewInjector.
func (f *Injector) WindowOpen(cycle int64) bool { return covers(f.open, cycle) }

// LinkWindowOpen reports whether any LinkCrashes window, at any site, covers
// the cycle.  When none does, DropLinkFwd and DropLinkRev answer false for
// every site and count nothing.  Pure, like WindowOpen.
func (f *Injector) LinkWindowOpen(cycle int64) bool { return covers(f.linkOpen, cycle) }

// MemStallOpen reports whether any MemStalls window, for any module, covers
// the cycle.  When none does, MemStalled answers false for every module and
// counts nothing.  Pure, like WindowOpen.
func (f *Injector) MemStallOpen(cycle int64) bool { return covers(f.slowOpen, cycle) }

// MemStalled reports whether memory module mod is inside a slowdown window
// this cycle, counting the lost module-cycle.  MemStalls windows select the
// module with Index alone; Stage is ignored.
func (f *Injector) MemStalled(mod int, cycle int64) bool {
	for _, w := range f.plan.MemStalls {
		if (w.Index == -1 || w.Index == mod) && cycle >= w.From && cycle < w.To {
			f.MemStallCycles.Add(1)
			return true
		}
	}
	return false
}

// SwitchCrashed reports whether the switch at (stage, index) is inside a
// crash window this cycle, counting the dead switch-cycle.  Engines call it
// exactly once per component per cycle (serially, like the stall mask) so
// crash_cycles equals dead component-cycles at every Workers width.
func (f *Injector) SwitchCrashed(stage, index int, cycle int64) bool {
	for _, w := range f.plan.Crashes {
		if w.matches(stage, index, cycle) {
			f.CrashCycles.Add(1)
			return true
		}
	}
	return false
}

// MemCrashed reports whether memory module mod is inside a crash window
// this cycle, counting the dead module-cycle.  MemCrashes windows select
// the module with Index alone; Stage is ignored.
func (f *Injector) MemCrashed(mod int, cycle int64) bool {
	for _, w := range f.plan.MemCrashes {
		if (w.Index == -1 || w.Index == mod) && cycle >= w.From && cycle < w.To {
			f.CrashCycles.Add(1)
			return true
		}
	}
	return false
}

// StallMask writes what Stalled answers this cycle for every switch site
// into mask, site (stage, index) at stage·width + index, and counts the lost
// switch-cycles as those calls would: one per site a window covers.  It
// visits the windows, not the sites.
func (f *Injector) StallMask(mask []bool, width int, cycle int64) {
	f.StallCycles.Add(cover(mask, width, f.plan.Stalls, false, cycle))
}

// SwitchCrashMask is StallMask for the crash windows: mask[stage·width +
// index] is what SwitchCrashed answers, and each dead site counts a dead
// component-cycle.
func (f *Injector) SwitchCrashMask(mask []bool, width int, cycle int64) {
	f.CrashCycles.Add(cover(mask, width, f.plan.Crashes, false, cycle))
}

// MemCrashMask is SwitchCrashMask for the modules: mask[mod] is what
// MemCrashed answers.
func (f *Injector) MemCrashMask(mask []bool, cycle int64) {
	f.CrashCycles.Add(cover(mask, len(mask), f.plan.MemCrashes, true, cycle))
}

// cover sets mask to the sites the windows cover at the cycle, in a grid of
// width sites a stage (anyStage: Stage is ignored, as for modules), and
// returns how many it set.
func cover(mask []bool, width int, ws []Window, anyStage bool, cycle int64) int64 {
	clear(mask)
	n := int64(0)
	set := func(d int) {
		if !mask[d] {
			mask[d] = true
			n++
		}
	}
	for _, w := range ws {
		if cycle < w.From || cycle >= w.To || w.Index < -1 || w.Index >= width {
			continue
		}
		for stage, d := 0, 0; d < len(mask); stage, d = stage+1, d+width {
			switch {
			case !anyStage && w.Stage != -1 && w.Stage != stage:
			case w.Index == -1:
				for i := d; i < d+width; i++ {
					set(i)
				}
			default:
				set(d + w.Index)
			}
		}
	}
	return n
}

// LinkDown reports whether the link at forward-hop site (stage, index) is
// inside a link-crash window this cycle.  Pure query: callers count the
// actual message losses through DropLinkFwd/DropLinkRev.
func (f *Injector) LinkDown(stage, index int, cycle int64) bool {
	for _, w := range f.plan.LinkCrashes {
		if w.matches(stage, index, cycle) {
			return true
		}
	}
	return false
}

// DropLinkFwd reports whether a request hop at (stage, index) dies on a
// crashed link this cycle, counting it with the Bernoulli forward drops.
func (f *Injector) DropLinkFwd(stage, index int, cycle int64) bool {
	if !f.LinkDown(stage, index, cycle) {
		return false
	}
	f.DropsFwd.Add(1)
	return true
}

// DropLinkRev reports whether a reply hop at (stage, index) dies on a
// crashed link this cycle, counting it with the Bernoulli reply drops.
func (f *Injector) DropLinkRev(stage, index int, cycle int64) bool {
	if !f.LinkDown(stage, index, cycle) {
		return false
	}
	f.DropsRev.Add(1)
	return true
}

// ActiveCrashes formats the crash windows covering the cycle — the crashed
// sites a StallReport names so a trip during recovery is attributable.
// Empty when nothing is dead.
func (f *Injector) ActiveCrashes(cycle int64) string {
	s := ""
	add := func(kind string, w Window) {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s(stage=%d,index=%d,[%d,%d))", kind, w.Stage, w.Index, w.From, w.To)
	}
	for _, w := range f.plan.Crashes {
		if cycle >= w.From && cycle < w.To {
			add("switch", w)
		}
	}
	for _, w := range f.plan.MemCrashes {
		if cycle >= w.From && cycle < w.To {
			add("mem", w)
		}
	}
	for _, w := range f.plan.LinkCrashes {
		if cycle >= w.From && cycle < w.To {
			add("link", w)
		}
	}
	return s
}
