package faults

import (
	"math/rand/v2"
	"testing"

	"combining/internal/word"
)

// TestDropDeterminism: the same plan answers every query identically across
// injector instances, and a different seed answers differently somewhere —
// the property that makes a failing run replayable from its seed alone.
func TestDropDeterminism(t *testing.T) {
	plan := Plan{Seed: 7, DropFwd: 0.3, DropRev: 0.3}
	a, b, a2 := NewInjector(plan), NewInjector(plan), NewInjector(plan)
	plan.Seed = 8
	c := NewInjector(plan)

	sameAsA, diffFromA := true, false
	for site := 0; site < 50; site++ {
		for id := word.ReqID(0); id < 50; id++ {
			s := Site(site%3, site, site%2)
			if a.DropForward(s, id, 0) != b.DropForward(s, id, 0) {
				sameAsA = false
			}
			if a.DropReply(s, id, 1) != b.DropReply(s, id, 1) {
				sameAsA = false
			}
			if a2.DropForward(s, id, 2) != c.DropForward(s, id, 2) {
				diffFromA = true
			}
		}
	}
	if !sameAsA {
		t.Fatal("equal plans disagreed on a drop decision")
	}
	if !diffFromA {
		t.Fatal("different seeds agreed on every decision — seed is not mixed in")
	}
	if a.DropsFwd.Load() != b.DropsFwd.Load() || a.DropsRev.Load() != b.DropsRev.Load() {
		t.Fatal("equal plans counted different injections")
	}
}

// TestDropRate: the empirical drop frequency tracks the plan probability.
func TestDropRate(t *testing.T) {
	const p, n = 0.05, 100000
	flt := NewInjector(Plan{Seed: 3, DropFwd: p})
	drops := 0
	for id := word.ReqID(0); id < n; id++ {
		if flt.DropForward(Site(1, 2, 0), id, 0) {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < p*0.8 || rate > p*1.2 {
		t.Fatalf("empirical drop rate %.4f, want about %.2f", rate, p)
	}
	// Attempts draw fresh randomness: a dropped attempt 0 must not doom
	// every retransmit of the same id.
	stuck := 0
	for id := word.ReqID(0); id < n; id++ {
		if flt.DropForward(Site(1, 2, 0), id, 0) && flt.DropForward(Site(1, 2, 0), id, 1) {
			stuck++
		}
	}
	if want := p * p * n * 3; float64(stuck) > want {
		t.Fatalf("%d ids dropped on both attempts, want about %.0f (attempt not mixed in?)", stuck, p*p*n)
	}
}

// TestStallWindows: window matching honors [From, To) bounds and the -1
// wildcards, for both switch and memory windows.
func TestStallWindows(t *testing.T) {
	flt := NewInjector(Plan{
		Seed:      1,
		Stalls:    []Window{{Stage: 1, Index: 2, From: 10, To: 20}, {Stage: -1, Index: 0, From: 100, To: 101}},
		MemStalls: []Window{{Index: 3, From: 5, To: 8}},
	})
	cases := []struct {
		stage, index int
		cycle        int64
		want         bool
	}{
		{1, 2, 10, true},   // inclusive From
		{1, 2, 19, true},   // last covered cycle
		{1, 2, 20, false},  // exclusive To
		{1, 2, 9, false},   // before
		{1, 3, 15, false},  // wrong index
		{0, 2, 15, false},  // wrong stage
		{0, 0, 100, true},  // stage wildcard
		{5, 0, 100, true},  // stage wildcard, another stage
		{5, 1, 100, false}, // wildcard stage, wrong index
	}
	for _, c := range cases {
		if got := flt.Stalled(c.stage, c.index, c.cycle); got != c.want {
			t.Errorf("Stalled(%d,%d,%d) = %v, want %v", c.stage, c.index, c.cycle, got, c.want)
		}
	}
	memCases := []struct {
		mod   int
		cycle int64
		want  bool
	}{
		{3, 5, true}, {3, 7, true}, {3, 8, false}, {2, 6, false},
	}
	for _, c := range memCases {
		if got := flt.MemStalled(c.mod, c.cycle); got != c.want {
			t.Errorf("MemStalled(%d,%d) = %v, want %v", c.mod, c.cycle, got, c.want)
		}
	}
	if flt.StallCycles.Load() == 0 || flt.MemStallCycles.Load() == 0 {
		t.Fatal("stall counters did not advance")
	}
}

// TestTimeoutBackoff: before the first round-trip sample the tracker's
// timeouts are capped exponential backoff from the plan base.
func TestTimeoutBackoff(t *testing.T) {
	trk := NewTracker(NewInjector(Plan{Seed: 1, RetryTimeout: 10, RetryCap: 35}), 1)
	want := []int64{10, 10, 20, 35, 35, 35}
	for attempt, w := range want {
		if got := trk.Timeout(uint32(attempt)); got != w {
			t.Errorf("Timeout(%d) = %d, want %d", attempt, got, w)
		}
	}
	// Defaults fill in: base 64, cap 8×64.
	def := NewTracker(NewInjector(Plan{Seed: 1}), 1)
	if def.Timeout(1) != 64 || def.Timeout(20) != 512 {
		t.Fatalf("default backoff = %d..%d, want 64..512", def.Timeout(1), def.Timeout(20))
	}
}

// TestWindowOpen: the merged intervals answer, for every cycle, exactly
// whether some stall, switch-crash or module-crash window covers it — over
// random window sets with empty, nested, abutting and overlapping windows —
// and whenever the answer is no, every per-site query is false and counts
// nothing.
func TestWindowOpen(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 9))
	for trial := 0; trial < 200; trial++ {
		var plan Plan
		for _, ws := range []*[]Window{&plan.Stalls, &plan.Crashes, &plan.MemCrashes} {
			for i := r.IntN(4); i > 0; i-- {
				from := r.Int64N(60)
				*ws = append(*ws, Window{Stage: r.IntN(3) - 1, Index: r.IntN(4) - 1, From: from, To: from + r.Int64N(12)})
			}
		}
		// Link and module-slowdown windows are not the masks' business.
		plan.LinkCrashes = []Window{{Stage: -1, Index: -1, From: 0, To: 100}}
		plan.MemStalls = plan.LinkCrashes
		flt := NewInjector(plan)
		for cycle := int64(-2); cycle < 80; cycle++ {
			want := false
			for _, ws := range [][]Window{plan.Stalls, plan.Crashes, plan.MemCrashes} {
				for _, w := range ws {
					want = want || (w.From <= cycle && cycle < w.To)
				}
			}
			if got := flt.WindowOpen(cycle); got != want {
				t.Fatalf("trial %d: WindowOpen(%d) = %v, the windows say %v\n%+v", trial, cycle, got, want, plan)
			}
			if want {
				continue
			}
			for stage := 0; stage < 2; stage++ {
				for idx := 0; idx < 3; idx++ {
					if flt.Stalled(stage, idx, cycle) || flt.SwitchCrashed(stage, idx, cycle) || flt.MemCrashed(idx, cycle) {
						t.Fatalf("trial %d: a site query is true at quiet cycle %d\n%+v", trial, cycle, plan)
					}
				}
			}
		}
		if quiet := flt.StallCycles.Load() + flt.CrashCycles.Load(); quiet != 0 {
			t.Fatalf("trial %d: %d cycles counted on quiet cycles", trial, quiet)
		}
	}
}

// TestLinkWindowOpen is TestWindowOpen for the two per-cycle answers an
// engine asks before its per-hop and per-module queries: LinkWindowOpen
// against a walk of the LinkCrashes windows and MemStallOpen against one of
// the MemStalls windows.  Whenever an answer is no, every DropLinkFwd,
// DropLinkRev or MemStalled query is false and counts nothing.
func TestLinkWindowOpen(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 11))
	walk := func(ws []Window, cycle int64) bool {
		for _, w := range ws {
			if w.From <= cycle && cycle < w.To {
				return true
			}
		}
		return false
	}
	for trial := 0; trial < 200; trial++ {
		var plan Plan
		for _, ws := range []*[]Window{&plan.LinkCrashes, &plan.MemStalls} {
			for i := r.IntN(4); i > 0; i-- {
				from := r.Int64N(60)
				*ws = append(*ws, Window{Stage: r.IntN(3) - 1, Index: r.IntN(4) - 1, From: from, To: from + r.Int64N(12)})
			}
		}
		// The mask windows are WindowOpen's business, not these answers'.
		plan.Stalls = []Window{{Stage: -1, Index: -1, From: 0, To: 100}}
		plan.Crashes, plan.MemCrashes = plan.Stalls, plan.Stalls
		flt := NewInjector(plan)
		for cycle := int64(-2); cycle < 80; cycle++ {
			link, slow := walk(plan.LinkCrashes, cycle), walk(plan.MemStalls, cycle)
			if got := flt.LinkWindowOpen(cycle); got != link {
				t.Fatalf("trial %d: LinkWindowOpen(%d) = %v, the windows say %v\n%+v", trial, cycle, got, link, plan)
			}
			if got := flt.MemStallOpen(cycle); got != slow {
				t.Fatalf("trial %d: MemStallOpen(%d) = %v, the windows say %v\n%+v", trial, cycle, got, slow, plan)
			}
			for stage := 0; stage < 2; stage++ {
				for idx := 0; idx < 3; idx++ {
					if !link && (flt.DropLinkFwd(stage, idx, cycle) || flt.DropLinkRev(stage, idx, cycle)) {
						t.Fatalf("trial %d: a link drop at closed cycle %d\n%+v", trial, cycle, plan)
					}
					if !slow && flt.MemStalled(idx, cycle) {
						t.Fatalf("trial %d: a module slowdown at closed cycle %d\n%+v", trial, cycle, plan)
					}
				}
			}
		}
	}
}

// TestDecisionsPinned holds every per-event decision to the values it drew
// before the kinds' first hash rounds were computed once per injector: on a
// fixed grid of (seed, site, id, attempt), DropForward, DropReply and
// Duplicate as one bit per point, ReorderDelay and CorruptMask as values.  A
// decision that moves reshuffles every fault plan's schedule and every
// digest recorded under one.
func TestDecisionsPinned(t *testing.T) {
	const drops, replies, dups = 0x322f47, 0x51a67a, 0xfef7e2
	delays := []int64{0, 5, 8, 0, 6, 5, 0, 0, 5, 1, 2, 3, 0, 1, 0, 0, 0, 8, 4, 6, 3, 3, 2, 0}
	masks := []uint64{
		0, 0xeefa51b5f1755348, 0, 0,
		0, 0, 0x35bc15cb5f6ba4e2, 0x4ee82c4e645cac56,
		0x00a9047957108aaf, 0, 0, 0,
		0, 0, 0, 0,
		0x8268dcdd058a76e4, 0, 0, 0x2ea1d5eb605ef3a2,
		0, 0, 0, 0,
	}
	var gotDrops, gotReplies, gotDups uint64
	i := 0
	for _, seed := range []uint64{3, 0x9e3779b97f4a7c15} {
		flt := NewInjector(Plan{Seed: seed, DropFwd: 0.5, DropRev: 0.5, Reorder: 0.5, ReorderMax: 8, Dup: 0.5, Corrupt: 0.5})
		for _, site := range []uint64{Site(0, 0, 0), Site(2, 7, 1), Site(1, 3, 0)} {
			for _, id := range []word.ReqID{1, 4242} {
				for _, attempt := range []uint32{0, 5} {
					if flt.DropForward(site, id, attempt) {
						gotDrops |= 1 << i
					}
					if flt.DropReply(site, id, attempt) {
						gotReplies |= 1 << i
					}
					if flt.Duplicate(site, id, attempt) {
						gotDups |= 1 << i
					}
					if d := flt.ReorderDelay(site, id, attempt); d != delays[i] {
						t.Errorf("seed %#x site %#x id %d attempt %d: ReorderDelay %d, pinned %d", seed, site, id, attempt, d, delays[i])
					}
					if m := flt.CorruptMask(site, id, attempt); m != masks[i] {
						t.Errorf("seed %#x site %#x id %d attempt %d: CorruptMask %#x, pinned %#x", seed, site, id, attempt, m, masks[i])
					}
					i++
				}
			}
		}
	}
	if gotDrops != drops || gotReplies != replies || gotDups != dups {
		t.Errorf("DropForward / DropReply / Duplicate bits %#x / %#x / %#x, pinned %#x / %#x / %#x",
			gotDrops, gotReplies, gotDups, drops, replies, dups)
	}
}

// TestMasksMatchSiteQueries: StallMask, SwitchCrashMask and MemCrashMask,
// which visit the windows, answer for every site what Stalled,
// SwitchCrashed and MemCrashed answer one site at a time, and count the
// same lost and dead site-cycles — on random plans over a 3 × 4 grid whose
// windows overlap, name wildcard stages and indexes, and name indexes and
// stages the grid does not have.
func TestMasksMatchSiteQueries(t *testing.T) {
	const stages, width = 3, 4
	r := rand.New(rand.NewPCG(53, 53))
	draw := func() []Window {
		ws := make([]Window, r.IntN(5))
		for i := range ws {
			from := int64(r.IntN(40))
			ws[i] = Window{Stage: r.IntN(stages+2) - 1, Index: r.IntN(width+3) - 2, From: from, To: from + int64(r.IntN(20))}
		}
		return ws
	}
	for trial := 0; trial < 200; trial++ {
		plan := Plan{Seed: uint64(trial), Stalls: draw(), Crashes: draw(), MemCrashes: draw()}
		masks, sites := NewInjector(plan), NewInjector(plan)
		stall, dead, mem := make([]bool, stages*width), make([]bool, stages*width), make([]bool, width)
		for cycle := int64(0); cycle < 64; cycle++ {
			masks.StallMask(stall, width, cycle)
			masks.SwitchCrashMask(dead, width, cycle)
			masks.MemCrashMask(mem, cycle)
			for stage := 0; stage < stages; stage++ {
				for idx := 0; idx < width; idx++ {
					d := stage*width + idx
					if s, c := sites.Stalled(stage, idx, cycle), sites.SwitchCrashed(stage, idx, cycle); stall[d] != s || dead[d] != c {
						t.Fatalf("trial %d cycle %d site (%d, %d): masks say stalled %v dead %v, the queries %v %v\n%+v",
							trial, cycle, stage, idx, stall[d], dead[d], s, c, plan)
					}
				}
			}
			for mod := range mem {
				if c := sites.MemCrashed(mod, cycle); mem[mod] != c {
					t.Fatalf("trial %d cycle %d module %d: mask says dead %v, the query %v\n%+v", trial, cycle, mod, mem[mod], c, plan)
				}
			}
		}
		if a, b := masks.StallCycles.Load(), sites.StallCycles.Load(); a != b {
			t.Fatalf("trial %d: masks counted %d stall cycles, the queries %d", trial, a, b)
		}
		if a, b := masks.CrashCycles.Load(), sites.CrashCycles.Load(); a != b {
			t.Fatalf("trial %d: masks counted %d crash cycles, the queries %d", trial, a, b)
		}
	}
}
