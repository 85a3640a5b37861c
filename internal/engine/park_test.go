package engine

import (
	"testing"

	"combining/internal/core"
	"combining/internal/faults"
	"combining/internal/rmw"
	"combining/internal/word"
)

// newParkTree is heldTree with a wait buffer of fixed room (waitCap 0 or
// core.Unbounded), so a refusal may park, and the root's link queue into
// the module as the refusing queue: two deep and full, holding a request
// for another cell and then the head's partner.  The head waits at station
// 1; nothing sweeps the tree.
func newParkTree(t *testing.T, waitCap int, partner, head rmw.Mapping, plan *faults.Plan) *heldTree {
	h := newParkRoot(t, waitCap, partner, plan, nil)
	h.offer(t, 1, 0, core.NewRequest(headID, hotAddr, head, 0), false)
	return h
}

// newParkRoot is newParkTree with no head yet; canFeed, when set, is the
// module's feed rule.
func newParkRoot(t *testing.T, waitCap int, partner rmw.Mapping, plan *faults.Plan, canFeed func(int) bool) *heldTree {
	_, inj := newAdders(treeProcs, 2)
	tr := &tree{}
	if canFeed == nil {
		canFeed = tr.RoomInModule
	}
	tr.Init(ShellConfig{
		Engine: "tree", Injectors: inj, Modules: 1, Service: 1, MemQueueCap: 4,
		Stations: NewStations(treeProcs-1, 2, 2, 2, 4, waitCap, core.Policy{}),
		Links:    treeLinks(), Faults: plan,
		Hooks: Hooks{
			Sweep:     func() {},
			CanFeed:   canFeed,
			Saturated: func() bool { return false },
			Observe:   func(*Counters, map[string]int64) {},
		},
	})
	h := &heldTree{tree: tr, ln: tr.Lane(0)}
	h.offer(t, 0, 0, core.NewRequest(otherID, hotAddr+1, rmw.FetchAdd(1), 4), false)
	h.offer(t, 0, 0, core.NewRequest(partnerID, hotAddr, partner, 5), false)
	return h
}

// marked reports whether station at's forward side is in the walk.
func (h *heldTree) marked(at int) bool { return h.st.occupied(true, 0, 0, 0)&(1<<at) != 0 }

// parkedAt reports whether station 1's head is parked, registered on the
// root's link queue, and its side out of the walk.
func (h *heldTree) parkedAt1() bool {
	return h.Loads()[1].Park == 1 && h.st.waiters[0] != 0 && !h.marked(1)
}

// checkParked fails the test unless the head is still at station 1 and the
// machine counts the rejections given, parks included, with the index whole.
func (h *heldTree) checkParked(t *testing.T, blocked bool, rejections int64) {
	t.Helper()
	q := &h.st.Fwd(1)[0]
	got := q.Len() == 1 && h.st.Body(q.Front().H).Req.ID == headID
	if got != blocked || h.Rejections() != rejections || h.Snapshot().Counters["combine_rejects"] != rejections {
		t.Fatalf("head blocked: %v, %d rejections (snapshot %d); want %v, %d",
			got, h.Rejections(), h.Snapshot().Counters["combine_rejects"], blocked, rejections)
	}
	if err := h.CheckLoads(); err != nil {
		t.Fatal(err)
	}
}

// TestParkedHeadWakes holds parking to the memo it stands in for: a head
// refused with a combine rejection parks on its first refusal, leaves the
// walk, and from then on counts one rejection a cycle without a visit —
// exact at every cycle boundary, and settled into the refusing station's
// count when it unparks — until the queue that refused it changes: a pop,
// an in-place combine into it, or its station's crash wakes the head,
// which is visited and moves as the memo's full path would.  A combine
// into the parked head itself marks its side too, and a crash of the head's
// own station settles and forgets the park.  A bounded wait buffer, a
// traced rejection, an Intercept hook, and a link or station a fault
// window names (at any cycle) never park.
func TestParkedHeadWakes(t *testing.T) {
	const n = 5
	add := rmw.FetchAdd(2)
	t.Run("counts", func(t *testing.T) {
		h := newParkTree(t, 0, add, add, nil)
		for c := int64(1); c <= n; c++ {
			h.hop()
			h.checkParked(t, true, c)
			if !h.parkedAt1() || h.Totals().Parks+h.ln.Parks != 1 || h.st.wait[0].Rejections != 1 {
				t.Fatalf("cycle %d: parked %v (index %+v, waiters %#b), %d parks, %d rejections counted so far",
					c, h.parkedAt1(), h.Loads()[1], h.st.waiters[0], h.ln.Parks, h.st.wait[0].Rejections)
			}
		}
	})
	t.Run("pop", func(t *testing.T) {
		h := newParkTree(t, 0, add, add, nil)
		for range n {
			h.hop()
		}
		h.st.TakeFwd(0, 0) // the other cell's request leaves; the partner stays
		if !h.marked(1) || h.st.waiters[0] != 0 {
			t.Fatalf("the pop did not wake the head: marked %v, waiters %#b", h.marked(1), h.st.waiters[0])
		}
		h.hop()
		h.checkParked(t, false, n+1) // rejected once more, then queued behind its partner
		if h.Loads()[1] != (Load{}) || h.marked(1) {
			t.Fatalf("station 1 emptied, yet its index reads %+v, marked %v", h.Loads()[1], h.marked(1))
		}
	})
	t.Run("touch", func(t *testing.T) {
		// With room for every record, the head has no partner to be
		// rejected by — the queue holds two other cells — so it parks
		// counting nothing; a fetch-add combining into the root's queue
		// rewrites it in place and wakes the head, which is refused again
		// and parks anew.
		h := newParkTree(t, core.Unbounded, add, rmw.FetchOr(3), nil)
		for range n {
			h.hop()
		}
		h.checkParked(t, true, 0)
		if !h.parkedAt1() {
			t.Fatalf("the head did not park: index %+v", h.Loads()[1])
		}
		h.offer(t, 0, 0, core.NewRequest(7, hotAddr+1, add, 6), true)
		if !h.marked(1) || h.st.waiters[0] != 0 {
			t.Fatalf("the combine did not wake the head: marked %v, waiters %#b", h.marked(1), h.st.waiters[0])
		}
		h.hop()
		h.checkParked(t, true, 0)
		if !h.parkedAt1() || h.ln.Parks != 2 {
			t.Fatalf("the woken head did not park again: index %+v, %d parks", h.Loads()[1], h.ln.Parks)
		}
	})
	t.Run("touch the head", func(t *testing.T) {
		// A fetch-or combining into the parked fetch-or rewrites the head: its
		// side rejoins the walk, and the next visit takes the full path.
		h := newParkTree(t, core.Unbounded, add, rmw.FetchOr(3), nil)
		h.hop()
		h.offer(t, 1, 0, core.NewRequest(8, hotAddr, rmw.FetchOr(4), 1), true)
		if !h.marked(1) || h.st.waiters[0] == 0 {
			t.Fatalf("a combine into the parked head: marked %v, waiters %#b", h.marked(1), h.st.waiters[0])
		}
		if err := h.CheckLoads(); err != nil {
			t.Fatal(err)
		}
		up := h.fwdMemo[1].up
		h.hop()
		if k := h.fwdMemo[1]; k.up == up || !h.parkedAt1() {
			t.Fatalf("the rewritten head was not asked again: memo %+v (was up %d), index %+v", k, up, h.Loads()[1])
		}
		h.checkParked(t, true, 0)
	})
	t.Run("wake later in the walk", func(t *testing.T) {
		// Station 2's fetch-add is refused by the root's fetch-or for its
		// cell and parks.  The next cycle's walk reaches station 1 first,
		// whose store combines into that fetch-or, making it a store the
		// fetch-add combines with: the walk must visit station 2 in the
		// same cycle, as the memo's visit would have, though its bit was
		// clear when the walk read the word.  The module takes nothing, so
		// the root's queue stays full.
		h := newParkRoot(t, core.Unbounded, rmw.FetchOr(1), nil, func(int) bool { return false })
		h.offer(t, 2, 0, core.NewRequest(headID, hotAddr, add, 1), false)
		h.tick()
		h.FwdHop(2, 0, h.ln)
		if h.Loads()[2].Park != 1 || h.marked(2) {
			t.Fatalf("setup: station 2's head did not park: index %+v", h.Loads()[2])
		}
		h.offer(t, 1, 0, core.NewRequest(8, hotAddr, rmw.Const{V: 7}, 2), false)
		h.tick()
		h.HopRow(true, 0, 0, 0, 0, h.ln)
		if h.st.Fwd(1)[0].Len() != 0 || h.st.Fwd(2)[0].Len() != 0 || h.ln.Combines != 2 {
			t.Fatalf("after the walk: station 1 holds %d, station 2 %d, %d combines; want both combined this cycle",
				h.st.Fwd(1)[0].Len(), h.st.Fwd(2)[0].Len(), h.ln.Combines)
		}
		if err := h.CheckLoads(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("crash downstream", func(t *testing.T) {
		h := newParkTree(t, 0, add, add, nil)
		for range n {
			h.hop()
		}
		h.tick()
		h.flush(0) // a crash edge: the root's queues go, and the head wakes
		if !h.marked(1) || h.st.waiters[0] != 0 {
			t.Fatalf("the crash did not wake the head: marked %v, waiters %#b", h.marked(1), h.st.waiters[0])
		}
		h.FwdHop(1, 0, h.ln)
		h.checkParked(t, false, n) // the cycles it sat out counted, then it moved
	})
	t.Run("crash at the head", func(t *testing.T) {
		h := newParkTree(t, 0, add, add, nil)
		for range n {
			h.hop()
		}
		h.tick()
		h.flush(1)
		if h.Rejections() != n || h.st.wait[0].Rejections != n || h.Loads()[1] != (Load{}) || h.st.waiters[0] != 0 {
			t.Fatalf("the flushed park: %d rejections (%d settled), index %+v, waiters %#b; want %d settled",
				h.Rejections(), h.st.wait[0].Rejections, h.Loads()[1], h.st.waiters[0], n)
		}
		h.checkParked(t, false, n)
	})
	t.Run("never", func(t *testing.T) {
		// Station 1's link into the root is site (1, 0); station 1 is
		// switch site (0, 1).
		later := faults.Window{Stage: 1, Index: 0, From: 1000, To: 1001}
		for _, tc := range []struct {
			name    string
			waitCap int
			plan    *faults.Plan
			set     func(*heldTree)
		}{
			{"bounded wait buffer", 1, nil, func(h *heldTree) { h.st.PushRecord(0, fillID, Record{}) }},
			{"traced rejection", 0, nil, func(h *heldTree) { h.st.trace = func(int, EventKind, word.ReqID, word.ReqID, word.Addr) {} }},
			{"intercept", 0, nil, func(h *heldTree) {
				h.st.Intercept = func(*Stations, int, int, FwdEntry, Path, uint32, *Lane) bool { return false }
			}},
			{"link-down window", 0, &faults.Plan{LinkCrashes: []faults.Window{later}}, func(*heldTree) {}},
			{"stall window", 0, &faults.Plan{Stalls: []faults.Window{{Stage: 0, Index: 1, From: 1000, To: 1001}}}, func(*heldTree) {}},
		} {
			h := newParkTree(t, tc.waitCap, add, add, tc.plan)
			tc.set(h)
			for range n {
				h.hop()
			}
			if h.Loads()[1].Park != 0 || h.ln.Parks != 0 || h.st.wait[0].Rejections != n || !h.marked(1) {
				t.Errorf("%s: %d parks, index %+v, %d rejections, marked %v; want no park and %d rejections",
					tc.name, h.ln.Parks, h.Loads()[1], h.st.wait[0].Rejections, h.marked(1), n)
			}
		}
	})
}

// TestParkedPortWakes: a processor's refused offer parks, and a parked port
// answers no at once; under a plan a delivery to the port lifts the park
// (it may have made a retransmit the port holds dead), and so does a
// retransmit falling due at it, since the port now offers that first.
// Processor 0's link enters station 3: its first request is taken, a
// request for another cell then fills the queue, and its second is refused.
func TestParkedPortWakes(t *testing.T) {
	h := newParkTree(t, 0, rmw.FetchAdd(2), rmw.FetchAdd(2), &faults.Plan{Seed: 1})
	parks := func() int64 { return h.Totals().Parks + h.ln.Parks }
	h.tick()
	first := h.Offer(0, h.ln).Req
	if !h.Inject(0, h.ln) {
		t.Fatal("setup: the first request was refused")
	}
	h.offer(t, 3, 0, core.NewRequest(10, hotAddr+2, rmw.FetchAdd(1), 2), false)
	h.tick()
	if h.Inject(0, h.ln) || !h.st.portParked(0) || parks() != 1 {
		t.Fatalf("setup: the refused offer did not park (parked %v, %d parks)", h.st.portParked(0), parks())
	}
	// A parked port answers without consulting its offer: a message it
	// would name differently goes unasked.
	id := h.pending[0].Req.ID
	h.pending[0].Req.ID = 99
	if h.tick(); h.Inject(0, h.ln) || h.portMemo[0].id != id {
		t.Fatalf("a parked port consulted its offer: memo %+v", h.portMemo[0])
	}
	h.pending[0].Req.ID = id
	h.tick()
	h.complete(&Rev{Rep: core.Reply{ID: first.ID}, Src: 0, Issue: 1}, h.ln)
	if h.st.portParked(0) || h.st.waiters[3*h.st.nf] != 0 {
		t.Fatalf("a delivery left the port parked (%v, waiters %#b)", h.st.portParked(0), h.st.waiters[3*h.st.nf])
	}
	if h.Inject(0, h.ln) || !h.st.portParked(0) || parks() != 2 {
		t.Fatalf("the woken offer, refused again, did not park (parked %v, %d parks)", h.st.portParked(0), parks())
	}
	for c := 0; h.st.portParked(0); c++ {
		if c == 2000 {
			t.Fatal("no retransmit fell due in 2000 cycles")
		}
		h.Step() // the prologue expires retransmits; nothing sweeps
		if err := h.CheckLoads(); err != nil {
			t.Fatal(err)
		}
		if h.st.portParked(0) && h.Inject(0, h.ln) {
			t.Fatal("a parked port's offer crossed into a full queue")
		}
	}
	if h.retry[0].Len() != 1 || h.st.waiters[3*h.st.nf] != 0 {
		t.Fatalf("woken with %d retransmits queued, waiters %#b", h.retry[0].Len(), h.st.waiters[3*h.st.nf])
	}
	if h.Inject(0, h.ln) || !h.st.portParked(0) || parks() != 3 || h.portMemo[0].attempt != 1 {
		t.Fatalf("the retransmit was not offered and refused: parked %v, %d parks, memo %+v",
			h.st.portParked(0), parks(), h.portMemo[0])
	}
}

// idle offers nothing until a reply, which never comes: its port sleeps.
type idle struct{}

func (idle) Next(int64) (Injection, bool) { return Injection{UntilReply: true}, false }
func (idle) Deliver(core.Reply, int64)    {}

// TestParkedPortCounts: a port whose offer parks on a rejecting refusal
// leaves the walk (Shell.InjectPorts) and counts one rejection a cycle
// without a visit — Rejections rises by exactly one at every cycle
// boundary, and the snapshot with it — until a wake (a pop of the queue
// that refused it), a delivery under a plan, or a retransmit falling due
// ends the park before the cycle's injection; the cycle it ends in counts
// the visit's own refusal, so the rise stays one.  Processor 0's link
// enters station 3: its first request, for the hot cell, is taken; a
// fetch-add for its private cell then fills the queue, so its second
// request finds that partner, a wait buffer of no room, and a rejection.
// The other processors sleep.
func TestParkedPortCounts(t *testing.T) {
	for _, end := range []string{"wake", "delivery", "retransmit"} {
		t.Run(end, func(t *testing.T) {
			var plan *faults.Plan
			if end != "wake" {
				plan = &faults.Plan{Seed: 1}
			}
			h := newParkTree(t, 0, rmw.FetchAdd(2), rmw.FetchAdd(2), plan)
			for p := 1; p < treeProcs; p++ {
				h.inj[p] = idle{}
			}
			var before func() // the cycle's event, ahead of its injection
			h.hooks.Sweep = func() {
				if before != nil {
					before()
					before = nil
				}
				h.InjectPorts(0, h.Turn(treeProcs), h.Lane(0), EveryPort)
			}
			if h.Step(); h.st.Fwd(3)[0].Len() != 1 {
				t.Fatal("setup: the first request was not taken")
			}
			first := h.store.At(h.st.Fwd(3)[0].Front().H).Req
			h.offer(t, 3, 0, core.NewRequest(10, word.Addr(treeProcs), rmw.FetchAdd(1), 2), false)
			rejections := h.Rejections()
			step := func(c int) {
				t.Helper()
				h.Step()
				if err := h.CheckLoads(); err != nil {
					t.Fatal(err)
				}
				got := h.Rejections()
				if got != rejections+1 || h.Snapshot().Counters["combine_rejects"] != got {
					t.Fatalf("cycle %d: %d rejections (snapshot %d), want %d", c, got, h.Snapshot().Counters["combine_rejects"], rejections+1)
				}
				rejections = got
			}
			const n = 6
			for c := 0; c < n; c++ {
				step(c)
				if !h.st.portParked(0) || h.st.awake[0]&1 != 0 {
					t.Fatalf("cycle %d: the refused port is not parked out of the walk", c)
				}
			}
			parks := h.Totals().Parks
			switch end {
			case "wake":
				before = func() { h.st.TakeFwd(3, 0) } // the hot request leaves
				step(n)
				if h.st.portParked(0) || h.st.Fwd(3)[0].Len() != 2 {
					t.Fatal("the woken offer was not taken behind its partner")
				}
				h.Step()
				if h.Rejections() != rejections {
					t.Fatalf("a port with nothing to offer counted %d rejections", h.Rejections()-rejections)
				}
			case "delivery":
				before = func() { h.complete(&Rev{Rep: core.Reply{ID: first.ID}, Src: 0, Issue: 1}, h.ln) }
				step(n)
				if !h.st.portParked(0) || h.Totals().Parks != parks+1 {
					t.Fatalf("the woken offer did not park again: parked %v, %d parks", h.st.portParked(0), h.Totals().Parks-parks)
				}
			case "retransmit":
				for c := n; h.retry[0].Len() == 0; c++ {
					if c == 2000 {
						t.Fatal("no retransmit fell due in 2000 cycles")
					}
					step(c)
				}
				if !h.st.portParked(0) || h.Totals().Parks != parks+1 || h.portMemo[0].attempt != 1 {
					t.Fatalf("the retransmit did not park in turn: parked %v, %d parks, memo %+v", h.st.portParked(0), h.Totals().Parks-parks, h.portMemo[0])
				}
			}
		})
	}
}

// from offers one request from cycle at on, answering no before then; then
// it sleeps.
type from struct {
	at  int64
	req *core.Request
}

func (f *from) Next(cycle int64) (Injection, bool) {
	switch {
	case f.req == nil:
		return Injection{UntilReply: true}, false
	case cycle < f.at:
		return Injection{}, false
	}
	r := *f.req
	f.req = nil
	return Injection{Req: r}, true
}

func (f *from) Deliver(core.Reply, int64) {}

// TestPortWakeLaterInTheWalk is "wake later in the walk" for ports: station
// 3's full queue ends with a fetch-or, which refuses processor 1's
// fetch-add for its cell with room to spare, so the offer parks, counting
// nothing.  At cycle 8 the walk starts at processor 0, whose store combines
// into the fetch-or, making it a store the fetch-add combines with: the
// walk must offer processor 1 in the same cycle, as the per-port loop
// would have, though its bit was clear when the walk read the word.
func TestPortWakeLaterInTheWalk(t *testing.T) {
	h := newParkTree(t, core.Unbounded, rmw.FetchAdd(2), rmw.FetchAdd(2), nil)
	h.offer(t, 3, 0, core.NewRequest(10, hotAddr+2, rmw.FetchAdd(1), 2), false)
	h.offer(t, 3, 0, core.NewRequest(11, hotAddr, rmw.FetchOr(1), 3), false)
	store, add := core.NewRequest(20, hotAddr, rmw.Const{V: 7}, 0), core.NewRequest(21, hotAddr, rmw.FetchAdd(1), 1)
	h.inj[0], h.inj[1] = &from{at: treeProcs, req: &store}, &from{req: &add}
	for p := 2; p < treeProcs; p++ {
		h.inj[p] = idle{}
	}
	h.hooks.Sweep = func() { h.InjectPorts(0, h.Turn(treeProcs), h.Lane(0), EveryPort) }
	for h.Cycle() < treeProcs-1 {
		h.Step()
	}
	if !h.st.portParked(1) {
		t.Fatal("setup: the refused fetch-add did not park")
	}
	h.Step()
	if h.st.portParked(1) || h.hasPending[1] || h.hasPending[0] || h.st.Records(3) != 2 {
		t.Fatalf("cycle %d: parked %v, pending %v %v, %d wait records at station 3; want both combined this cycle",
			h.Cycle(), h.st.portParked(1), h.hasPending[0], h.hasPending[1], h.st.Records(3))
	}
	if err := h.CheckLoads(); err != nil {
		t.Fatal(err)
	}
}
