package engine

import (
	"testing"

	"combining/internal/core"
	"combining/internal/faults"
	"combining/internal/rmw"
	"combining/internal/word"
)

// A wiring nobody planned for: a binary reduction tree, the shape of the
// in-network-reduction fabrics that descend from the Ultracomputer switch
// (SHARP-style aggregation trees; see PAPERS.md).  Eight processors hang off
// the leaves, one memory module sits behind the root, and the seven stations
// in between carry neither: requests for a hot cell combine pairwise on the
// way up, the root hands memory one message, and the replies decombine on
// the way down the path they recorded.  It is neither a Staged wiring (its
// columns narrow) nor a Direct one (interior nodes host nothing), and it
// needs no engine of its own: a table and a schedule, below, are all of it.

const treeProcs = 8

// treeLinks wires the tree in heap order: station 0 is the root, station i's
// children are 2i+1 and 2i+2, stations 3–6 take two processors each.  Every
// station has one forward queue, toward its parent, and two reverse queues,
// toward its children; an arrival stamps which child it came from.
func treeLinks() *Links {
	const stations = treeProcs - 1
	lk := &Links{
		Name: "tree", Ports: 1, RevPorts: 2, PathLen: 3,
		Fwd: make([]Link, stations), FwdAt: make([]Coord, stations),
		Rev: make([]Link, 2*stations), RevAt: make([]Coord, 2*stations),
		Proc: make([]Link, treeProcs), ProcAt: make([]Coord, treeProcs), Home: make([]Coord, treeProcs),
		Route: make([][]uint8, stations),
	}
	lk.Fwd[0], lk.FwdAt[0] = Link{To: -1}, Coord{Stage: 3} // the root's link into module 0
	for st := int32(0); st < stations; st++ {
		lk.Route[st] = []uint8{0}
		if st > 0 {
			parent, child := (st-1)/2, (st-1)%2
			lk.Fwd[st], lk.FwdAt[st] = Link{To: parent, In: child}, Coord{1, parent, child}
		}
		for c := int32(0); c < 2; c++ {
			to := 2*st + 1 + c // a station, or past them a processor
			if to >= stations {
				to = -1 - (to - stations)
			}
			lk.Rev[2*st+c], lk.RevAt[2*st+c] = Link{To: to}, Coord{1, st, c}
		}
	}
	for p := int32(0); p < treeProcs; p++ {
		leaf := stations/2 + p/2
		lk.Proc[p], lk.ProcAt[p], lk.Home[p] = Link{To: leaf, In: p % 2}, Coord{0, leaf, p % 2}, Coord{2, p, 0}
	}
	return lk
}

type tree struct{ Shell }

func newTree(plan *faults.Plan, inj []Injector, revCap int) *tree {
	t := &tree{}
	t.Init(ShellConfig{
		Engine: "tree", Injectors: inj, Modules: 1, Service: 1, MemQueueCap: 4,
		Stations: NewStations(treeProcs-1, 1, 2, 4, revCap, core.Unbounded, core.Policy{}),
		Links:    treeLinks(), Faults: plan,
		Hooks: Hooks{
			Sweep:     t.sweep,
			CanFeed:   t.RoomInModule,
			Saturated: func() bool { return false },
			Observe:   func(*Counters, map[string]int64) {},
		},
	})
	return t
}

// sweep is the tree's schedule.  Station order is free: the hops' stamps
// keep every message to one link per cycle.
func (t *tree) sweep() {
	ln := t.Lane(0)
	for st := 0; st < treeProcs-1; st++ {
		t.RevHop(st, 0, ln)
	}
	t.Tick(0, 0, ln)
	for st := 0; st < treeProcs-1; st++ {
		t.FwdHop(st, 0, ln)
	}
	t.Commit()
	for p := 0; p < treeProcs; p++ {
		t.Inject(p, t.Lane(0))
	}
}

// TestTreeWiring runs hot-spot traffic through the tree — clean, under the
// adversarial plan, and under station, module and link crashes with drops —
// and holds it to what every machine in the repo is held to: every request
// answered exactly once, every cell's replies those of a serial memory.
func TestTreeWiring(t *testing.T) {
	crashDrop := faults.Default(6)
	crashDrop.Crashes = []faults.Window{{Stage: 0, Index: 1, From: 150, To: 190}, {Stage: 0, Index: 0, From: 400, To: 430}}
	crashDrop.MemCrashes = []faults.Window{{Stage: -1, Index: 0, From: 260, To: 300}}
	crashDrop.LinkCrashes = []faults.Window{{Stage: 1, Index: 2, From: 60, To: 90}}
	for _, tc := range []struct {
		name    string
		plan    *faults.Plan
		engaged []string
	}{
		{"clean", nil, []string{"combines"}},
		{"adversarial", faults.DefaultAdversarial(4),
			[]string{"combines", "reordered_held", "dup_injected", "corrupt_dropped", "retries", "duplicates_suppressed"}},
		{"crashdrop", crashDrop,
			[]string{"combines", "crashes", "restores", "checkpoints", "lost_in_flight", "drops_fwd", "drops_rev", "retries"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const ops = 60
			adders, inj := newAdders(treeProcs, ops)
			var m Machine = newTree(tc.plan, inj, 4)
			if !m.Drain(400000) {
				t.Fatalf("did not drain (stalled=%v):\n%s", m.Stalled(), m.StallReport())
			}
			checkAdders(t, m, adders, ops, tc.engaged)
		})
	}
}

// TestIdleModuleCountsCreditHold: a module with nothing to serve, behind a
// station at its reverse credit limit, still counts a held completion every
// cycle — Tick's credit check comes before it asks the module anything.  The
// occupancy index lets Tick skip an idle module only while the station's
// reverse queues are empty too; a skip on the module's count alone would
// lose exactly these holds and move holds_mem_out in every digest.
func TestIdleModuleCountsCreditHold(t *testing.T) {
	_, inj := newAdders(treeProcs, 0)
	tr := newTree(nil, inj, 1)
	sts, ln := tr.Stations(), tr.Lane(0)
	tr.Tick(0, 0, ln)
	if ln.HoldsMemOut != 0 {
		t.Fatalf("an empty machine counted %d credit holds", ln.HoldsMemOut)
	}
	// One reply queued toward child 1 puts the root at its credit limit.
	sts.PutRev(0, &Rev{Rep: core.Reply{ID: 1}, Path: Path(0).Push(0).Push(0).Push(1)}, 0, ln)
	if sts.CanAcceptRev(0) || tr.Memory().Module(0).QueueLen() != 0 {
		t.Fatalf("setup: root has credit (%v) or the module is not idle", sts.CanAcceptRev(0))
	}
	for i := 0; i < 3; i++ {
		tr.Tick(0, 0, ln)
	}
	if ln.HoldsMemOut != 3 {
		t.Errorf("idle module behind a credit-less station: %d holds over 3 ticks, want 3", ln.HoldsMemOut)
	}
	sts.TakeRev(0, 1)
	tr.Tick(0, 0, ln)
	if ln.HoldsMemOut != 3 {
		t.Errorf("a hold was counted with the credit back: %d", ln.HoldsMemOut)
	}
}

// heldTree is the tree with a memory combining queue at the root — queue
// Ports, beyond its one link queue, as a cube node has — two deep, and
// wait buffers of one record.  The root's queue is full: a request for
// another cell, then the head's partner, a request for the head's cell.
// Its wait buffer is full too, so the head blocked at station 1 is refused
// every cycle with a memory hold and a combine rejection.  Nothing sweeps
// the tree; a test moves station 1's head by hand (hop).  Each processor
// has one request to offer, which only a test that injects by hand asks for.
type heldTree struct {
	*tree
	ln *Lane
}

const (
	hotAddr            word.Addr  = 3
	headID, fillID     word.ReqID = 1, 99
	partnerID, otherID word.ReqID = 2, 3
)

func newHeldTree(t *testing.T, partner, head rmw.Mapping, plan *faults.Plan) *heldTree {
	lk := treeLinks()
	lk.Route[0] = []uint8{1}
	_, inj := newAdders(treeProcs, 1)
	tr := &tree{}
	tr.Init(ShellConfig{
		Engine: "tree", Injectors: inj, Modules: 1, Service: 1, MemQueueCap: 4,
		Stations: NewStations(treeProcs-1, 2, 2, 2, 4, 1, core.Policy{}),
		Links:    lk, Faults: plan,
		Hooks: Hooks{
			Sweep:     func() {},
			CanFeed:   tr.RoomInModule,
			Saturated: func() bool { return false },
			Observe:   func(*Counters, map[string]int64) {},
		},
	})
	h := &heldTree{tree: tr, ln: tr.Lane(0)}
	h.offer(t, 0, 1, core.NewRequest(otherID, hotAddr+1, rmw.FetchAdd(1), 4), false)
	h.offer(t, 0, 1, core.NewRequest(partnerID, hotAddr, partner, 5), false)
	h.st.PushRecord(0, fillID, Record{})
	h.book(1) // the record stands for the request a combine absorbed
	h.offer(t, 1, 0, core.NewRequest(headID, hotAddr, head, 0), false)
	return h
}

// book counts n requests the test planted (or, negative, removed) by hand,
// outside any port, as issued.  On a clean machine every request in the
// fabric is one issued and not completed (Shell.InFlight), which
// CheckLoads holds; under a plan the retry tracker, which sees no planted
// request, answers for the ledger, and nothing is booked.
func (h *heldTree) book(n int) {
	if h.trk == nil {
		h.tot.Issued += int64(n)
	}
}

// offer lands req on queue out of station at, as a new message or, when
// combine is set, combined into the one queued for its cell.
func (h *heldTree) offer(t *testing.T, at, out int, req core.Request, combine bool) {
	t.Helper()
	var sh Lane
	if !h.st.PutFwd(at, &Fwd{Req: req}, out, Path(0).Push(1), uint32(h.tot.Cycles), &sh) || (sh.Combines == 1) != combine {
		t.Fatalf("setup: request %d refused, or combined: %v", req.ID, sh.Combines == 1)
	}
	h.book(1)
}

// tick moves the clock one cycle: the part of Step's prologue the hops
// read, with nothing swept.
func (h *heldTree) tick() {
	h.tot.Cycles++
	h.linkOpen = h.flt != nil && h.flt.LinkWindowOpen(h.tot.Cycles)
}

// hop moves the clock one cycle and makes station 1's forward move.
func (h *heldTree) hop() {
	h.tick()
	h.FwdHop(1, 0, h.ln)
}

// check fails the test unless the head is still blocked (or not) and the
// root has counted the rejections and memory holds given.
func (h *heldTree) check(t *testing.T, blocked bool, rejections, holds int64) {
	t.Helper()
	q := &h.st.Fwd(1)[0]
	got := q.Len() == 1 && h.st.Body(q.Front().H).Req.ID == headID
	if got != blocked || h.st.wait[0].Rejections != rejections || h.ln.HoldsMem != holds {
		t.Fatalf("head blocked: %v, %d rejections, %d memory holds; want %v, %d, %d",
			got, h.st.wait[0].Rejections, h.ln.HoldsMem, blocked, rejections, holds)
	}
}

// TestBlockedHeadMemo holds the refusal memo to the path it skips: a head
// blocked n cycles counts the n rejections and memory holds the full path
// would, and each thing AcceptFwd's answer depends on ends the memo on the
// next cycle — a pop or an in-place combine at the refusing queue, a flip of
// its wait buffer's room, an in-place combine into the head itself.  A load
// combines with anything and a fetch-add with no fetch-or, so a combine in
// place can turn a rejection into none.  A station with an Intercept hook
// sees every arrival and keeps no memo; a traced one memoises, and a memo
// hit reports the rejection it repeats.  A memo never spares a head its
// link: on the first cycle a link-down window covers the link of a head
// whose memo matches — a forward link, or a processor port's — the head is
// lost there, counted in drops_fwd, and popped (the port marks it sent).
func TestBlockedHeadMemo(t *testing.T) {
	const n = 5
	load, or, add := rmw.Mapping(rmw.Load{}), rmw.FetchOr(1), rmw.FetchAdd(2)
	t.Run("counts", func(t *testing.T) {
		h := newHeldTree(t, load, or, nil)
		for range n {
			h.hop()
		}
		h.check(t, true, n, n)
		if k := h.fwdMemo[1]; k.up != h.st.Fwd(1)[0].Ver() || !k.rejected || !k.held {
			t.Fatalf("the memo did not engage: %+v", k)
		}
	})
	t.Run("pop", func(t *testing.T) {
		h := newHeldTree(t, load, or, nil)
		h.hop()
		h.hop()
		h.st.TakeFwd(0, 1)
		h.hop()
		h.check(t, false, 3, 2) // the partner is still there, the wait buffer still full
	})
	t.Run("wait buffer room", func(t *testing.T) {
		h := newHeldTree(t, load, or, nil)
		h.hop()
		h.hop()
		h.st.wait[0].Pop(fillID)
		h.hop()
		h.check(t, false, 2, 2)
		if h.st.wait[0].Len() != 1 {
			t.Fatalf("the head did not combine into its partner: %d wait records", h.st.wait[0].Len())
		}
	})
	t.Run("touch downstream", func(t *testing.T) {
		h := newHeldTree(t, load, or, nil)
		h.hop()
		h.hop()
		h.st.wait[0].Pop(fillID)                                    // room for the record of …
		h.offer(t, 0, 1, core.NewRequest(7, hotAddr, add, 6), true) // … a fetch-add into the load
		h.hop()
		h.check(t, true, 2, 3)
	})
	t.Run("touch upstream", func(t *testing.T) {
		h := newHeldTree(t, or, load, nil)
		h.hop()
		h.hop()
		h.offer(t, 1, 0, core.NewRequest(8, hotAddr, add, 1), true) // the head keeps its id and attempt
		h.hop()
		h.check(t, true, 2, 3)
	})
	t.Run("key", func(t *testing.T) {
		h := newHeldTree(t, load, or, nil)
		h.hop()
		m, k := h.store.fwd(h.st.Fwd(1)[0].Front()), &h.fwdMemo[1]
		if k.up != h.st.Fwd(1)[0].Ver() || !h.refusedAgain(0, k) {
			t.Fatal("the memo does not match the refusal it just recorded")
		}
		if h.st.Fwd(0)[1].Touch(); h.refusedAgain(0, k) {
			t.Error("the memo matched a touched refusing queue")
		}
		// A port's memo names its message: a new one, or a retransmit of
		// the same, is not the message it was written for.
		pk := portRefusal{id: m.Req.ID, attempt: m.Req.Attempt}
		id, attempt := m, m
		id.Req.ID++
		attempt.Req.Attempt++
		if !pk.names(&m) || pk.names(&id) || pk.names(&attempt) {
			t.Errorf("a port memo for %d/%d names it %v, id %d %v, attempt %d %v", m.Req.ID, m.Req.Attempt,
				pk.names(&m), id.Req.ID, pk.names(&id), attempt.Req.Attempt, pk.names(&attempt))
		}
	})
	t.Run("intercept", func(t *testing.T) {
		h := newHeldTree(t, load, or, nil)
		calls := 0
		h.st.Intercept = func(_ *Stations, at, _ int, _ FwdEntry, _ Path, _ uint32, _ *Lane) bool {
			if at != 0 {
				t.Errorf("the Intercept hook was asked at station %d, not the root", at)
			}
			calls++
			return false
		}
		for range n {
			h.hop()
		}
		h.check(t, true, n, n)
		if calls != n || h.fwdMemo[1] != (refusal{}) {
			t.Fatalf("%d cycles behind an Intercept station: %d calls, memo %+v", n, calls, h.fwdMemo[1])
		}
	})
	t.Run("trace", func(t *testing.T) {
		h := newHeldTree(t, load, or, nil)
		rejected := 0
		h.st.trace = func(at int, kind EventKind, _, _ word.ReqID, _ word.Addr) {
			if kind == Rejected && at == 0 {
				rejected++
			}
		}
		for range n {
			h.hop()
		}
		h.check(t, true, n, n)
		if k := h.fwdMemo[1]; rejected != n || k.up != h.st.Fwd(1)[0].Ver() || !k.rejected || !k.held {
			t.Fatalf("%d cycles behind a traced station: %d Rejected events, memo %+v", n, rejected, k)
		}
	})
	t.Run("link down", func(t *testing.T) {
		// Station 1's link into the root is the forward-hop site (1, 0).
		h := newHeldTree(t, load, or, &faults.Plan{LinkCrashes: []faults.Window{{Stage: 1, Index: 0, From: 3, To: 4}}})
		h.hop()
		h.hop()
		if k := &h.fwdMemo[1]; k.up != h.st.Fwd(1)[0].Ver() || !h.refusedAgain(0, k) {
			t.Fatal("setup: the memo does not match the head it refused")
		}
		h.check(t, true, 2, 2)
		h.hop() // the window opens
		h.check(t, false, 2, 2)
		if drops := h.Snapshot().Counters["drops_fwd"]; drops != 1 || h.Loads()[1].Fwd != 0 || len(h.ln.freed) != 1 {
			t.Fatalf("the head was not lost on the down link: drops_fwd %d, index %+v, %d bodies freed",
				drops, h.Loads()[1], len(h.ln.freed))
		}
	})
	t.Run("link down at a port", func(t *testing.T) {
		// Processor 0's link enters station 3 at fault site (0, 3).  Two
		// requests for other cells fill the queue its request joins.
		h := newHeldTree(t, load, or, &faults.Plan{LinkCrashes: []faults.Window{{Stage: 0, Index: 3, From: 3, To: 4}}})
		h.offer(t, 3, 0, core.NewRequest(10, hotAddr+2, add, 2), false)
		h.offer(t, 3, 0, core.NewRequest(11, hotAddr+3, add, 3), false)
		for range 2 {
			h.tick()
			if h.Inject(0, h.Lane(0)) {
				t.Fatal("setup: the port's request crossed into a full queue")
			}
		}
		if k := &h.portMemo[0]; !k.names(h.Offer(0, h.Lane(0))) || !h.refusedAgain(3, &k.refusal) {
			t.Fatal("setup: the port's memo does not match the request it refused")
		}
		h.tick() // the window opens
		if !h.Inject(0, h.Lane(0)) || h.hasPending[0] || h.Snapshot().Counters["drops_fwd"] != 1 {
			t.Fatalf("the port's request was not lost on the down link: pending %v, drops_fwd %d",
				h.hasPending[0], h.Snapshot().Counters["drops_fwd"])
		}
	})
}
