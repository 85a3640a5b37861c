package network

import (
	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/rmw"
	"combining/internal/word"
)

// switchNode is one 2×2 combining switch.  Forward traffic enters on two
// input ports and leaves through two output FIFO queues; combining happens
// when an arriving request finds a queued request for the same address in
// its output queue.  Reverse traffic (replies) enters from the memory side,
// is decombined against the wait buffer, and leaves through two reverse
// FIFO queues toward the processors.
type switchNode struct {
	stage, index int

	// One forward FIFO per output port, bounded by Config.QueueCap, and one
	// reverse FIFO per input port, unbounded as storage: admission is by
	// credit (revCap, canAcceptReply), occupancy by the wait buffer.
	outQ   []core.FIFO[fwdMsg]
	revQ   []core.FIFO[revMsg]
	wait   core.WaitBuffer[netRecord]
	pol    core.Policy
	revCap int // reverse base credit per port; <= 0 means unbounded
	// maxRev is the reverse-queue high-water mark across this switch's
	// ports — the observable the bounded-fan-out invariant is asserted on.
	maxRev int
	// buggyForward enables the incorrect early-reply optimization of
	// Section 5.1 (Config.BuggyLoadForwarding).
	buggyForward bool
	// trace, when non-nil, observes combine/decombine/reject events; the
	// machine stamps the cycle.
	trace func(Event)
}

// fwdReq projects a queued forward message to its request for the shared
// combine scan.
func fwdReq(m *fwdMsg) *core.Request { return &m.Req }

// tryAccept routes a forward message into the output queue for outPort,
// stamping the input port into the path header.  It first attempts to
// combine with a queued request to the same address; failing that it
// appends to the queue if space remains.  It reports false when the
// message cannot be accepted this cycle (the upstream holds it).
//
// m is the message where it waits — the head slot of the upstream queue, or
// the processor port — and is only read: on acceptance it is copied, once,
// into this switch's slot, and the caller then pops it.  On refusal it is
// untouched (the stamp went into spare capacity of the header, beyond its
// length).
func (sw *switchNode) tryAccept(m *fwdMsg, outPort int, inPort uint8, st *Stats) bool {
	path := append(m.Path, inPort)
	q := &sw.outQ[outPort]
	if sw.buggyForward {
		if _, isLoad := m.Req.Op.(rmw.Load); isLoad {
			for _, queued := range q.View() {
				c, isConst := queued.Req.Op.(rmw.Const)
				if !isConst || queued.Req.Addr != m.Req.Addr {
					continue
				}
				// Answer the load NOW with the store's value, while
				// the store is still on its way to memory — the
				// incorrect optimization.  The synthesized reply
				// descends from this switch along the load's path.
				sw.acceptReply(&revMsg{
					rep:        core.Reply{ID: m.Req.ID, Val: word.W(c.V)},
					path:       path,
					issueCycle: m.Issue,
					hot:        m.Hot,
					slots:      1,
				})
				return true
			}
		}
	}
	if q.Len() > 0 && sw.tryCombine(q, m, path, st) {
		return true
	}
	if q.Full() {
		return false
	}
	slot := q.Push()
	*slot = *m
	slot.Path = path
	if n := q.Len(); n > st.MaxOutQueue {
		st.MaxOutQueue = n
	}
	return true
}

// tryCombine attempts to merge m into the non-empty queue q.  Only the LAST
// queued request for the address is a legal combining partner (M2.3) — the
// scan shared with the other engines via core.CombineAtTail.
func (sw *switchNode) tryCombine(q *core.FIFO[fwdMsg], m *fwdMsg, path []uint8, st *Stats) bool {
	tc, rejected, ok := core.CombineAtTail(q.View(), fwdReq, m.Req, sw.pol, sw.wait.CanPush)
	if rejected {
		// A full wait buffer forfeits the combine; count the missed
		// opportunity for the partial-combining ablation.
		sw.wait.Rejections++
		if sw.trace != nil {
			sw.trace(Event{Kind: EvCombineReject,
				ID: m.Req.ID, Addr: m.Req.Addr, Stage: sw.stage, Switch: sw.index})
		}
	}
	if !ok {
		return false
	}
	queued := &q.View()[tc.Index]
	// The message whose id the combined request carries is the one
	// serialized first; the other's routing state goes into the wait-buffer
	// record.
	first, firstPath, second, secondPath := queued, queued.Path, m, path
	if tc.Swapped {
		first, firstPath, second, secondPath = m, path, queued, queued.Path
	}
	nr := netRecord{
		Record:     tc.Rec,
		pathSecond: secondPath,
		issue2:     second.Issue,
		hot2:       second.Hot,
		needs1:     rmw.NeedsValue(first.Req.Op),
		needs2:     rmw.NeedsValue(second.Req.Op),
		reps2:      second.Req.Reps,
	}
	if !sw.wait.Push(tc.Rec.ID1, nr) {
		// Full despite CanPush — cannot happen single-threaded; fall back
		// to plain queueing.
		return false
	}
	*queued = fwdMsg{
		Req:   tc.Combined,
		Src:   first.Src,
		Issue: first.Issue,
		Hot:   first.Hot,
		Path:  firstPath,
	}
	st.Combines++
	if sw.trace != nil {
		sw.trace(Event{Kind: EvCombine,
			ID: tc.Rec.ID1, ID2: tc.Rec.ID2, Addr: m.Req.Addr,
			Stage: sw.stage, Switch: sw.index})
	}
	return true
}

// canAcceptReply is the reserved-credit acceptance check: a reply may enter
// this switch only while every reverse queue sits below the base credit
// revCap.  The check must cover all ports because the reply's decombining
// fan-out is unknown until the wait buffer is consulted — a combined reply
// can scatter leaves across every port.  An accepted reply then appends its
// entire fan-out unconditionally: each leaf beyond the first consumes a wait
// record this switch itself created, so the records double as reserved
// reverse credits and per-port occupancy stays ≤ revCap + wait-buffer
// capacity (the invariant TestReverseBound asserts).  Holding a reply
// upstream when the check fails cannot deadlock: reverse queues drain
// toward the processors, whose delivery ports always consume.
func (sw *switchNode) canAcceptReply() bool {
	if sw.revCap <= 0 {
		return true
	}
	for port := range sw.revQ {
		if sw.revQ[port].Len() >= sw.revCap {
			return false
		}
	}
	return true
}

// acceptReply processes a reply arriving from the memory side: it pops this
// stage's port from the path header, undoes every combine recorded here for
// the id (LIFO, possibly several for k-way combining), and places the
// resulting replies in the reverse queues.  The decombining fan-out restores
// exactly the messages combining removed, so total reverse traffic never
// exceeds the uncombined load — recorded as the maxRev high-water mark and
// asserted in invariant_test.go; admission is gated by canAcceptReply, which
// is why the pushes below need no capacity check.  r is read, not kept: the
// one copy made is into the reverse queue's slot.
func (sw *switchNode) acceptReply(r *revMsg) {
	if sw.wait.Len() > 0 && sw.decombine(r) {
		return
	}
	q := &sw.revQ[r.path[sw.stage]]
	slot := q.Push()
	*slot = *r
	slot.path = r.path[:sw.stage]
	if n := q.Len(); n > sw.maxRev {
		sw.maxRev = n
	}
}

// decombine undoes the most recent combine recorded here that reply r
// answers, if there is one, and accepts the two replies it yields (each of
// which may decombine further).
func (sw *switchNode) decombine(r *revMsg) bool {
	// PopMatch skips records the reply cannot answer: under fault
	// injection a record goes stale when its combined message is dropped
	// downstream, and a later (retransmitted) reply for the same id must
	// pass through rather than synthesize a second requester's reply from
	// a combine that never reached memory.  On a healthy network every
	// record matches and this is exactly Pop.
	match := func(nr netRecord) bool { return core.CanDecombine(nr.Record, r.rep) }
	rec, ok := sw.wait.PopMatch(r.rep.ID, match)
	if !ok {
		return false
	}
	r1, r2 := core.DecombineExact(rec.Record, r.rep)
	if sw.trace != nil {
		sw.trace(Event{Kind: EvDecombine,
			ID: r1.ID, ID2: r2.ID, Stage: sw.stage, Switch: sw.index})
	}
	sw.acceptReply(&revMsg{
		rep:        r1,
		path:       r.path,
		issueCycle: r.issueCycle,
		hot:        r.hot,
		slots:      boolSlots(rec.needs1),
	})
	sw.acceptReply(&revMsg{
		rep:        r2,
		path:       rec.pathSecond,
		issueCycle: rec.issue2,
		hot:        rec.hot2,
		slots:      boolSlots(rec.needs2),
	})
	return true
}

// crash flushes the switch's volatile state — forward queues, reverse
// queues, and the wait buffer's combine records — returning the leaf
// request ids whose only copy here was lost.  A flushed wait record is a
// double loss: the second requester's routing state is gone, so even if the
// combined message's reply returns it passes through (PopMatch finds
// nothing) and the second requester recovers by retransmitting.
func (sw *switchNode) crash() []word.ReqID {
	var ids []word.ReqID
	for port := range sw.outQ {
		fwd := sw.outQ[port].View()
		for i := range fwd {
			ids = engine.LostLeaves(ids, fwd[i].Req.Reps, fwd[i].Req.ID)
		}
		sw.outQ[port].Clear()
		rev := sw.revQ[port].View()
		for i := range rev {
			ids = engine.LostReply(ids, &rev[i].rep)
		}
		sw.revQ[port].Clear()
	}
	for _, rec := range sw.wait.Flush() {
		ids = engine.LostLeaves(ids, rec.reps2, rec.ID2)
	}
	return ids
}

func boolSlots(needs bool) int {
	if needs {
		return 1
	}
	return 0
}
