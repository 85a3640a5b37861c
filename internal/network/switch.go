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

	outQ   [][]fwdMsg // one forward FIFO per output port (radix k)
	revQ   [][]revMsg // one reverse FIFO per input port
	wait   *core.WaitBuffer[netRecord]
	pol    core.Policy
	outCap int // forward queue capacity; <= 0 means unbounded
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

	// CombinedHere counts requests absorbed by combining at this switch.
	CombinedHere int64
}

// fwdReq projects a queued forward message to its request for the shared
// combine scan.
func fwdReq(m *fwdMsg) *core.Request { return &m.Req }

func newSwitch(stage, index, radix, outCap, revCap, waitCap int, pol core.Policy, buggyForward bool) *switchNode {
	return &switchNode{
		stage:        stage,
		index:        index,
		outQ:         make([][]fwdMsg, radix),
		revQ:         make([][]revMsg, radix),
		outCap:       outCap,
		revCap:       revCap,
		wait:         core.NewWaitBuffer[netRecord](waitCap),
		pol:          pol,
		buggyForward: buggyForward,
	}
}

// tryAccept routes a forward message into the output queue for outPort,
// stamping the input port into the path header.  It first attempts to
// combine with a queued request to the same address; failing that it
// appends to the queue if space remains.  It reports false when the
// message cannot be accepted this cycle (the upstream holds it).
func (sw *switchNode) tryAccept(m fwdMsg, outPort int, inPort uint8, st *Stats) bool {
	m.Path = append(m.Path, inPort)
	q := &sw.outQ[outPort]
	if sw.buggyForward {
		if _, isLoad := m.Req.Op.(rmw.Load); isLoad {
			for i := range *q {
				queued := (*q)[i]
				c, isConst := queued.Req.Op.(rmw.Const)
				if !isConst || queued.Req.Addr != m.Req.Addr {
					continue
				}
				// Answer the load NOW with the store's value, while
				// the store is still on its way to memory — the
				// incorrect optimization.  The synthesized reply
				// descends from this switch along the load's path.
				sw.acceptReply(revMsg{
					rep:        core.Reply{ID: m.Req.ID, Val: word.W(c.V)},
					path:       m.Path,
					issueCycle: m.Issue,
					hot:        m.Hot,
					slots:      1,
				})
				return true
			}
		}
	}
	// Only the LAST queued request for the address is a legal combining
	// partner (M2.3) — the scan shared with the other engines via
	// core.CombineAtTail.
	tc, rejected, ok := core.CombineAtTail(*q, fwdReq, m.Req, sw.pol, sw.wait.CanPush)
	if rejected {
		// A full wait buffer forfeits the combine; count the missed
		// opportunity for the partial-combining ablation.
		sw.wait.Rejections++
		if sw.trace != nil {
			sw.trace(Event{Kind: EvCombineReject,
				ID: m.Req.ID, Addr: m.Req.Addr, Stage: sw.stage, Switch: sw.index})
		}
	}
	if ok {
		queued := &(*q)[tc.Index]
		// The message whose id the combined request carries is the
		// one serialized first; the other's routing state goes into
		// the wait-buffer record.
		first, second := *queued, m
		if tc.Swapped {
			first, second = m, *queued
		}
		nr := netRecord{
			Record:     tc.Rec,
			pathSecond: second.Path,
			issue2:     second.Issue,
			hot2:       second.Hot,
			needs1:     rmw.NeedsValue(first.Req.Op),
			needs2:     rmw.NeedsValue(second.Req.Op),
			reps2:      second.Req.Reps,
		}
		if sw.wait.Push(tc.Rec.ID1, nr) {
			*queued = fwdMsg{
				Req:   tc.Combined,
				Src:   first.Src,
				Issue: first.Issue,
				Hot:   first.Hot,
				Path:  first.Path,
			}
			sw.CombinedHere++
			st.Combines++
			if sw.trace != nil {
				sw.trace(Event{Kind: EvCombine,
					ID: tc.Rec.ID1, ID2: tc.Rec.ID2, Addr: m.Req.Addr,
					Stage: sw.stage, Switch: sw.index})
			}
			return true
		}
		// Full despite CanPush — cannot happen single-threaded; fall
		// through to plain queueing.
	}
	if sw.outCap > 0 && len(*q) >= sw.outCap {
		return false
	}
	*q = append(*q, m)
	if n := len(*q); n > st.MaxOutQueue {
		st.MaxOutQueue = n
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
	for _, q := range sw.revQ {
		if len(q) >= sw.revCap {
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
// is why the appends below need no capacity check.
func (sw *switchNode) acceptReply(r revMsg) {
	// PopMatch skips records the reply cannot answer: under fault
	// injection a record goes stale when its combined message is dropped
	// downstream, and a later (retransmitted) reply for the same id must
	// pass through rather than synthesize a second requester's reply from
	// a combine that never reached memory.  On a healthy network every
	// record matches and this is exactly Pop.
	match := func(nr netRecord) bool { return core.CanDecombine(nr.Record, r.rep) }
	if rec, ok := sw.wait.PopMatch(r.rep.ID, match); ok {
		r1, r2 := core.DecombineExact(rec.Record, r.rep)
		if sw.trace != nil {
			sw.trace(Event{Kind: EvDecombine,
				ID: r1.ID, ID2: r2.ID, Stage: sw.stage, Switch: sw.index})
		}
		sw.acceptReply(revMsg{
			rep:        r1,
			path:       r.path,
			issueCycle: r.issueCycle,
			hot:        r.hot,
			slots:      boolSlots(rec.needs1),
		})
		sw.acceptReply(revMsg{
			rep:        r2,
			path:       rec.pathSecond,
			issueCycle: rec.issue2,
			hot:        rec.hot2,
			slots:      boolSlots(rec.needs2),
		})
		return
	}
	port := r.path[sw.stage]
	r.path = r.path[:sw.stage]
	sw.revQ[port] = append(sw.revQ[port], r)
	if n := len(sw.revQ[port]); n > sw.maxRev {
		sw.maxRev = n
	}
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
		for i := range sw.outQ[port] {
			req := &sw.outQ[port][i].Req
			ids = engine.LostLeaves(ids, req.Reps, req.ID)
		}
		sw.outQ[port] = nil
		for i := range sw.revQ[port] {
			ids = engine.LostReply(ids, &sw.revQ[port][i].rep)
		}
		sw.revQ[port] = nil
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

// popFwd removes and returns the head of the forward queue for port.
func (sw *switchNode) popFwd(port int) fwdMsg {
	q := sw.outQ[port]
	m := q[0]
	copy(q, q[1:])
	sw.outQ[port] = q[:len(q)-1]
	return m
}

// popRev removes and returns the head of the reverse queue for port.
func (sw *switchNode) popRev(port int) revMsg {
	q := sw.revQ[port]
	m := q[0]
	copy(q, q[1:])
	sw.revQ[port] = q[:len(q)-1]
	return m
}
