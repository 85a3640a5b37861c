package faults

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"combining/internal/core"
	"combining/internal/stats"
	"combining/internal/word"
)

// Pending is one original request the processor side is responsible for
// until its reply is delivered exactly once.  The cycle-driven engines keep
// one Pending per issued request in a Tracker; when the deadline passes the
// engine re-injects the request with the next attempt number.
type Pending struct {
	// Proc is the issuing processor port.
	Proc int
	// Req is the request as issued (Attempt is bumped per retransmit;
	// the id never changes, which is what lets the memory-side reply
	// cache deduplicate).
	Req core.Request
	// Hot tags hot-spot traffic for the per-class metrics.
	Hot bool
	// Lost says a crash flushed a copy of the request while it was live
	// (Tracker.MarkLost): its delivery is a replay the retry machinery
	// re-drove.
	Lost bool
	// IssueCycle is the first injection cycle; recovery latency is
	// measured from here, not from the last retransmit.
	IssueCycle int64
	// Deadline is the cycle at which the current attempt times out; 0
	// until the settle after Track arms it.
	Deadline int64
}

// Tracker is the processor-side exactly-once delivery ledger for one
// cycle-driven engine: every issued request is tracked until its first
// reply, retransmitted while it waits, and any later (duplicate) reply is
// suppressed.
//
// The retransmit timeout follows the machine's measured round trip, as TCP's
// does (Jacobson's estimator with Karn's rule, RFC 6298): a smoothed RTT and
// its variance, fed only by requests delivered on their first attempt, give
// RTO = srtt + 4·rttvar, clamped to [RetryTimeout, RetryCap] and doubled for
// each later attempt up to RetryCap.  A fixed timeout shorter than the round
// trip — and under a fault plan the output-commit rule alone holds a reply
// until the next checkpoint — retransmits nearly every request.  There is
// one estimator for the machine: a processor's own requests are too few to
// estimate from (E51).
//
// A processor's port is a switch of the §7 sense, and keeps its own books.
// Track, Deliver, Current and HeldBack for processor p touch only p's record
// (procRec): its live list, its delivered floor, the boxes it tracked and
// the boxes it had delivered since the last settle.  So the ports of
// different processors may be served at the same time, each by its owner.
// What the processors share — the estimator and the timing wheel — only
// Settle writes, serially, at the top of Expired: it folds the round trips
// of the boxes delivered since the last settle into the estimator,
// processor by processor in index order, then arms the boxes tracked since
// with the folded RTO, then unlinks and frees the delivered ones.  A box
// tracked in cycle c is therefore armed at the top of cycle c+1, before the
// wheel is read, with a deadline of its issue cycle plus that RTO.
//
// The ledger pays per event, not per cycle.  A request is found in its
// processor's live list, which is as long as the processor's window, and
// each processor's delivered floor is kept up to date by the events that
// move it (Track and Deliver), so Floors is a copy.  Deadlines are indexed
// by a hashed timing wheel: each armed box sits in the doubly linked list of
// its deadline's bucket, arming a deadline moves it to another list and a
// delivery unlinks it, both in O(1), and Expired reads only the buckets of
// the cycles that have passed since it last ran.  A box more than one
// revolution ahead stays in its bucket until its cycle comes.  The wheel
// holds one pointer per bucket and nothing else: however the estimated
// timeout moves deadlines about, its memory is the live boxes'.
type Tracker struct {
	// srtt8 and rttvar4 are the round-trip estimate scaled by 8 and 4, so
	// the gains 1/8 and 1/4 are shifts; sampled says the first sample has
	// arrived.  rto is the timeout of a first attempt: RetryTimeout until
	// then, the clamped estimate after.  floor and ceil are the plan's
	// RetryTimeout and RetryCap.
	srtt8, rttvar4 int64
	sampled        bool
	rto            int64
	floor, ceil    int64
	// procs[p] is processor p's record, sized at construction.  Two of its
	// fields live in dense slices beside the records, so that Floors and
	// Settle read a few cache lines a cycle, not one per processor:
	// floors[p] is p's delivered floor (see Floors), and dirty[p] says p
	// tracked or had delivered a box since the last settle.  Like the
	// record, each entry is written only by its processor's calls and the
	// settle.
	procs  []procRec
	floors []word.ReqID
	dirty  []bool

	// wheel[c&mask] lists the boxes whose deadline is a cycle ≡ c; swept is
	// the last cycle Expired has read.  due and out are Expired's scratch: a
	// warmed tracker allocates nothing.
	wheel []*box
	mask  int64
	swept int64
	due   []*box
	out   []Pending

	// Retries counts retransmitted copies that left a processor port — the
	// engine counts each as its port sends it, so a copy dropped dead at the
	// port (Current) is not one; Duplicates counts replies suppressed
	// because the request had already been delivered; Recovered counts
	// deliveries that needed at least one retransmit.
	Retries    atomic.Int64
	Duplicates atomic.Int64
	Recovered  atomic.Int64
	// RecoveryLatency records round-trip cycles for recovered (retried)
	// deliveries only — the fault-plan degradation metric.
	RecoveryLatency stats.Histogram
}

// procRec is one processor's part of the ledger.  live lists its
// undelivered requests.  Engines hold a fresh request at its port while an
// earlier request by the same processor to the same address is undelivered
// (see HeldBack): without that MSHR-style discipline a drop can reorder a
// processor's own accesses to a location — the retransmit of the earlier
// request executes after the later one — violating M2's per-processor
// program order.  The list is as long as the processor's window of
// outstanding requests, so every question asked of it (Deliver, Current,
// HeldBack, oldestLive) is a short scan, of keys: keys[i] is live[i]'s id
// and address, side by side, so a scan reads one slice and no box.  next is
// 1 + the last id the processor tracked (0 before its first): ids must
// increase per processor.  fresh are the boxes tracked and done the boxes
// delivered since the last settle, in order; free are the retired boxes
// Track reuses.
type procRec struct {
	live        []*box
	keys        []liveKey
	next        word.ReqID
	fresh, done []*box
	free        []*box
}

// liveKey is what the scans of a live list compare: a request's id and
// address, which no attempt changes.
type liveKey struct {
	id   word.ReqID
	addr word.Addr
}

// box is one tracked request, its links in the list of its deadline's
// wheel bucket, and, once delivered, its round trip (rtt) for the settle.
type box struct {
	Pending
	prev, next *box
	rtt        int64
	delivered  bool
}

// NewTracker builds the ledger of procs processors against an injector's
// retry parameters.
func NewTracker(flt *Injector, procs int) *Tracker {
	plan := flt.Plan()
	// One revolution covers RetryCap, the longest deadline the tracker arms —
	// an estimated timeout lies anywhere between the floor and the cap — so
	// every box is read once, when it is due; the bound keeps a huge
	// RetryCap from buying a huge table (boxes then sit through several
	// revolutions).
	size := int64(64)
	for size <= plan.RetryCap && size < 4096 {
		size <<= 1
	}
	return &Tracker{
		rto:    plan.RetryTimeout,
		floor:  plan.RetryTimeout,
		ceil:   plan.RetryCap,
		procs:  make([]procRec, procs),
		floors: make([]word.ReqID, procs),
		dirty:  make([]bool, procs),
		wheel:  make([]*box, size),
		mask:   size - 1,
	}
}

// Timeout returns the retransmit delay before the given attempt (1-based):
// the current RTO, doubled for each attempt after the first, capped at
// RetryCap.  Before the first round-trip sample the RTO is RetryTimeout.
func (t *Tracker) Timeout(attempt uint32) int64 {
	d := t.rto
	for i := uint32(1); i < attempt && d < t.ceil; i++ {
		d <<= 1
	}
	return min(d, t.ceil)
}

// sample feeds one round trip to the estimator (RFC 6298 §2, K = 4): the
// first sets srtt = r and rttvar = r/2, each later one moves srtt by 1/8 and
// rttvar by 1/4 of the difference.
func (t *Tracker) sample(r int64) {
	if !t.sampled {
		t.srtt8, t.rttvar4, t.sampled = r<<3, r<<1, true
	} else {
		d := r - t.srtt8>>3
		t.srtt8 += d
		t.rttvar4 += max(d, -d) - t.rttvar4>>2
	}
	t.rto = min(max(t.srtt8>>3+t.rttvar4, t.floor), t.ceil)
}

// arm sets b's deadline and moves b to that cycle's bucket.  Deadlines lie
// ahead of the sweep: the clock the engine passes to Track and Expired never
// runs backwards.
func (t *Tracker) arm(b *box, deadline int64) {
	t.unlink(b)
	b.Deadline = deadline
	head := &t.wheel[deadline&t.mask]
	b.next = *head
	if b.next != nil {
		b.next.prev = b
	}
	*head = b
}

// unlink takes b out of its bucket's list, if it is in one.
func (t *Tracker) unlink(b *box) {
	if head := &t.wheel[b.Deadline&t.mask]; *head == b {
		*head = b.next
	} else if b.prev != nil {
		b.prev.next = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
	b.prev, b.next = nil, nil
}

// Track registers a freshly injected request (attempt 0); the next settle
// arms its deadline.  A processor's ids must increase, as its port issues
// them: oldestLive and Floors read age off the id, and Track panics on an
// id at or below the processor's last.
func (t *Tracker) Track(proc int, req core.Request, hot bool, now int64) {
	r := &t.procs[proc]
	if req.ID < r.next {
		panic(fmt.Sprintf("faults: processor %d tracks id %d after id %d", proc, req.ID, r.next-1))
	}
	r.next = req.ID + 1
	var b *box
	if n := len(r.free); n > 0 {
		b, r.free = r.free[n-1], r.free[:n-1]
	} else {
		b = new(box)
	}
	*b = box{Pending: Pending{Proc: proc, Req: req, Hot: hot, IssueCycle: now}}
	if len(r.live) == 0 {
		t.floors[proc] = req.ID // the only live id, and ids increase
	}
	r.live = append(r.live, b)
	r.keys = append(r.keys, liveKey{req.ID, req.Addr})
	r.fresh = append(r.fresh, b)
	t.dirty[proc] = true
}

// Floors writes each processor's delivered floor into floors[proc]: its
// smallest live id, else 1 + the last id it tracked (0 before its first).
// Every id of the processor below its floor has been tracked and delivered,
// so a copy of it still in the machine is stale: the memory's reply caches
// skip and forget such leaves (memory.WithDeliveredFloors).  Track and
// Deliver keep the floors, so this is a copy.
func (t *Tracker) Floors(floors []word.ReqID) { copy(floors, t.floors) }

// find returns the index of the processor's live request id in its list,
// or -1.
func (t *Tracker) find(proc int, id word.ReqID) int {
	for i, k := range t.procs[proc].keys {
		if k.id == id {
			return i
		}
	}
	return -1
}

// HeldBack reports whether the processor's newest (already tracked) request
// to addr must wait at the port: an earlier request by the same processor to
// the same address is still undelivered.
func (t *Tracker) HeldBack(proc int, addr word.Addr) bool {
	n := 0
	for _, k := range t.procs[proc].keys {
		if k.addr == addr {
			n++
		}
	}
	return n > 1
}

// Deliver marks the arrival of a reply to request id at processor proc's
// port.  ok=false means the processor's request was already delivered (or
// never tracked): the reply is a duplicate the port must suppress, counted
// here.  A request delivered on its first attempt is a round-trip sample,
// which the next settle folds into the estimator.
func (t *Tracker) Deliver(proc int, id word.ReqID, now int64) (Pending, bool) {
	i := t.find(proc, id)
	if i < 0 {
		t.Duplicates.Add(1)
		return Pending{}, false
	}
	r := &t.procs[proc]
	b, last := r.live[i], len(r.live)-1
	r.live[i], r.keys[i] = r.live[last], r.keys[last]
	r.live, r.keys = r.live[:last], r.keys[:last]
	if id == t.floors[proc] {
		f := r.next
		for _, k := range r.keys {
			f = min(f, k.id)
		}
		t.floors[proc] = f
	}
	if b.Req.Attempt > 0 {
		t.Recovered.Add(1)
		t.RecoveryLatency.Record(now - b.IssueCycle)
	}
	// The box keeps its request (and what that references) until Track
	// overwrites it, as a popped FIFO slot does.
	b.rtt, b.delivered = now-b.IssueCycle, true
	r.done = append(r.done, b)
	t.dirty[proc] = true
	return b.Pending, true
}

// Settle is the serial step the processors' records wait for: it folds the
// first-attempt round trips delivered since the last settle into the
// estimator, processor by processor in index order (Karn's rule: only a
// request sent once times a round trip; the reply to a retransmitted one
// may answer any of its copies), then arms the boxes tracked since and not
// yet delivered with the folded RTO, then unlinks the delivered boxes and
// gives them back to their processors' free lists.  Expired settles first;
// a caller that reads Timeout between cycles settles to read the timeout
// the next arm will use.  No Track or Deliver may run beside it.
func (t *Tracker) Settle() {
	for p, dirty := range t.dirty {
		if !dirty {
			continue
		}
		for _, b := range t.procs[p].done {
			if b.Req.Attempt == 0 {
				t.sample(b.rtt)
			}
		}
	}
	for p, dirty := range t.dirty {
		if !dirty {
			continue
		}
		t.dirty[p] = false
		r := &t.procs[p]
		for _, b := range r.fresh {
			if !b.delivered {
				t.arm(b, b.IssueCycle+t.Timeout(1))
			}
		}
		for _, b := range r.done {
			t.unlink(b)
		}
		r.free = append(r.free, r.done...)
		r.fresh, r.done = r.fresh[:0], r.done[:0]
	}
}

// Expired settles (see Tracker), then collects the requests whose deadline
// passed, bumping each to its next attempt with a backed-off deadline.  The
// engine re-injects the returned requests (they carry Attempt > 0, and
// combine like any request: core.Combine).
// The result is sorted by (proc, id) so a run replays identically whatever
// order the index gives them up in.  It is the tracker's scratch, valid
// until the next call: Shell.Step consumes it at once.
func (t *Tracker) Expired(now int64) []Pending {
	t.Settle()
	// Every bucket whose cycle has passed since the last sweep, each once.
	from := max(t.swept+1, now-t.mask)
	t.swept = now
	due := t.due[:0]
	for c := from; c <= now; c++ {
		for b := t.wheel[c&t.mask]; b != nil; b = b.next {
			if b.Deadline <= now { // not a later revolution's
				due = append(due, b)
			}
		}
	}
	// Re-arming waits until the buckets are read: it moves a box between
	// lists, and a backed-off deadline can land in the bucket just read.
	out := t.out[:0]
	for _, p := range due {
		if !t.oldestLive(p) {
			// An earlier request by this processor to the same address is
			// still live; a copy of this one may not re-enter the network
			// ahead of it (the HeldBack discipline).  Defer and recheck.
			t.arm(p, now+t.Timeout(1))
			continue
		}
		p.Req.Attempt++
		t.arm(p, now+t.Timeout(p.Req.Attempt+1))
		out = append(out, p.Pending)
	}
	slices.SortFunc(out, func(a, b Pending) int {
		return cmp.Or(cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.Req.ID, b.Req.ID))
	})
	t.due, t.out = due, out
	return out
}

// oldestLive reports whether p is the oldest live request for its
// (proc, addr).  Per-processor ids are issued in increasing order, so the
// smallest live id is the earliest-issued.
func (t *Tracker) oldestLive(p *box) bool {
	for _, k := range t.procs[p.Proc].keys {
		if k.addr == p.Req.Addr && k.id < p.Req.ID {
			return false
		}
	}
	return true
}

// Current reports whether a copy of processor proc's request id at this
// attempt is the one the tracker still waits on: the request is undelivered
// and has not been retransmitted since.
func (t *Tracker) Current(proc int, id word.ReqID, attempt uint32) bool {
	i := t.find(proc, id)
	return i >= 0 && t.procs[proc].live[i].Req.Attempt == attempt
}

// Outstanding reports requests still awaiting their first delivery.  A nil
// tracker (clean run, no fault plan) has none.
func (t *Tracker) Outstanding() int {
	if t == nil {
		return 0
	}
	n := 0
	for p := range t.procs {
		n += len(t.procs[p].live)
	}
	return n
}

// MarkLost marks request id, if some processor still awaits its first
// delivery, as lost to a crash, and reports whether this call marked it:
// the delivery of a marked request returns Lost set, and a request already
// marked is not marked again.  The recovery ledger calls it at crash edges
// only, so it scans every processor's list: a flushed copy of an
// already-delivered request (a retransmit the original outraced) is
// redundant state, not lost work.
func (t *Tracker) MarkLost(id word.ReqID) bool {
	for p := range t.procs {
		if i := t.find(p, id); i >= 0 {
			b := t.procs[p].live[i]
			marked := !b.Lost
			b.Lost = true
			return marked
		}
	}
	return false
}
