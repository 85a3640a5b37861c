package faults

import (
	"cmp"
	"math"
	"slices"

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
	// IssueCycle is the first injection cycle; recovery latency is
	// measured from here, not from the last retransmit.
	IssueCycle int64
	// Deadline is the cycle at which the current attempt times out.
	Deadline int64
}

// Tracker is the processor-side exactly-once delivery ledger for one
// cycle-driven engine: every issued request is tracked until its first
// reply, retransmitted with capped exponential backoff while it waits, and
// any later (duplicate) reply is suppressed.
//
// The ledger pays per event, not per cycle.  Deadlines are indexed by a
// hashed timing wheel: arming a deadline appends one (deadline, box) entry
// to the bucket of that cycle, and Expired reads only the buckets of the
// cycles that have passed since it last ran.  Entries are never removed
// early; an entry speaks for its box only while the box's Deadline still
// equals the entry's — a delivery retires the box and a re-arm moves its
// deadline, and either leaves the old entry stale, to be dropped when its
// bucket comes round.  (A recycled box re-armed for the very same cycle makes
// a stale entry match again; it then fires the box exactly when the box is
// due, which is all an entry is for, and the box's own entry finds it
// re-armed.)  An entry more than one revolution ahead stays in its bucket
// until its cycle comes.
type Tracker struct {
	flt  *Injector
	live map[word.ReqID]*Pending
	// byProc lists each processor's live requests.  Engines hold a fresh
	// request at its port while an earlier request by the same processor to
	// the same address is undelivered (see HeldBack): without that
	// MSHR-style discipline a drop can reorder a processor's own accesses
	// to a location — the retransmit of the earlier request executes after
	// the later one — violating M2's per-processor program order.  A list is
	// as long as the processor's window of outstanding requests, so the two
	// questions asked of it (HeldBack, oldestLive) are short scans.
	byProc [][]*Pending

	// wheel[c&mask] holds the entries armed for cycle c; swept is the last
	// cycle Expired has read.  due and out are Expired's scratch, and free
	// the retired boxes Track reuses: a warmed tracker allocates nothing.
	wheel [][]armed
	mask  int64
	swept int64
	due   []*Pending
	out   []Pending
	free  []*Pending

	// Retries counts retransmissions; Duplicates counts replies
	// suppressed because the request had already been delivered;
	// Recovered counts deliveries that needed at least one retransmit.
	Retries    stats.Counter
	Duplicates stats.Counter
	Recovered  stats.Counter
	// RecoveryLatency records round-trip cycles for recovered (retried)
	// deliveries only — the fault-plan degradation metric.
	RecoveryLatency stats.Histogram
}

// armed is one wheel entry: box p was due at deadline when it was written.
type armed struct {
	deadline int64
	p        *Pending
}

// retired is the Deadline of a box on the free list: no entry carries it.
const retired = math.MinInt64

// NewTracker builds the ledger against an injector's retry parameters.
func NewTracker(flt *Injector) *Tracker {
	// One revolution covers the base timeout — the deadline of every first
	// attempt and every deferral — so only the rare backed-off retransmit
	// waits out more than one; the bound keeps a huge RetryTimeout from
	// buying a huge table (entries then sit through several revolutions).
	size := int64(64)
	for size <= flt.Timeout(1) && size < 4096 {
		size <<= 1
	}
	return &Tracker{
		flt:   flt,
		live:  make(map[word.ReqID]*Pending),
		wheel: make([][]armed, size),
		mask:  size - 1,
	}
}

// arm sets p's deadline and files the wheel entry for it.  Deadlines lie
// ahead of the sweep: the clock the engine passes to Track and Expired never
// runs backwards.
func (t *Tracker) arm(p *Pending, deadline int64) {
	p.Deadline = deadline
	b := &t.wheel[deadline&t.mask]
	*b = append(*b, armed{deadline, p})
}

// Track registers a freshly injected request (attempt 0).
func (t *Tracker) Track(proc int, req core.Request, hot bool, now int64) {
	var p *Pending
	if n := len(t.free); n > 0 {
		p, t.free = t.free[n-1], t.free[:n-1]
	} else {
		p = new(Pending)
	}
	*p = Pending{Proc: proc, Req: req, Hot: hot, IssueCycle: now}
	t.arm(p, now+t.flt.Timeout(1))
	t.live[req.ID] = p
	for proc >= len(t.byProc) {
		t.byProc = append(t.byProc, nil)
	}
	t.byProc[proc] = append(t.byProc[proc], p)
}

// HeldBack reports whether the processor's newest (already tracked) request
// to addr must wait at the port: an earlier request by the same processor to
// the same address is still undelivered.
func (t *Tracker) HeldBack(proc int, addr word.Addr) bool {
	if proc >= len(t.byProc) {
		return false
	}
	n := 0
	for _, q := range t.byProc[proc] {
		if q.Req.Addr == addr {
			n++
		}
	}
	return n > 1
}

// Deliver marks a reply's arrival at its processor port.  ok=false means
// the request was already delivered (or never tracked): the reply is a
// duplicate the port must suppress, counted here.
func (t *Tracker) Deliver(id word.ReqID, now int64) (Pending, bool) {
	p, ok := t.live[id]
	if !ok {
		t.Duplicates.Inc()
		return Pending{}, false
	}
	delete(t.live, id)
	mine := t.byProc[p.Proc]
	last := len(mine) - 1
	mine[slices.Index(mine, p)] = mine[last]
	t.byProc[p.Proc] = mine[:last]
	if p.Req.Attempt > 0 {
		t.Recovered.Inc()
		t.RecoveryLatency.Record(now - p.IssueCycle)
	}
	out := *p
	// The box keeps its request (and what that references) until Track
	// overwrites it, as a popped FIFO slot does.
	p.Deadline = retired
	t.free = append(t.free, p)
	return out, true
}

// Expired collects the requests whose deadline passed, bumping each to its
// next attempt with backed-off deadline.  The engine re-injects the
// returned requests (they carry Attempt > 0 and therefore never combine).
// The result is sorted by (proc, id) so a run replays identically whatever
// order the index gives them up in.  It is the tracker's scratch, valid
// until the next call: Shell.Step consumes it at once.
func (t *Tracker) Expired(now int64) []Pending {
	// Every bucket whose cycle has passed since the last sweep, each once.
	from := max(t.swept+1, now-t.mask)
	t.swept = now
	due := t.due[:0]
	for c := from; c <= now; c++ {
		b := &t.wheel[c&t.mask]
		keep := (*b)[:0]
		for _, e := range *b {
			switch {
			case e.p.Deadline != e.deadline:
				// Stale: delivered or re-armed since.
			case e.deadline > now:
				keep = append(keep, e) // a later revolution's
			default:
				due = append(due, e.p)
			}
		}
		*b = keep
	}
	// Re-arming waits until the buckets are compacted: a backed-off deadline
	// can land in the bucket it was just read from.
	out := t.out[:0]
	for _, p := range due {
		if p.Deadline > now {
			continue // entered twice (see Tracker) and already re-armed
		}
		if !t.oldestLive(p) {
			// An earlier request by this processor to the same address is
			// still live; a copy of this one may not re-enter the network
			// ahead of it (the HeldBack discipline).  Defer and recheck.
			t.arm(p, now+t.flt.Timeout(1))
			continue
		}
		p.Req.Attempt++
		t.arm(p, now+t.flt.Timeout(p.Req.Attempt+1))
		t.Retries.Inc()
		out = append(out, *p)
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
func (t *Tracker) oldestLive(p *Pending) bool {
	for _, q := range t.byProc[p.Proc] {
		if q.Req.Addr == p.Req.Addr && q.Req.ID < p.Req.ID {
			return false
		}
	}
	return true
}

// Outstanding reports requests still awaiting their first delivery.  A nil
// tracker (clean run, no fault plan) has none.
func (t *Tracker) Outstanding() int {
	if t == nil {
		return 0
	}
	return len(t.live)
}

// Live reports whether one request is still awaiting its first delivery.
// The recovery ledger filters crash-flushed ids through it: a flushed copy
// of an already-delivered request (a retransmit the original outraced) is
// redundant state, not lost work.
func (t *Tracker) Live(id word.ReqID) bool {
	if t == nil {
		return false
	}
	_, ok := t.live[id]
	return ok
}
