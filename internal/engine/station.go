package engine

import (
	"combining/internal/core"
	"combining/internal/rmw"
	"combining/internal/word"
)

// The combining station of Section 4, Figure 1: output FIFOs, a wait buffer,
// decombining on the way back.  An omega switch, a cube or torus router with
// its memory combining queue, the bus's decoupling FIFO and a goroutine
// switch of internal/asyncnet are all this one type; what differs between
// them is how many queues a station has and what its links lead to, which is
// the wiring's business (Links), not the station's.
//
// Messages arrive by pointer and are copied once, into the slot they come to
// rest in (DESIGN.md §6.2): AcceptFwd and AcceptRev read the caller's
// message — the head slot of an upstream queue, a processor port, a module's
// filed box — and never keep the pointer; on refusal it is untouched.

// Path is the reply route header of Section 4.1: the input port a request
// took at every station on its way, which its reply pops to retrace the
// route — the paper's log₂N-bit return address, here four bits a hop in one
// word, the last hop lowest.  A value, it is copied with its message and
// never shared: a duplicated reply owns its route.  Sixteen hops of at most
// sixteen ports fit (CompileStaged holds a wiring to that); on wirings that
// route replies by Src (Station.Back) the hops stamp it all the same and
// nothing reads it.
type Path uint64

const pathBits = 4

// Push is p extended by one hop through input port in.
func (p Path) Push(in int32) Path { return p<<pathBits | Path(in) }

// Pop splits off the last hop's input port.
func (p Path) Pop() (in int, rest Path) { return int(p & (1<<pathBits - 1)), p >> pathBits }

// Rev is a reply in flight.  Path routes it on wirings whose replies retrace
// a recorded header (the entry for the station it is arriving at is last);
// Src, the issuing processor, routes it on wirings that route by address and
// names the port it is delivered to on all of them.
type Rev struct {
	Rep   core.Reply
	Path  Path
	Src   int
	Issue int64 // first injection cycle of the request it answers
	Hot   bool
	// Valued marks a reply that carries a data value (a bare store
	// acknowledgment does not), for the traffic accounting of E11.
	Valued bool
	// Moved stamps the cycle the reply last hopped (see Fwd.Moved).
	Moved uint32
}

// Record is a wait-buffer entry: the core combine record plus the routing
// state and metric tags of the request serialized second, whose reply the
// station synthesizes.
type Record struct {
	core.Record
	Path2  Path
	Src2   int
	Issue2 int64
	Hot2   bool
	// Needs1 and Needs2 record whether each constituent's reply carries a
	// value.
	Needs1, Needs2 bool
	// Reps2 names the second request's leaves so a crash flushing this
	// record reports exactly which operations lost their reply path.
	Reps2 []core.Leaf
}

// Load counts the messages a station's forward and reverse queues hold.  A
// shell keeps its stations' counts in one dense array in sweep order
// (Shell.Loads), so a sweep finds an empty station without touching it.
type Load struct{ Fwd, Rev int32 }

// Station is one combining node: a FIFO per forward output and per reverse
// output, and one wait buffer.  The fields are laid out by what touches
// them: a request arriving at a queue with no partner reads the first cache
// line, a reply the rest.
type Station struct {
	Fwd []core.FIFO[Fwd]
	// Route[module] is the forward queue a request for that module joins
	// here (the station's row of Links.Route).
	Route []uint8
	// Intercept, when non-nil, sees every arriving request before the
	// combine scan and reports whether it disposed of it — the seat of the
	// Section 5.1 ablation (network.Config.BuggyLoadForwarding).
	Intercept func(st *Station, out int, m *Fwd, path Path, now uint32) bool
	// load is the station's occupancy count, kept by whoever pushes and
	// pops its queues: AcceptFwd, AcceptRev, PopFwd, PopRev and Crash, and
	// nobody else.  A station alone counts in storage of its own; a shell
	// re-seats the pointer in its index (Shell.Init).
	load *Load
	// Trace, when non-nil, observes the Combined, Rejected and Decombined
	// events here (a traced shell installs it: ShellConfig.Trace).
	Trace func(kind EventKind, id, id2 word.ReqID, addr word.Addr)

	Rev  []core.FIFO[Rev]
	Wait core.WaitBuffer[Record]

	// Back routes a reply that carries no path: Back[src] is the reverse
	// queue toward processor src, or -1 when src is attached here (the
	// station's row of Links.Back).  nil on wirings whose replies pop a
	// recorded path instead.
	Back   []int8
	revCap int // reverse base credit per queue; <= 0 means unbounded
	pol    core.Policy
}

// NewStations builds count stations of fwd forward and rev reverse queues,
// each column of queues contiguous in station order.  queueCap bounds the
// forward queues (<= 0: unbounded); the reverse queues are unbounded as
// storage and admitted by credit (revCap, CanAcceptRev).
func NewStations(count, fwd, rev, queueCap, revCap, waitCap int, pol core.Policy) []Station {
	fq := make([]core.FIFO[Fwd], count*fwd)
	for i := range fq {
		fq[i] = core.NewFIFO[Fwd](queueCap)
	}
	rq := make([]core.FIFO[Rev], count*rev)
	sts := make([]Station, count)
	for i := range sts {
		sts[i] = Station{
			Fwd:    fq[i*fwd : (i+1)*fwd : (i+1)*fwd],
			Rev:    rq[i*rev : (i+1)*rev : (i+1)*rev],
			Wait:   *core.NewWaitBuffer[Record](waitCap),
			load:   new(Load),
			revCap: revCap,
			pol:    pol,
		}
	}
	return sts
}

// AcceptFwd takes request m into forward queue out: combined with the most
// recent queued request for its address when the pair combines and the wait
// buffer has room, else appended, else — the queue is full — refused, and
// the upstream holds it.  path is m's header with this station's entry
// stamped.
func (st *Station) AcceptFwd(m *Fwd, out int, path Path, now uint32, sh *Shard) bool {
	if st.Intercept != nil && st.Intercept(st, out, m, path, now) {
		return true
	}
	q := &st.Fwd[out]
	if q.Len() > 0 && st.combine(q, m, path, sh) {
		return true
	}
	if q.Full() {
		return false
	}
	slot := q.Push()
	*slot = *m
	slot.Path, slot.Moved = path, now
	st.load.Fwd++
	return true
}

// PopFwd and PopRev drop the head of a forward or reverse queue: the message
// has crossed its link, or was lost on it.
func (st *Station) PopFwd(port int) {
	st.Fwd[port].Pop()
	st.load.Fwd--
}

func (st *Station) PopRev(port int) {
	st.Rev[port].Pop()
	st.load.Rev--
}

// combine attempts to merge m into the non-empty queue q.  Only the LAST
// queued request for the address is a legal partner (M2.3).  The step is
// core.CombineAtTail, which defines it and which the tests hold this scan
// to; it is written out here because a blocked head runs it whenever the
// queue it waits on changes (the refusal memo, hop.go, spares the rest), and
// nearly always to find no partner or no room: the scan reads the address
// field in place, and the combined request and its record are built only
// once the pair is known to combine and the wait buffer to have room.
func (st *Station) combine(q *core.FIFO[Fwd], m *Fwd, path Path, sh *Shard) bool {
	held := q.View()
	i := len(held) - 1
	for i >= 0 && held[i].Req.Addr != m.Req.Addr {
		i--
	}
	if i < 0 || !rmw.Combinable(held[i].Req.Op, m.Req.Op) {
		return false
	}
	if !st.Wait.CanPush() {
		// A full wait buffer forfeits the combine (partial combining, A1).
		st.Wait.Rejections++
		if st.Trace != nil {
			st.Trace(Rejected, m.Req.ID, 0, m.Req.Addr)
		}
		return false
	}
	queued := &held[i]
	combined, rec, ok := core.Combine(queued.Req, m.Req, st.pol)
	if !ok {
		return false
	}
	// The message whose id the combined request carries is serialized first;
	// the other's routing state goes into the wait-buffer record.
	first, firstPath, second, secondPath := queued, queued.Path, m, path
	if rec.ID1 == m.Req.ID { // order reversal serialized the arrival first
		first, firstPath, second, secondPath = m, path, queued, queued.Path
	}
	if !st.Wait.Push(rec.ID1, Record{
		Record: rec,
		Path2:  secondPath,
		Src2:   second.Src,
		Issue2: second.Issue,
		Hot2:   second.Hot,
		Needs1: rmw.NeedsValue(first.Req.Op),
		Needs2: rmw.NeedsValue(second.Req.Op),
		Reps2:  second.Req.Reps(),
	}) {
		return false
	}
	*queued = Fwd{Req: combined, Src: first.Src, Issue: first.Issue, Hot: first.Hot,
		Path: firstPath, Moved: queued.Moved}
	q.Touch()
	sh.Combines++
	if st.Trace != nil {
		st.Trace(Combined, rec.ID1, rec.ID2, m.Req.Addr)
	}
	return true
}

// CanAcceptRev is the reserved-credit check: a reply may enter only while
// every reverse queue sits below the base credit — all of them, because the
// decombining fan-out is unknown until the wait buffer is consulted.  An
// accepted reply then appends its whole fan-out unconditionally: each leaf
// beyond the first consumes a wait record this station created, so the
// records double as reserved credits and per-queue occupancy stays ≤ revCap +
// wait-buffer capacity.  Holding a reply upstream cannot deadlock: reverse
// queues drain toward the processors, which always consume.
func (st *Station) CanAcceptRev() bool {
	if st.revCap <= 0 {
		return true
	}
	for i := range st.Rev {
		if st.Rev[i].Len() >= st.revCap {
			return false
		}
	}
	return true
}

// AcceptRev takes a reply arriving from the memory side: it undoes every
// combine recorded here that the reply answers (most recent first, several
// for a k-way combine) and queues each resulting reply toward its processor;
// one whose processor is attached here is appended to home instead.
func (st *Station) AcceptRev(r *Rev, now uint32, home *[]Rev) {
	if st.Wait.Len() > 0 && st.decombine(r, now, home) {
		return
	}
	port, path := 0, r.Path
	if st.Back != nil {
		port = int(st.Back[r.Src])
	} else {
		port, path = path.Pop()
	}
	if port < 0 {
		*home = append(*home, *r)
		return
	}
	slot := st.Rev[port].Push()
	*slot = *r
	slot.Path, slot.Moved = path, now
	st.load.Rev++
}

// decombine undoes the most recent combine recorded here that r answers.
// PopMatch skips records the reply cannot answer: under fault injection a
// record goes stale when its combined message is dropped downstream, and a
// later (retransmitted) reply for the same id must pass through rather than
// synthesize a second requester's reply from a combine that never reached
// memory.  On a healthy machine every record matches.
func (st *Station) decombine(r *Rev, now uint32, home *[]Rev) bool {
	match := func(rec Record) bool { return core.CanDecombine(rec.Record, r.Rep) }
	rec, ok := st.Wait.PopMatch(r.Rep.ID, match)
	if !ok {
		return false
	}
	r1, r2 := core.DecombineExact(rec.Record, r.Rep)
	if st.Trace != nil {
		st.Trace(Decombined, r1.ID, r2.ID, 0)
	}
	st.AcceptRev(&Rev{Rep: r1, Path: r.Path, Src: r.Src, Issue: r.Issue, Hot: r.Hot, Valued: rec.Needs1}, now, home)
	st.AcceptRev(&Rev{Rep: r2, Path: rec.Path2, Src: rec.Src2, Issue: rec.Issue2, Hot: rec.Hot2, Valued: rec.Needs2}, now, home)
	return true
}

// Crash flushes the station's volatile state — every queue and the wait
// buffer — and returns the leaf request ids whose only copy here was lost.
// A flushed wait record is a double loss: the second requester's routing
// state is gone, so even if the combined message's reply returns it passes
// through and the second requester recovers by retransmitting.
func (st *Station) Crash() []word.ReqID {
	var ids []word.ReqID
	for i := range st.Fwd {
		held := st.Fwd[i].View()
		for j := range held {
			ids = LostLeaves(ids, held[j].Req.Reps(), held[j].Req.ID)
		}
		st.Fwd[i].Clear()
	}
	for i := range st.Rev {
		held := st.Rev[i].View()
		for j := range held {
			ids = LostReply(ids, &held[j].Rep)
		}
		st.Rev[i].Clear()
	}
	for _, rec := range st.Wait.Flush() {
		ids = LostLeaves(ids, rec.Reps2, rec.ID2)
	}
	*st.load = Load{}
	return ids
}

// Occupancy counts the messages and wait records the station holds.
func (st *Station) Occupancy() (fwd, rev, wait int) {
	return int(st.load.Fwd), int(st.load.Rev), st.Wait.Len()
}

// MaxRev is the high-water mark across the reverse queues — the observable
// the reserved-credit bound is asserted on.
func (st *Station) MaxRev() int {
	peak := 0
	for i := range st.Rev {
		peak = max(peak, st.Rev[i].Peak())
	}
	return peak
}
