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
// A station queue holds entries, not messages (store.go): AcceptFwd and
// AcceptRev copy the caller's entry — the head slot of an upstream queue, a
// module's filed entry — into the slot it comes to rest in and never keep
// the pointer; the body stays where it is in the store.  On refusal the
// entry is untouched and the body still the caller's.  PutFwd and PutRev
// take a message in value form, TakeFwd and TakeRev give one back.

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

// Rev is a reply in value form, outside the stations.  Path routes it on
// wirings whose replies retrace a recorded header (the entry for the station
// it is arriving at is last); Src, the issuing processor, routes it on
// wirings that route by address and names the port it is delivered to on
// all of them.
type Rev struct {
	Rep   core.Reply
	Path  Path
	Src   int
	Issue int64 // first injection cycle of the request it answers
	Hot   bool
	// Valued marks a reply that carries a data value (a bare store
	// acknowledgment does not), for the traffic accounting of E11.
	Valued bool
}

// Record is a wait-buffer entry: the core combine record, the return path
// of the request serialized second, and the handle of its body — its
// source, issue cycle, tag and leaves, into which the decombine writes its
// reply.
type Record struct {
	core.Record
	Path2 Path
	H2    int32
	// Needs1 and Needs2 record whether each constituent's reply carries a
	// value.
	Needs1, Needs2 bool
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
	Fwd []core.FIFO[FwdEntry]
	// Route[module] is the forward queue a request for that module joins
	// here (the station's row of Links.Route).
	Route []uint8
	// Intercept, when non-nil, sees every arriving request before the
	// combine scan and reports whether it disposed of it — the seat of the
	// Section 5.1 ablation (network.Config.BuggyLoadForwarding).
	Intercept func(st *Station, out int, e FwdEntry, path Path, now uint32) bool
	// load is the station's occupancy count, kept by whoever pushes and
	// pops its queues: AcceptFwd, AcceptRev, PopFwd, PopRev and Crash, and
	// nobody else.  A station alone counts in storage of its own; a shell
	// re-seats the pointer in its index (Shell.Init).
	load *Load
	// store holds the bodies of the station's messages, shared by the
	// stations NewStations made together.
	store *Store
	// Trace, when non-nil, observes the Combined, Rejected and Decombined
	// events here (a traced shell installs it: ShellConfig.Trace).
	Trace func(kind EventKind, id, id2 word.ReqID, addr word.Addr)

	Rev  []core.FIFO[RevEntry]
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
// each column of queues contiguous in station order, over one new message
// store.  queueCap bounds the forward queues (<= 0: unbounded); the reverse
// queues are unbounded as storage and admitted by credit (revCap,
// CanAcceptRev).
func NewStations(count, fwd, rev, queueCap, revCap, waitCap int, pol core.Policy) []Station {
	fq := make([]core.FIFO[FwdEntry], count*fwd)
	for i := range fq {
		fq[i] = core.NewFIFO[FwdEntry](queueCap)
	}
	rq := make([]core.FIFO[RevEntry], count*rev)
	sts, store := make([]Station, count), NewStore()
	for i := range sts {
		sts[i] = Station{
			Fwd:    fq[i*fwd : (i+1)*fwd : (i+1)*fwd],
			Rev:    rq[i*rev : (i+1)*rev : (i+1)*rev],
			Wait:   *core.NewWaitBuffer[Record](waitCap),
			load:   new(Load),
			store:  store,
			revCap: revCap,
			pol:    pol,
		}
	}
	return sts
}

// Body returns the body handle h names in the station's store.
func (st *Station) Body(h int32) *Body { return st.store.At(h) }

// AcceptFwd takes request e into forward queue out: combined with the most
// recent queued request for its address when the pair combines and the wait
// buffer has room, else appended, else — the queue is full — refused, and
// the upstream holds it.  path is e's header with this station's entry
// stamped.  Its body stays in the store either way: a taken request's now
// belongs to the queue or, absorbed by a combine, to the wait record.
func (st *Station) AcceptFwd(e *FwdEntry, out int, path Path, now uint32, sh *Shard) bool {
	if st.Intercept != nil && st.Intercept(st, out, *e, path, now) {
		return true
	}
	q := &st.Fwd[out]
	if q.Len() > 0 && st.combine(q, e, path, sh) {
		return true
	}
	if q.Full() {
		return false
	}
	slot := q.Push()
	*slot = *e
	slot.Path, slot.Moved = path, now
	st.load.Fwd++
	return true
}

// PutFwd is AcceptFwd for a request in value form: its body is stored first
// and freed again if the station refuses it.  It allocates, so it runs where
// no pool worker does (store.go).
func (st *Station) PutFwd(m *Fwd, out int, path Path, now uint32, sh *Shard) bool {
	e := st.store.put(m)
	if st.AcceptFwd(&e, out, path, now, sh) {
		return true
	}
	st.store.Free(e.H)
	return false
}

// TakeFwd pops the head of forward queue port in value form, freeing its
// body.
func (st *Station) TakeFwd(port int) Fwd {
	e := st.Fwd[port].Front()
	m := st.store.fwd(e)
	st.store.Free(e.H)
	st.PopFwd(port)
	return m
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

// combine attempts to merge e into the non-empty queue q.  Only the LAST
// queued request for the address is a legal partner (M2.3).  The step is
// core.CombineAtTail, which defines it and which the tests hold this scan
// to; it is written out here because a blocked head runs it whenever the
// queue it waits on changes (the refusal memo, hop.go, spares the rest), and
// nearly always to find no partner or no room: the scan reads the entries'
// addresses in place, the two bodies are read only for a partner, and the
// combined request and its record are built only once the pair is known to
// combine and the wait buffer to have room.
func (st *Station) combine(q *core.FIFO[FwdEntry], e *FwdEntry, path Path, sh *Shard) bool {
	held := q.View()
	i := len(held) - 1
	for i >= 0 && held[i].Addr != e.Addr {
		i--
	}
	if i < 0 {
		return false
	}
	queued := &held[i]
	qb, mb := st.store.At(queued.H), st.store.At(e.H)
	if !rmw.Combinable(qb.Req.Op, mb.Req.Op) {
		return false
	}
	if !st.Wait.CanPush() {
		// A full wait buffer forfeits the combine (partial combining, A1).
		st.Wait.Rejections++
		if st.Trace != nil {
			st.Trace(Rejected, mb.Req.ID, 0, e.Addr)
		}
		return false
	}
	combined, rec, ok := core.Combine(qb.Req, mb.Req, st.pol)
	if !ok {
		return false
	}
	// The message whose id the combined request carries is serialized
	// first: the combined request takes the queued entry and body, with the
	// first's path, source and tags.  The other's path goes into the
	// wait-buffer record and its body — the arrival's handle — to it.
	needs1, needs2 := rmw.NeedsValue(qb.Req.Op), rmw.NeedsValue(mb.Req.Op)
	path2 := path
	if rec.ID1 == mb.Req.ID { // order reversal serialized the arrival first
		needs1, needs2 = needs2, needs1
		path2, queued.Path = queued.Path, path
		*qb, *mb = *mb, *qb
	}
	st.Wait.Push(rec.ID1, Record{Record: rec, Path2: path2, H2: e.H, Needs1: needs1, Needs2: needs2})
	qb.Req = combined
	queued.Slots = uint8(core.ValueSlots(combined.Op))
	q.Touch()
	sh.Combines++
	if st.Trace != nil {
		st.Trace(Combined, rec.ID1, rec.ID2, e.Addr)
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
func (st *Station) AcceptRev(e *RevEntry, now uint32, home *[]RevEntry) {
	if st.Wait.Len() > 0 && st.decombine(e, now, home) {
		return
	}
	port, path := 0, e.Path
	if st.Back != nil {
		port = int(st.Back[e.Src])
	} else {
		port, path = path.Pop()
	}
	if port < 0 {
		*home = append(*home, *e)
		return
	}
	slot := st.Rev[port].Push()
	*slot = *e
	slot.Path, slot.Moved = path, now
	st.load.Rev++
}

// PutRev is AcceptRev for a reply in value form, whose body it stores.  It
// allocates, so it runs where no pool worker does (store.go).
func (st *Station) PutRev(r *Rev, now uint32, home *[]RevEntry) {
	e := st.store.putRev(r)
	st.AcceptRev(&e, now, home)
}

// TakeRev pops the head of reverse queue port in value form, freeing its
// body.
func (st *Station) TakeRev(port int) Rev {
	e := st.Rev[port].Front()
	r := st.store.rev(e)
	st.store.Free(e.H)
	st.PopRev(port)
	return r
}

// decombine undoes the most recent combine recorded here that r answers.
// PopMatch skips records the reply cannot answer: under fault injection a
// record goes stale when its combined message is dropped downstream, and a
// later (retransmitted) reply for the same id must pass through rather than
// synthesize a second requester's reply from a combine that never reached
// memory.  On a healthy machine every record matches.
func (st *Station) decombine(e *RevEntry, now uint32, home *[]RevEntry) bool {
	b := st.store.At(e.H)
	rep := b.Reply()
	match := func(rec Record) bool { return core.CanDecombine(rec.Record, rep) }
	rec, ok := st.Wait.PopMatch(e.ID, match)
	if !ok {
		return false
	}
	r1, r2 := core.DecombineExact(rec.Record, rep)
	if st.Trace != nil {
		st.Trace(Decombined, r1.ID, r2.ID, 0)
	}
	b2 := st.store.At(rec.H2)
	b.SetReply(r1)
	b2.SetReply(r2)
	st.AcceptRev(&RevEntry{ID: r1.ID, Path: e.Path, H: e.H, Src: e.Src, Valued: rec.Needs1}, now, home)
	st.AcceptRev(&RevEntry{ID: r2.ID, Path: rec.Path2, H: rec.H2, Src: b2.Src, Valued: rec.Needs2}, now, home)
	return true
}

// Crash flushes the station's volatile state — every queue and the wait
// buffer, and the bodies they held — and returns the leaf request ids whose
// only copy here was lost.  A flushed wait record is a double loss: the
// second requester's routing state is gone, so even if the combined
// message's reply returns it passes through and the second requester
// recovers by retransmitting.  It frees into the store, so it runs where no
// pool worker does (the step prologue).
func (st *Station) Crash() []word.ReqID {
	var ids []word.ReqID
	for i := range st.Fwd {
		held := st.Fwd[i].View()
		for j := range held {
			b := st.store.At(held[j].H)
			ids = LostLeaves(ids, b.Req.Reps(), b.Req.ID)
			st.store.Free(held[j].H)
		}
		st.Fwd[i].Clear()
	}
	for i := range st.Rev {
		held := st.Rev[i].View()
		for j := range held {
			rep := st.store.At(held[j].H).Reply()
			ids = LostReply(ids, &rep)
			st.store.Free(held[j].H)
		}
		st.Rev[i].Clear()
	}
	for _, rec := range st.Wait.Flush() {
		b := st.store.At(rec.H2)
		ids = LostLeaves(ids, b.Req.Reps(), rec.ID2)
		st.store.Free(rec.H2)
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
