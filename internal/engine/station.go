package engine

import (
	"fmt"
	"math/bits"

	"combining/internal/core"
	"combining/internal/rmw"
	"combining/internal/word"
)

// The combining station of Section 4, Figure 1: output FIFOs, a wait buffer,
// decombining on the way back.  An omega switch, a cube or torus router with
// its memory combining queue and the bus's decoupling FIFO are all a row of
// this one type, Stations;
// what differs between them is how many queues a station has and what its
// links lead to, which is the wiring's business (Links), not the station's.
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
// route replies by Src (Links.Back) the hops stamp it all the same and
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

// Load says which of a station's queues hold a message: bit i of Fwd is set
// exactly when forward queue i is non-empty, and bit i of Rev when reverse
// queue i is.  Bit i of Park is set when forward queue i's head is parked
// (park.go): refused, and refused again until the queue that refused it
// changes; Park is a subset of Fwd.  Stations keeps every station's masks
// in one dense array in sweep order (Shell.Loads), so a sweep finds an empty
// station without touching it, and a hop visits only the queues that have a
// head to move.
type Load struct{ Fwd, Rev, Park uint32 }

// MaxQueues is the most queues a station can have on one side: one bit of a
// Load mask each.
const MaxQueues = 32

// The occupancy words are the index's second level: one bit per station
// side, set when the side has a queue whose head may move — a reverse side
// when its Rev mask is non-zero, a forward side when Fwd &^ Park is, or
// when a wake has roused one of its parked heads (park.go) — 64 to a word,
// each row of stations (a stage, Own) starting a word — so a sweep walks a
// row's set bits (occupied) instead of asking every station.  They come in
// one array per (writer lane, hop owner) pair, the hop owner being the
// worker that hops the side: a push that fills an empty side sets its bit
// in the array of the pushing lane (Lane) and the side's owner, a pop that
// empties it clears it in every array of that owner, and the owner reads
// the OR of its own arrays.  Under the closed-block rule every word then
// has one writer in any phase, with plain stores (DESIGN.md §6.1); at one
// worker there is one array.

// Stations is a fabric's combining stations, a row each: station at has
// forward queues fwd[at·nf:(at+1)·nf], reverse queues rev[at·nr:(at+1)·nr],
// wait buffer wait[at] and occupancy masks loads[at].  Each column is one
// array in station order, so a sweep in station order reads it in address
// order, and the bodies of every station's messages are in one store.
// Everything done to a station is a method here that takes its index.
type Stations struct {
	fwd    []core.FIFO[FwdEntry]
	rev    []core.FIFO[RevEntry]
	nf, nr int
	wait   []core.WaitBuffer[Record]
	// fixedRoom says every wait buffer's room is fixed — capacity 0 or
	// unbounded — so a refusal never depends on it changing (park.go).
	fixedRoom bool
	// loads[at] marks station at's non-empty queues, full[at] its forward
	// queues at their bound and spent[at] its reverse queues holding their
	// base credit or more (bit i: queue i).  The methods that push and pop
	// its queues keep all three, and nothing else writes them.
	loads []Load
	full  []uint32
	spent []uint32
	// occ holds the occupancy words: array (lane l, owner o) is
	// occ[l·stride+o·span:][:span], the forward rows first, rowWords words a
	// row.  fwdBit[at] and revBit[at] place station at's sides in their
	// owner's arrays: word·64 + bit, the word counted from lane 0's first
	// array.
	occ            []uint64
	span, stride   int
	rows, rowLen   int
	rowWords       int
	fwdBit, revBit []int32
	parks
	portWords
	store *Store
	// back is Links.Back: back[at][src] is the reverse queue of station at
	// toward processor src, or -1 when src is attached there.  nil on
	// wirings whose replies pop a recorded path, and until a shell takes the
	// stations (Shell.Init).
	back   [][]int8
	revCap int // reverse base credit per queue; <= 0 means unbounded
	pol    core.Policy
	// Intercept, when non-nil, sees every request arriving at a station
	// before the combine scan and reports whether it disposed of it — the
	// seat of the Section 5.1 ablation (network.Config.BuggyLoadForwarding).
	// ln is the arriving hop's lane.
	Intercept func(st *Stations, at, out int, e FwdEntry, path Path, now uint32, ln *Lane) bool
	// trace, when non-nil, observes the Combined, Rejected and Decombined
	// events at station at (a traced shell installs it: ShellConfig.Trace).
	trace func(at int, kind EventKind, id, id2 word.ReqID, addr word.Addr)
}

// NewStations builds count stations of fwd forward and rev reverse queues
// over one new message store, their occupancy words laid out as one row
// that one worker hops until the wiring says otherwise (Own).  queueCap
// bounds the forward queues (<= 0: unbounded); the reverse queues are
// unbounded as storage and admitted by credit (revCap, CanAcceptRev).  A side of more than MaxQueues queues is a
// caller's bug (a Config's Validate rejects the wiring), and panics.
func NewStations(count, fwd, rev, queueCap, revCap, waitCap int, pol core.Policy) *Stations {
	if fwd > MaxQueues || rev > MaxQueues {
		panic(fmt.Sprintf("engine: stations of %d forward and %d reverse queues; the occupancy index holds %d a side",
			fwd, rev, MaxQueues))
	}
	st := &Stations{
		fwd: make([]core.FIFO[FwdEntry], count*fwd), rev: make([]core.FIFO[RevEntry], count*rev),
		nf: fwd, nr: rev,
		wait:  make([]core.WaitBuffer[Record], count),
		loads: make([]Load, count), full: make([]uint32, count), spent: make([]uint32, count),
		store: NewStore(), revCap: revCap, pol: pol, fixedRoom: waitCap == 0 || waitCap == core.Unbounded,
	}
	st.waiters, st.heads = make([]uint32, count*fwd), make([]parkedHead, count*fwd)
	for i := range st.fwd {
		st.fwd[i] = core.NewFIFO[FwdEntry](queueCap)
	}
	for i := range st.wait {
		st.wait[i] = *core.NewWaitBuffer[Record](waitCap)
	}
	st.Own(count, 1, nil)
	return st
}

// Own lays the occupancy words out for rows of rowLen stations and a
// schedule of workers lanes: owner(fwd, at) is the worker that hops station
// at's forward or reverse side, and lanes 0 to workers−1 may push.  A nil
// owner gives every side to worker 0.  The words start empty: a wiring
// calls Own once, before any message enters.
func (st *Stations) Own(rowLen, workers int, owner func(fwd bool, at int) int) {
	rows := (st.Len() + rowLen - 1) / rowLen
	st.rows, st.rowLen, st.rowWords = rows, rowLen, (rowLen+63)/64
	st.span = (2*rows*st.rowWords + 7) &^ 7 // a whole number of cache lines
	st.stride = workers * st.span
	st.occ = make([]uint64, workers*st.stride)
	st.fwdBit, st.revBit = make([]int32, st.Len()), make([]int32, st.Len())
	for at := range st.fwdBit {
		row, idx := at/rowLen, at%rowLen
		for side, pos := range [2][]int32{st.fwdBit, st.revBit} {
			o := 0
			if owner != nil {
				o = owner(side == 0, at)
			}
			pos[at] = int32((o*st.span+(side*rows+row)*st.rowWords+idx/64)<<6 | idx%64)
		}
	}
}

// mark sets station at's side bit (pos: fwdBit or revBit) in lane w's
// array for the side's owner: a push filled the empty side.
func (st *Stations) mark(pos []int32, at, w int) {
	b := pos[at]
	st.occ[w*st.stride+int(b>>6)] |= 1 << (b & 63)
}

// unmark clears station at's side bit in every lane's array for the side's
// owner: a pop emptied it, or a crash.  Only a word holding the bit is
// written.
func (st *Stations) unmark(pos []int32, at int) {
	b := pos[at]
	bit := uint64(1) << (b & 63)
	for i := int(b >> 6); i < len(st.occ); i += st.stride {
		if st.occ[i]&bit != 0 {
			st.occ[i] &^= bit
		}
	}
}

// fwdOwner is the hop owner of station at's forward side.
func (st *Stations) fwdOwner(at int) int { return int(st.fwdBit[at]>>6) / st.span }

// setBit, clearBit and hasBit set, clear and test bit b of words, 64 to a
// word.
func setBit(words []uint64, b int32)      { words[b>>6] |= 1 << (b & 63) }
func clearBit(words []uint64, b int32)    { words[b>>6] &^= 1 << (b & 63) }
func hasBit(words []uint64, b int32) bool { return words[b>>6]&(1<<(b&63)) != 0 }

// occupied is worker w's occupancy word i of the given row's forward or
// reverse side: bit j is set when station row·rowLen + 64i + j holds a
// message on that side and w hops it.  It is the OR of w's arrays, and
// only w writes them while it hops the row.
func (st *Stations) occupied(fwd bool, row, i, w int) uint64 {
	if !fwd {
		row += st.rows
	}
	j := w*st.span + row*st.rowWords + i
	var m uint64
	for ; j < len(st.occ); j += st.stride {
		m |= st.occ[j]
	}
	return m
}

// pushed is word i of the given row's forward or reverse side in lane w's
// own arrays, for every owner: the sides w's pushes marked and no pop or
// crash has emptied since.  No other worker writes w's arrays while w
// hops: a pop clears the bit in every lane's array, but only in the phase
// that hops the side.
func (st *Stations) pushed(fwd bool, row, i, w int) uint64 {
	if !fwd {
		row += st.rows
	}
	var m uint64
	for j := w*st.stride + row*st.rowWords + i; j < (w+1)*st.stride; j += st.span {
		m |= st.occ[j]
	}
	return m
}

// Len is the number of stations.
func (st *Stations) Len() int { return len(st.loads) }

// Fwd and Rev are station at's forward and reverse queues.
func (st *Stations) Fwd(at int) []core.FIFO[FwdEntry] {
	return st.fwd[at*st.nf : (at+1)*st.nf : (at+1)*st.nf]
}

func (st *Stations) Rev(at int) []core.FIFO[RevEntry] {
	return st.rev[at*st.nr : (at+1)*st.nr : (at+1)*st.nr]
}

// Body returns the body handle h names in the stations' store.
func (st *Stations) Body(h int32) *Body { return st.store.At(h) }

// AcceptFwd takes request e into station at's forward queue out: combined
// with the most recent queued request for its address when the pair
// combines and the wait buffer has room, else appended, else — the queue is
// full — refused, and the upstream holds it.  path is e's header with this
// station's entry stamped.  Its body stays in the store either way: a taken
// request's now belongs to the queue or, absorbed by a combine, to the wait
// record.  ln is the caller's lane: its counters, and the arrays of the
// occupancy words it writes.
func (st *Stations) AcceptFwd(at int, e *FwdEntry, out int, path Path, now uint32, ln *Lane) bool {
	if st.Intercept != nil && st.Intercept(st, at, out, *e, path, now, ln) {
		return true
	}
	q := &st.fwd[at*st.nf+out]
	if q.Len() > 0 && st.combine(at, out, q, e, path, ln) {
		return true
	}
	if q.Full() {
		return false
	}
	slot := q.Push()
	*slot = *e
	slot.Path, slot.Moved = path, now
	// The side gains a head that may move unless it had one, or the push
	// lands behind a parked head.
	if l := &st.loads[at]; l.Fwd&^l.Park == 0 && l.Park&(1<<out) == 0 {
		st.mark(st.fwdBit, at, ln.w)
	}
	st.loads[at].Fwd |= 1 << out
	if q.Full() {
		st.full[at] |= 1 << out
	}
	return true
}

// PutFwd is AcceptFwd for a request in value form: its body is stored first
// and freed again if the station refuses it.  It allocates, so it runs where
// no pool worker does (store.go).
func (st *Stations) PutFwd(at int, m *Fwd, out int, path Path, now uint32, ln *Lane) bool {
	e := st.store.put(m)
	if st.AcceptFwd(at, &e, out, path, now, ln) {
		return true
	}
	st.store.Free(e.H)
	return false
}

// TakeFwd pops the head of station at's forward queue port in value form,
// freeing its body, as lane 0.
func (st *Stations) TakeFwd(at, port int) Fwd {
	e := st.fwd[at*st.nf+port].Front()
	m := st.store.fwd(e)
	st.store.Free(e.H)
	var ln Lane
	st.PopFwd(at, port, &ln)
	return m
}

// PopFwd and PopRev drop the head of station at's forward or reverse queue
// port: the message has crossed its link, or was lost on it.  A pop that
// empties its queue clears the queue's bit, and a forward pop leaves its
// queue below its bound, waking the heads parked on it (park.go) through
// lane ln; one that empties its station's side clears its occupancy bit (a
// side left holding only parked heads is cleared by its hop, FwdHop).  A
// mask is written only when a bit changes: a neighbouring station's entry
// may be another worker's, on the same line.
func (st *Stations) PopFwd(at, port int, ln *Lane) {
	q := &st.fwd[at*st.nf+port]
	if q.Pop(); q.Len() == 0 {
		if st.loads[at].Fwd &^= 1 << port; st.loads[at].Fwd == 0 {
			st.unmark(st.fwdBit, at)
		}
	}
	if st.full[at]&(1<<port) != 0 {
		st.full[at] &^= 1 << port
		if w := st.waiters[at*st.nf+port]; w != 0 {
			st.wake(at, at*st.nf+port, w, ln.w)
			ln.woke = true
		}
	}
}

func (st *Stations) PopRev(at, port int) {
	q := &st.rev[at*st.nr+port]
	if q.Pop(); q.Len() == 0 {
		if st.loads[at].Rev &^= 1 << port; st.loads[at].Rev == 0 {
			st.unmark(st.revBit, at)
		}
	}
	if st.spent[at]&(1<<port) != 0 && q.Len() < st.revCap {
		st.spent[at] &^= 1 << port
	}
}

// combine attempts to merge e into station at's non-empty queue q, forward
// queue out.  Only the
// LAST queued request for the address is a legal partner (M2.3).  The step
// is core.CombineAtTail, which defines it and which the tests hold this scan
// to; it is written out here because a blocked head runs it whenever the
// queue it waits on changes (the refusal memo and parking spare the rest), and
// nearly always to find no partner or no room: the scan reads the entries'
// addresses in place, the two bodies are read only for a partner, and the
// combined request and its record are built only once the pair is known to
// combine and the wait buffer to have room.
func (st *Stations) combine(at, out int, q *core.FIFO[FwdEntry], e *FwdEntry, path Path, ln *Lane) bool {
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
	wait := &st.wait[at]
	if !wait.CanPush() {
		// A full wait buffer forfeits the combine (partial combining, A1).
		wait.Rejections++
		if st.trace != nil {
			st.trace(at, Rejected, mb.Req.ID, 0, e.Addr)
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
	wait.Push(rec.ID1, Record{Record: rec, Path2: path2, H2: e.H, Needs1: needs1, Needs2: needs2})
	qb.Req = combined
	queued.Slots = uint8(core.ValueSlots(combined.Op))
	if q.Touch(); st.full[at]&(1<<out) != 0 || st.loads[at].Park&(1<<out) != 0 {
		st.touched(at, out, ln)
	}
	ln.Combines++
	if st.trace != nil {
		st.trace(at, Combined, rec.ID1, rec.ID2, e.Addr)
	}
	return true
}

// CanAcceptRev is the reserved-credit check: a reply may enter station at
// only while every reverse queue there sits below the base credit — all of
// them, because the decombining fan-out is unknown until the wait buffer is
// consulted.  An accepted reply then appends its whole fan-out
// unconditionally: each leaf beyond the first consumes a wait record this
// station created, so the records double as reserved credits and per-queue
// occupancy stays ≤ revCap + wait-buffer capacity.  Holding a reply upstream
// cannot deadlock: reverse queues drain toward the processors, which always
// consume.  The spent mask answers it without reading the queues.
func (st *Stations) CanAcceptRev(at int) bool { return st.spent[at] == 0 }

// AcceptRev takes a reply arriving at station at from the memory side: it
// undoes every combine recorded there that the reply answers (most recent
// first, several for a k-way combine) and queues each resulting reply toward
// its processor; one whose processor is attached there is appended to the
// caller's lane's Home instead.
func (st *Stations) AcceptRev(at int, e *RevEntry, now uint32, ln *Lane) {
	if st.wait[at].Len() > 0 && st.decombine(at, e, now, ln) {
		return
	}
	port, path := 0, e.Path
	if st.back != nil {
		port = int(st.back[at][e.Src])
	} else {
		port, path = path.Pop()
	}
	if port < 0 {
		ln.Home = append(ln.Home, *e)
		return
	}
	q := &st.rev[at*st.nr+port]
	slot := q.Push()
	*slot = *e
	slot.Path, slot.Moved = path, now
	if st.loads[at].Rev == 0 {
		st.mark(st.revBit, at, ln.w)
	}
	st.loads[at].Rev |= 1 << port
	if st.revCap > 0 && q.Len() >= st.revCap {
		st.spent[at] |= 1 << port
	}
}

// PutRev is AcceptRev for a reply in value form, whose body it stores.  It
// allocates, so it runs where no pool worker does (store.go).
func (st *Stations) PutRev(at int, r *Rev, now uint32, ln *Lane) {
	e := st.store.putRev(r)
	st.AcceptRev(at, &e, now, ln)
}

// TakeRev pops the head of station at's reverse queue port in value form,
// freeing its body.
func (st *Stations) TakeRev(at, port int) Rev {
	e := st.rev[at*st.nr+port].Front()
	r := st.store.rev(e)
	st.store.Free(e.H)
	st.PopRev(at, port)
	return r
}

// decombine undoes the most recent combine recorded at station at that r
// answers.  PopMatch skips records the reply cannot answer: under fault
// injection a record goes stale when its combined message is dropped
// downstream, and a later (retransmitted) reply for the same id must pass
// through rather than synthesize a second requester's reply from a combine
// that never reached memory.  On a healthy machine every record matches.
func (st *Stations) decombine(at int, e *RevEntry, now uint32, ln *Lane) bool {
	b := st.store.At(e.H)
	rep := b.Reply()
	match := func(rec Record) bool { return core.CanDecombine(rec.Record, rep) }
	rec, ok := st.wait[at].PopMatch(e.ID, match)
	if !ok {
		return false
	}
	r1, r2 := core.DecombineExact(rec.Record, rep)
	if st.trace != nil {
		st.trace(at, Decombined, r1.ID, r2.ID, 0)
	}
	b2 := st.store.At(rec.H2)
	b.SetReply(r1)
	b2.SetReply(r2)
	st.AcceptRev(at, &RevEntry{ID: r1.ID, Path: e.Path, H: e.H, Src: e.Src, Valued: rec.Needs1, Attempt: attemptOf(r1.Attempt)}, now, ln)
	st.AcceptRev(at, &RevEntry{ID: r2.ID, Path: rec.Path2, H: rec.H2, Src: b2.Src, Valued: rec.Needs2, Attempt: attemptOf(r2.Attempt)}, now, ln)
	return true
}

// Crash flushes station at's volatile state — every queue and the wait
// buffer, and the bodies they held — and returns the leaf request ids whose
// only copy there was lost.  A flushed wait record is a double loss: the
// second requester's routing state is gone, so even if the combined
// message's reply returns it passes through and the second requester
// recovers by retransmitting.  The heads parked on a flushed queue are
// woken; the station's own parked heads must already be settled and
// forgotten (Shell.flush).  It frees into the store, so it runs where no
// pool worker does (the step prologue), as lane 0.
func (st *Stations) Crash(at int) []word.ReqID {
	var ids []word.ReqID
	fwd, rev := st.Fwd(at), st.Rev(at)
	for i := range fwd {
		held := fwd[i].View()
		for j := range held {
			ids = st.store.At(held[j].H).Req.AppendLeafIDs(ids)
			st.store.Free(held[j].H)
		}
		fwd[i].Clear()
		if w := st.waiters[at*st.nf+i]; w != 0 {
			st.wake(at, at*st.nf+i, w, 0)
		}
	}
	for i := range rev {
		held := rev[i].View()
		for j := range held {
			ids = st.store.At(held[j].H).Reply().AppendLeafIDs(ids)
			st.store.Free(held[j].H)
		}
		rev[i].Clear()
	}
	for _, rec := range st.wait[at].Flush() {
		ids = st.store.At(rec.H2).Req.AppendLeafIDs(ids)
		st.store.Free(rec.H2)
	}
	if st.loads[at].Fwd != 0 {
		st.unmark(st.fwdBit, at)
	}
	if st.loads[at].Rev != 0 {
		st.unmark(st.revBit, at)
	}
	st.loads[at], st.full[at], st.spent[at] = Load{}, 0, 0
	return ids
}

// Occupancy counts the messages and wait records station at holds, reading
// only the queues its masks mark.
func (st *Stations) Occupancy(at int) (fwd, rev, wait int) {
	l := st.loads[at]
	for m := l.Fwd; m != 0; m &= m - 1 {
		fwd += st.fwd[at*st.nf+bits.TrailingZeros32(m)].Len()
	}
	for m := l.Rev; m != 0; m &= m - 1 {
		rev += st.rev[at*st.nr+bits.TrailingZeros32(m)].Len()
	}
	return fwd, rev, st.wait[at].Len()
}

// Records is the number of wait records station at holds.
func (st *Stations) Records(at int) int { return st.wait[at].Len() }

// PushRecord files rec in station at's wait buffer under id, as a combine
// there would, and reports whether the buffer had room.  Only a combine
// files a record on a running machine; this is the way to plant one — a
// record no reply will match, say — into a built one.
func (st *Stations) PushRecord(at int, id word.ReqID, rec Record) bool {
	return st.wait[at].Push(id, rec)
}

// MaxRev is the high-water mark across station at's reverse queues — the
// observable the reserved-credit bound is asserted on.
func (st *Stations) MaxRev(at int) int {
	peak, rev := 0, st.Rev(at)
	for i := range rev {
		peak = max(peak, rev[i].Peak())
	}
	return peak
}
