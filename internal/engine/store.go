package engine

import (
	"combining/internal/core"
	"combining/internal/word"
)

// Messages stay put (DESIGN.md §6.2).  A switch routes ⟨id, addr, f⟩ on its
// address and its return path, and reads f only when two requests for one
// address meet (Section 4, Figure 1).  So a station queue holds a small
// entry — what a hop reads when it neither combines nor decombines — and the
// rest of the message, its Body, stays in one slot of the shell's Store from
// the cycle it enters the fabric until it leaves it.  A hop moves the entry;
// the body is read by a combine with a same-address partner, a decombine,
// the module feed and reply, delivery, a fault draw, a trace event and a
// crash flush, and by nothing else.
//
// Who allocates and who frees:
//
//   - a body is allocated when a station takes a message in value form
//     (Station.PutFwd, PutRev): a port's request or retransmit at Inject, a
//     request released from the forward limbo, a reply landing behind the
//     processor links (the bus), and every arrival at an asyncnet switch;
//   - a combine writes the combined request into the queued body and the
//     wait record keeps the absorbed request's; a decombine writes the two
//     replies into those two bodies; the module writes its reply into the
//     body of the request it served, which the metadata shard kept;
//   - a body is freed when its message leaves the fabric — delivered
//     (Commit), lost on a link, deferred into the forward limbo (which holds
//     values), quarantined, replaced in the metadata shard by a retransmit,
//     or flushed by a crash.
//
// Allocation happens only where no pool worker runs: the port path, the step
// prologue and a serial commit.  A worker frees into its Lane, and the shell
// returns the lanes' frees to the store after the sweep, as it folds their
// counters.  A reply a hop brings home waits in its lane's home list as an
// entry until Commit delivers it; outside the stations and those lists —
// ports, retry lists, limbo, asyncnet's channels — messages are the values
// Fwd and Rev.

// FwdEntry is a request in a station queue: its address and return path,
// its body's handle, the cycle it last hopped, and the value slots it
// carries (core.ValueSlots of its op, for the traffic counters).
type FwdEntry struct {
	Addr  word.Addr
	H     int32
	Path  Path
	Moved uint32
	Slots uint8
}

// RevEntry is a reply in a station queue: the id a wait buffer looks up,
// the route home (Path, or Src on wirings that route by processor), its
// body's handle, the cycle it last hopped, and whether it carries a value.
type RevEntry struct {
	ID     word.ReqID
	Path   Path
	H      int32
	Moved  uint32
	Src    int32
	Valued bool
}

// Body is the part of a message no plain hop reads.  Req is the request;
// once a module or a decombine has written a reply here, Req's ID, Attempt
// and Sum are the reply's and Val and Leaves hold the rest of it (Reply).
// Src, Issue and Hot are the issuing processor, the first injection cycle
// and the hot-spot tag, which delivery reads.
type Body struct {
	Req    core.Request
	Issue  int64
	Src    int32
	Hot    bool
	Val    word.Word
	Leaves *[]core.LeafVal
}

// Reply is the reply written into the body.
func (b *Body) Reply() core.Reply {
	return core.Reply{ID: b.Req.ID, Val: b.Val, Attempt: b.Req.Attempt, Leaves: b.Leaves, Sum: b.Req.Sum}
}

// SetReply writes rep into the body in place of the request it answers.
func (b *Body) SetReply(rep core.Reply) {
	b.Req.ID, b.Req.Attempt, b.Req.Sum = rep.ID, rep.Attempt, rep.Sum
	b.Val, b.Leaves = rep.Val, rep.Leaves
}

// storePageBits sizes a store page: 128 bodies, 11 KiB.
const storePageBits = 7

// Store holds the bodies of the messages in one machine's stations, wait
// buffers and metadata shards, addressed by int32 handles.  Bodies live in
// fixed pages that never move, so growing the store copies nothing and
// leaves no garbage; freed handles are reused newest first.  Handle 0 names
// no body, so a zero entry or record holds none.  A Store is not safe for
// concurrent use: see the allocation rule above.
type Store struct {
	pages []*[1 << storePageBits]Body
	free  []int32
	next  int32 // the lowest handle never handed out
	live  int
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{next: 1} }

// Alloc returns the handle of a zero body.
func (s *Store) Alloc() int32 {
	s.live++
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		return h
	}
	h := s.next
	if int(h>>storePageBits) == len(s.pages) {
		s.pages = append(s.pages, new([1 << storePageBits]Body))
	}
	s.next++
	return h
}

// At returns the body handle h names, in place.
func (s *Store) At(h int32) *Body { return &s.pages[h>>storePageBits][h&(1<<storePageBits-1)] }

// Free zeroes the body h names — it pins no lineage or leaf list — and
// returns its handle for reuse.
func (s *Store) Free(h int32) {
	if h == 0 {
		panic("engine: Free of handle 0, which names no body")
	}
	*s.At(h) = Body{}
	s.free = append(s.free, h)
	s.live--
}

// Live counts the bodies allocated and not freed.
func (s *Store) Live() int { return s.live }

// put stores request m's body and returns its entry.
func (s *Store) put(m *Fwd) FwdEntry {
	h := s.Alloc()
	*s.At(h) = Body{Req: m.Req, Issue: m.Issue, Src: int32(m.Src), Hot: m.Hot}
	return FwdEntry{Addr: m.Req.Addr, H: h, Path: m.Path, Slots: uint8(core.ValueSlots(m.Req.Op))}
}

// putRev stores reply r's body and returns its entry.
func (s *Store) putRev(r *Rev) RevEntry {
	h := s.Alloc()
	b := s.At(h)
	*b = Body{Issue: r.Issue, Src: int32(r.Src), Hot: r.Hot}
	b.SetReply(r.Rep)
	return RevEntry{ID: r.Rep.ID, Path: r.Path, H: h, Src: int32(r.Src), Valued: r.Valued}
}

// fwd and rev read an entry and its body back into the value form.
func (s *Store) fwd(e *FwdEntry) Fwd {
	b := s.At(e.H)
	return Fwd{Req: b.Req, Src: int(b.Src), Issue: b.Issue, Hot: b.Hot, Path: e.Path}
}

func (s *Store) rev(e *RevEntry) Rev {
	b := s.At(e.H)
	return Rev{Rep: b.Reply(), Path: e.Path, Src: int(e.Src), Issue: b.Issue, Hot: b.Hot, Valued: e.Valued}
}

// free hands body h back: to the lane's list inside a sweep, which the shell
// returns to the store after it (mergeLanes).
func (ln *Lane) free(h int32) { ln.freed = append(ln.freed, h) }

// Bodies counts the live bodies in the machine's store.
func (s *Shell) Bodies() int { return s.store.Live() }
