package engine

import (
	"fmt"

	"combining/internal/core"
	"combining/internal/word"
)

// The terminal links and the memory modules behind them.  A terminal link
// is the last hop on either side of the fabric: fabric → memory module and
// fabric → processor.  Under an adversarial plan these are the links that
// reorder, duplicate and corrupt; the message is stamped with its checksum
// at the last trusted hop (the caller's side), verified on the far side,
// and quarantined on mismatch — the retransmit machinery then repairs the
// loss exactly-once.  The fabric names each link by the fault site it
// passes in; the shell never interprets it.

// heldFwd is a request deferred by reordering on the link into a module
// (the one whose limbo holds it): it enters the module at release, or one
// cycle later per cycle the module cannot take it.
type heldFwd struct {
	release int64
	site    uint64
	m       Fwd
}

// heldRev is a reply deferred by reordering on the link to its processor; it
// is delivered at release.
type heldRev struct {
	release int64
	site    uint64
	r       Rev
}

// Lane returns pool worker w's lane; Lane(0) is also the stepping
// goroutine's outside the pool.
func (s *Shell) Lane(w int) *Lane { return &s.lanes[w] }

// mergeLanes folds every lane's counters into the run totals and clears
// them, and returns the bodies the lanes freed to the store.  The
// observation multiset equals the serial schedule's, so the sums add to
// exactly its totals.
func (s *Shell) mergeLanes() {
	t := &s.tot.Shard
	for i := range s.lanes {
		ln := &s.lanes[i]
		for _, h := range ln.freed {
			s.store.Free(h)
		}
		ln.freed = ln.freed[:0]
		sh := &ln.Shard
		t.MemRequests += sh.MemRequests
		t.MemAcks += sh.MemAcks
		t.Checkpoints += sh.Checkpoints
		t.Orphans += sh.Orphans
		t.MemBusy += sh.MemBusy
		t.Combines += sh.Combines
		t.FwdHops += sh.FwdHops
		t.RevHops += sh.RevHops
		t.FwdSlots += sh.FwdSlots
		t.RevSlots += sh.RevSlots
		t.HoldsRev += sh.HoldsRev
		t.HoldsMem += sh.HoldsMem
		t.HoldsMemOut += sh.HoldsMemOut
		*sh = Shard{}
	}
}

// enterMemory carries a request across the terminal link into module mod
// and files its entry — its return path and its body — until the reply
// emerges.  The caller has already checked that the module can take it.
// Under an adversarial plan the link may first defer it into limbo, in
// value form; nothing is filed for a message that never arrives.  e is read,
// never kept: the caller's slot is free again when enterMemory returns.
func (s *Shell) enterMemory(site uint64, mod int, e *FwdEntry, ln *Lane) {
	if s.adv {
		b := s.store.At(e.H)
		if d := s.flt.ReorderDelay(site, b.Req.ID, b.Req.Attempt); d > 0 {
			s.fwdLimbo[mod] = append(s.fwdLimbo[mod], heldFwd{release: s.tot.Cycles + d, site: site, m: s.store.fwd(e)})
			ln.free(e.H)
			return
		}
		s.memEnter(site, mod, e, ln)
		return
	}
	ln.MemRequests++
	s.metaInsert(mod, e, ln)
	s.mem.Module(mod).Enqueue(s.store.At(e.H).Req)
	s.memLoad[mod]++
}

// memEnter is the module side of the adversarial link: the request is
// stamped (combining has legitimately rewritten the op by now), possibly
// corrupted on the wire, verified, and quarantined on mismatch.  The
// duplicate draw comes after verification so dup_injected counts only
// messages that actually entered the module twice; metadata is filed
// before the duplicate and never for a quarantined request, whose body is
// freed.
func (s *Shell) memEnter(site uint64, mod int, e *FwdEntry, ln *Lane) {
	b := s.store.At(e.H)
	stamped := core.StampRequest(b.Req)
	wire := stamped
	if mask := s.flt.CorruptMask(site, wire.ID, wire.Attempt); mask != 0 {
		wire = core.CorruptRequest(wire, mask)
	}
	if !core.RequestOK(wire) {
		s.flt.NoteCorruptDropped()
		ln.free(e.H)
		return // quarantined: equivalent to a detected drop on this link
	}
	module := s.mem.Module(mod)
	sh := &ln.Shard
	sh.MemRequests++
	b.Req = stamped
	s.metaInsert(mod, e, ln)
	module.Enqueue(wire)
	s.memLoad[mod]++
	if s.flt.Duplicate(site, wire.ID, wire.Attempt) && module.CanEnqueue() {
		// Network-born duplicate: the link re-emits a message the sender
		// never retransmitted.  The reply cache answers the second copy
		// from its leaf values; its reply finds no metadata and orphans.
		// The copy owns its lineage (core.Request.Clone).
		sh.MemRequests++
		module.Enqueue(wire.Clone())
		s.memLoad[mod]++
	}
}

// metaShard holds the entries of the requests one module has taken — each
// its return path and its body's handle — in filing order: the live boxes
// are filed[head:].  A module serves its queue in order, so the reply that
// emerges answers the oldest box on a healthy machine, and take finds it
// first.  Once the storage has grown to the module's peak occupancy, filing
// allocates nothing.
type metaShard struct {
	filed []FwdEntry
	head  int
}

// file files e in the shard.  An id already filed is replaced in place —
// retransmits and duplicates re-file an id under a fault plan — so the
// caller says whether to search (a healthy machine never files an id
// twice); the replaced entry's handle is returned for the caller to free,
// 0 when nothing was replaced.
func (sh *metaShard) file(e *FwdEntry, store *Store, search bool) int32 {
	if search {
		id := store.At(e.H).Req.ID
		for i := sh.head; i < len(sh.filed); i++ {
			if store.At(sh.filed[i].H).Req.ID == id {
				old := sh.filed[i].H
				sh.filed[i] = *e
				return old
			}
		}
	}
	if sh.head > 0 && len(sh.filed) == cap(sh.filed) {
		// Reclaim the taken boxes at the front before growing.
		sh.filed = sh.filed[:copy(sh.filed, sh.filed[sh.head:])]
		sh.head = 0
	}
	sh.filed = append(sh.filed, *e)
	return 0
}

// take removes the entry filed under id, scanning from the oldest, and
// returns it.
func (sh *metaShard) take(id word.ReqID, store *Store) (FwdEntry, bool) {
	for i := sh.head; i < len(sh.filed); i++ {
		e := sh.filed[i]
		if store.At(e.H).Req.ID != id {
			continue
		}
		if i == sh.head {
			sh.head++
		} else {
			sh.filed = append(sh.filed[:i], sh.filed[i+1:]...)
		}
		if sh.head == len(sh.filed) {
			sh.filed, sh.head = sh.filed[:0], 0
		}
		return e, true
	}
	return FwdEntry{}, false
}

// boxes returns the filed entries, oldest first.
func (sh *metaShard) boxes() []FwdEntry { return sh.filed[sh.head:] }

// clear drops every filed entry.
func (sh *metaShard) clear() { sh.filed, sh.head = sh.filed[:0], 0 }

// metaInsert files request e under its module's shard; a replaced entry's
// body goes back through the lane.
func (s *Shell) metaInsert(mod int, e *FwdEntry, ln *Lane) {
	if old := s.meta[mod].file(e, s.store, s.flt != nil); old != 0 {
		ln.free(old)
	}
}

// serve advances module mod one service cycle and, when a reply emerges,
// returns it with the entry of the request it answers, whose body the
// caller now owns.  A reply with no filed request is expected under
// retransmission — an original and a retransmit both reached memory, the
// first reply consumed the metadata — and counts as an orphan; on a healthy
// machine it is a bug.
func (s *Shell) serve(mod int, sh *Shard) (core.Reply, FwdEntry, bool) {
	module := s.mem.Module(mod)
	busy, served := module.BusyCycles, module.Served
	rep, ok := module.Tick()
	sh.MemBusy += module.BusyCycles - busy
	if s.crash {
		// Output commit: a request served this cycle left the queue for the
		// withheld replies, which no tick moves before the next checkpoint.
		s.memLoad[mod] -= int32(module.Served - served)
	}
	if !ok {
		return rep, FwdEntry{}, false
	}
	sh.MemAcks++
	s.memLoad[mod]--
	e, found := s.meta[mod].take(rep.ID, s.store)
	if !found {
		if s.flt == nil {
			panic(fmt.Sprintf("%s: cycle %d, module %d: reply id %d (%v) with no request metadata",
				s.name, s.tot.Cycles, mod, rep.ID, rep))
		}
		sh.Orphans++
		return rep, FwdEntry{}, false
	}
	return rep, e, true
}

// deliver carries a reply that has left the fabric across the terminal link
// to its processor (r.Src).  On a trusted link it simply lands; under an
// adversarial plan this is the last trusted hop: the reply is stamped with
// its checksum, then the link may defer it into limbo (reorder) before the
// far side sees it.  r is the caller's to reuse afterwards.
func (s *Shell) deliver(site uint64, r *Rev) {
	if !s.adv {
		s.landed(r)
		return
	}
	r.Rep = core.StampReply(r.Rep)
	if d := s.flt.ReorderDelay(site, r.Rep.ID, r.Rep.Attempt); d > 0 {
		s.revLimbo = append(s.revLimbo, heldRev{release: s.tot.Cycles + d, site: site, r: *r})
		return
	}
	s.deliverVerified(site, r)
}

// deliverVerified is the processor side of the adversarial link: corrupt on
// the wire, verify the checksum, quarantine on mismatch (the processor
// retransmits and the reply cache answers), and land — twice when the link
// duplicates, with the tracker suppressing the second copy.  The duplicate
// owns its leaf list: a shallow copy would share it with the original
// (core.Reply.Clone).
func (s *Shell) deliverVerified(site uint64, r *Rev) {
	if mask := s.flt.CorruptMask(site, r.Rep.ID, r.Rep.Attempt); mask != 0 {
		r.Rep = core.CorruptReply(r.Rep, mask)
	}
	if !core.ReplyOK(r.Rep) {
		s.flt.NoteCorruptDropped()
		return // quarantined: the retransmit machinery re-drives the op
	}
	if s.flt.Duplicate(site, r.Rep.ID, r.Rep.Attempt) {
		dup := *r
		dup.Rep = r.Rep.Clone()
		s.landed(&dup)
	}
	s.landed(r)
}

// landed is the far side of the processor link.  On a wiring whose wait
// buffer sits behind that link (Links.Behind: the bus) the reply decombines
// there — stored again for it, which Commit's caller allows (Commit) — and
// every leaf completes at its own processor; otherwise replies cross the
// link already decombined.
func (s *Shell) landed(r *Rev) {
	if s.links.Behind == nil {
		s.complete(r)
		return
	}
	buf := s.behindBuf[:0]
	s.st.PutRev(int(s.links.Behind[r.Src]), r, s.now(), &buf)
	for i := range buf {
		leaf := s.store.rev(&buf[i])
		s.store.Free(buf[i].H)
		s.complete(&leaf)
	}
	s.behindBuf = buf[:0]
}

// complete hands one decombined reply to its processor and does the
// delivery accounting: duplicate suppression, the crash-replay ledger,
// latency, and the completion counters.
func (s *Shell) complete(r *Rev) {
	if s.trk != nil {
		if _, ok := s.trk.Deliver(r.Rep.ID, s.tot.Cycles); !ok {
			return // duplicate of an already-delivered reply; suppressed
		}
	}
	if s.crash {
		// A completion whose in-flight copy a crash flushed was re-driven
		// here by the retry machinery — count the replay.
		s.rec.noteDelivered(r.Rep.ID)
	}
	lat := s.tot.Cycles - r.Issue
	s.tot.Completed++
	s.tot.LatencySum += lat
	s.lat.Record(lat)
	if r.Hot {
		s.tot.HotCompleted++
		s.tot.HotLatencySum += lat
	} else {
		s.tot.ColdCompleted++
		s.tot.ColdLatencySum += lat
	}
	if s.trace != nil {
		s.portEvent(Delivered, r.Rep.ID, 0, r.Src)
	}
	s.inj[r.Src].Deliver(r.Rep, s.tot.Cycles)
}

// drainLimbo releases reordered messages whose deferral has elapsed.  It
// runs serially at the top of Step, module by module: a module's limbo
// releases in the order its link deferred them, and modules share nothing a
// release touches, so no other order is observable.  A forward release
// finding its module crashed or unable to take it re-holds one cycle (the
// deferral bound is on the adversarial link, not on ordinary backpressure),
// and held messages are never re-reordered, so the deferral is bounded by
// ReorderMax plus the backpressure already counted against every request.
func (s *Shell) drainLimbo() {
	for mod, held := range s.fwdLimbo {
		if len(held) == 0 {
			continue
		}
		keep := held[:0]
		for _, h := range held {
			if h.release > s.tot.Cycles {
				keep = append(keep, h)
				continue
			}
			if !s.MemReady(mod) {
				h.release = s.tot.Cycles + 1
				keep = append(keep, h)
				continue
			}
			e := s.store.put(&h.m)
			s.memEnter(h.site, mod, &e, &s.lanes[0])
		}
		s.fwdLimbo[mod] = keep
	}
	if len(s.revLimbo) > 0 {
		keep := s.revLimbo[:0]
		for _, h := range s.revLimbo {
			if h.release > s.tot.Cycles {
				keep = append(keep, h)
				continue
			}
			s.deliverVerified(h.site, &h.r)
		}
		s.revLimbo = keep
	}
}

// LostLeaves appends to ids the leaf request ids a flushed request or wait
// record represented: its own id when uncombined, otherwise every leaf of
// its representation list.  Flush hooks build their loss reports with it.
func LostLeaves(ids []word.ReqID, reps []core.Leaf, id word.ReqID) []word.ReqID {
	if len(reps) == 0 {
		return append(ids, id)
	}
	for _, lf := range reps {
		ids = append(ids, lf.ID)
	}
	return ids
}

// LostReply is LostLeaves for a flushed reply.
func LostReply(ids []word.ReqID, rep *core.Reply) []word.ReqID {
	if rep.Leaves == nil {
		return append(ids, rep.ID)
	}
	for _, lv := range *rep.Leaves {
		ids = append(ids, lv.ID)
	}
	return ids
}
