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
		t.Issued += sh.Issued
		t.Completed += sh.Completed
		t.LatencySum += sh.LatencySum
		t.HotCompleted += sh.HotCompleted
		t.HotLatencySum += sh.HotLatencySum
		t.ColdCompleted += sh.ColdCompleted
		t.ColdLatencySum += sh.ColdLatencySum
		t.MemRequests += sh.MemRequests
		t.MemAcks += sh.MemAcks
		t.Checkpoints += sh.Checkpoints
		t.Orphans += sh.Orphans
		t.Replayed += sh.Replayed
		t.MemBusy += sh.MemBusy
		t.Combines += sh.Combines
		t.FwdHops += sh.FwdHops
		t.RevHops += sh.RevHops
		t.FwdSlots += sh.FwdSlots
		t.RevSlots += sh.RevSlots
		t.HoldsRev += sh.HoldsRev
		t.HoldsMem += sh.HoldsMem
		t.HoldsMemOut += sh.HoldsMemOut
		t.Parks += sh.Parks
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
	s.settleModule(mod)
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
	s.settleModule(mod)
	if s.flt.Duplicate(site, wire.ID, wire.Attempt) && module.CanEnqueue() {
		// Network-born duplicate: the link re-emits a message the sender
		// never retransmitted.  The reply cache answers the second copy
		// from its leaf values; its reply finds no metadata and orphans.
		// The copy owns its lineage (core.Request.Clone).
		sh.MemRequests++
		module.Enqueue(wire.Clone())
	}
}

// The module words: bit mod is set exactly when a tick of module mod has
// something to act on (memory.Module.Work): a queued request, the one in
// service among them, or a released reply, but not a reply output commit
// withholds.  They are laid out per owner, as the port words are (portWords)
// — owner o's words are [o·mspan, (o+1)·mspan), modBit[mod] placing module
// mod in its owner's — the owner being the worker that hops the forward side
// of the station whose link feeds the module (Stations.Own), which feeds and
// ticks it; a wiring whose modules no link feeds (the cube's, the bus's
// banks) gives them to owner 0 and its ticks whole words.  A feed, a serve,
// a checkpoint's release and a crash settle the module's bit (settleModule)
// from its work, the only events that change it.  A skipped module counts
// nothing on a quiet cycle (Tick), and a schedule visits every module on the
// others.

// initModules lays the module words out for the modules the links feed.
func (s *Shell) initModules(modules int) {
	st, lk := s.st, s.links
	s.mspan = ((modules+63)/64 + 7) &^ 7
	s.busy = make([]uint64, st.stride/st.span*s.mspan)
	s.modBit = make([]int32, modules)
	for mod := range s.modBit {
		s.modBit[mod] = int32(mod)
	}
	for i, l := range lk.Fwd {
		if l.To < 0 {
			s.modBit[-1-l.To] = int32(st.fwdOwner(i/lk.Ports)*s.mspan<<6) - 1 - l.To
		}
	}
}

// settleModule sets module mod's bit exactly when the module has work.
func (s *Shell) settleModule(mod int) {
	if s.mem.Module(mod).Work() > 0 {
		setBit(s.busy, s.modBit[mod])
	} else {
		clearBit(s.busy, s.modBit[mod])
	}
}

// moduleBusy reports module mod's bit: whether a tick has work to act on.
func (s *Shell) moduleBusy(mod int) bool { return hasBit(s.busy, s.modBit[mod]) }

// Busy is owner w's module word i: bit j is set when module 64i + j has
// work, and w owns it.
func (s *Shell) Busy(w, i int) uint64 { return s.busy[w*s.mspan+i] }

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
	busy := module.BusyCycles
	rep, ok := module.Tick()
	sh.MemBusy += module.BusyCycles - busy
	// The tick may have emptied the module: a reply emerged or, under
	// output commit, the request served left the queue for the withheld
	// replies, which no tick moves before the next checkpoint.
	s.settleModule(mod)
	if !ok {
		return rep, FwdEntry{}, false
	}
	sh.MemAcks++
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
// its checksum, then the link may defer it into ln's limbo (reorder) before
// the far side sees it.  r is the caller's to reuse afterwards; the
// completion is counted in ln.
func (s *Shell) deliver(site uint64, r *Rev, ln *Lane) {
	if !s.adv {
		s.landed(r, ln)
		return
	}
	r.Rep = core.StampReply(r.Rep)
	if d := s.flt.ReorderDelay(site, r.Rep.ID, r.Rep.Attempt); d > 0 {
		ln.limbo = append(ln.limbo, heldRev{release: s.tot.Cycles + d, site: site, r: *r})
		return
	}
	s.deliverVerified(site, r, ln)
}

// deliverVerified is the processor side of the adversarial link: corrupt on
// the wire, verify the checksum, quarantine on mismatch (the processor
// retransmits and the reply cache answers), and land — twice when the link
// duplicates, with the tracker suppressing the second copy.  The duplicate
// owns its leaf list: a shallow copy would share it with the original
// (core.Reply.Clone).
func (s *Shell) deliverVerified(site uint64, r *Rev, ln *Lane) {
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
		s.landed(&dup, ln)
	}
	s.landed(r, ln)
}

// landed is the far side of the processor link.  On a wiring whose wait
// buffer sits behind that link (Links.Behind: the bus) the reply decombines
// there — stored again for it, which Commit's caller allows (Commit) — and
// every leaf completes at its own processor; otherwise replies cross the
// link already decombined.
func (s *Shell) landed(r *Rev, ln *Lane) {
	if s.links.Behind == nil {
		s.complete(r, ln)
		return
	}
	b := &s.behind
	s.st.PutRev(int(s.links.Behind[r.Src]), r, s.now(), b)
	for i := range b.Home {
		leaf := s.store.rev(&b.Home[i])
		s.store.Free(b.Home[i].H)
		s.complete(&leaf, ln)
	}
	b.Home = b.Home[:0]
}

// complete hands one decombined reply to its processor and does the
// delivery accounting: duplicate suppression, crash replays, latency, and
// the completion counters, which go to ln.  It touches only processor
// r.Src's port, injector and tracker record, the atomic latency histogram
// and ln.  The delivery wakes the port: its injector's answer and the
// tracker's hold may both have changed, and so, under a plan, may a parked
// offer.
func (s *Shell) complete(r *Rev, ln *Lane) {
	lat, sh := s.tot.Cycles-r.Issue, &ln.Shard
	if s.trk != nil {
		p, ok := s.trk.Deliver(r.Src, r.Rep.ID, s.tot.Cycles)
		if !ok {
			return // duplicate of an already-delivered reply; suppressed
		}
		if p.Lost {
			// A crash flushed an in-flight copy; the retry machinery
			// re-drove it here.
			sh.Replayed++
		}
	}
	sh.Completed++
	sh.LatencySum += lat
	s.lat.Record(lat)
	if r.Hot {
		sh.HotCompleted++
		sh.HotLatencySum += lat
	} else {
		sh.ColdCompleted++
		sh.ColdLatencySum += lat
	}
	if s.trace != nil {
		s.portEvent(Delivered, r.Rep.ID, 0, r.Src)
	}
	s.inj[r.Src].Deliver(r.Rep, s.tot.Cycles)
	s.asleep[r.Src] = false
	if s.trk != nil && s.st.portParked(r.Src) {
		// The delivery may have made the retransmit the port holds dead.
		s.st.unparkPort(r.Src)
	}
	if !s.st.portParked(r.Src) {
		s.st.markPort(r.Src)
	}
}

// drainLimbo releases reordered messages whose deferral has elapsed.  It
// runs serially at the top of Step, module by module and then lane by lane:
// a module's limbo releases in the order its link deferred them, and so
// does a lane's, which holds every deferred reply of the processors whose
// replies that lane delivers; modules share nothing a release touches, nor
// do processors, so no other order is observable.  A forward release
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
	for i := range s.lanes {
		ln := &s.lanes[i]
		keep := ln.limbo[:0]
		for _, h := range ln.limbo {
			if h.release > s.tot.Cycles {
				keep = append(keep, h)
				continue
			}
			s.deliverVerified(h.site, &h.r, &s.lanes[0])
		}
		ln.limbo = keep
	}
}
