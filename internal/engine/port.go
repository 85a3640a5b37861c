package engine

import (
	"fmt"

	"combining/internal/core"
	"combining/internal/word"
)

// The processor port: what a processor offers the fabric each cycle.  The
// fabric keeps its own arbitration — where the walk starts, and whether it
// stops at the first port that carries — and InjectPorts drives each port
// that may act through Inject: Offer, then Sent.

// portWords are the ports' occupancy words.  A port's bit in awake is set
// exactly when the port may act: it is not parked, and it is awake or holds
// a retransmit (Shell.asleep, Shell.retry).  Its bit in parkedPorts is set
// while its offer is parked (park.go).  Like the stations' occupancy words
// they are laid out per owner — owner o's words are [o·pspan, (o+1)·pspan),
// portBit[p] placing port p in its owner's — the owner being the worker that
// hops the forward side of the station the port's link enters
// (Stations.Own): the one that injects the port, delivers to it and, by the
// closed-block rule, pops the queues it parks on.  A wiring whose memory
// ticks run on other workers (the cube) gives them whole words, so each
// word has one writer in any phase; the step prologue runs alone.  A
// skipped port counts nothing: a sleeping one would answer no, and a parked
// one's refusals are counted when it unparks.
type portWords struct {
	awake, parkedPorts []uint64
	pspan              int
	portBit            []int32
}

// initPorts lays the port words out for the processors' links, every port
// awake.
func (st *Stations) initPorts(lk *Links) {
	procs := len(lk.Proc)
	st.pspan = ((procs+63)/64 + 7) &^ 7
	owners := st.stride / st.span
	st.awake, st.parkedPorts = make([]uint64, owners*st.pspan), make([]uint64, owners*st.pspan)
	st.portBit = make([]int32, procs)
	for p := range st.portBit {
		st.portBit[p] = int32(st.fwdOwner(int(lk.Proc[p].To))*st.pspan<<6 + p)
		st.markPort(p)
	}
}

// markPort and clearPort set and clear processor p's awake bit;
// portParked reports whether its offer is parked.
func (st *Stations) markPort(p int)        { setBit(st.awake, st.portBit[p]) }
func (st *Stations) clearPort(p int)       { clearBit(st.awake, st.portBit[p]) }
func (st *Stations) portParked(p int) bool { return hasBit(st.parkedPorts, st.portBit[p]) }

// Offer returns the request processor p would send this cycle, or nil when
// it has none.  A retransmission takes the port's slot ahead of fresh
// traffic, bypassing the pending slot entirely: a fresh request held there
// may be waiting on exactly the delivery this retransmit recovers.  A
// retransmission the tracker no longer waits on — its request was delivered
// while it queued, or a newer attempt is queued behind it — is dropped
// unsent.
// Otherwise the pending slot is offered, refilled from the injector when
// empty; under a fault plan the fresh request is registered with the retry
// tracker — each of its leaves must name p as its source, or Offer panics —
// and held at the port while an earlier request by p to the same
// address is undelivered, so a drop cannot reorder the processor's own
// accesses to a location; the issue is counted in ln.  The returned message
// stays owned by the port until Sent.  Offer and Sent touch only processor
// p's state — its retry list, pending slot, injector, tracker record and
// trace buffer — besides ln and the tracker's atomic counters.
//
// A port whose answer only a delivery can change sleeps until one (asleep):
// its injector said so (Injection.UntilReply), or the tracker holds its
// pending request back, which only Tracker.Deliver undoes.  Asking either
// again before then would answer no and change nothing, so a sleeping
// port's Offer returns nil at once and the port leaves the walk; a
// retransmit falling due brings it back, and is offered first.
func (s *Shell) Offer(p int, ln *Lane) *Fwd {
	if s.flt != nil {
		for q := &s.retry[p]; q.Len() > 0; q.Pop() {
			if m := q.Front(); s.trk.Current(p, m.Req.ID, m.Req.Attempt) {
				return m
			}
		}
	}
	if s.asleep[p] {
		return s.sleep(p) // its retransmits were all dead
	}
	if !s.hasPending[p] {
		in, ok := s.inj[p].Next(s.tot.Cycles)
		if !ok {
			if in.UntilReply {
				return s.sleep(p)
			}
			return nil
		}
		req := in.Req
		if s.trace != nil {
			s.portEvent(Injected, req.ID, req.Addr, p)
		}
		if s.trk != nil {
			// The tracker keeps delivered floors per port, and the
			// reply caches skip a leaf below its own Src's floor: a
			// leaf naming another processor would be judged against
			// that processor's deliveries.  An uncombined request's
			// one leaf is implicit, its source its lineage's one.
			var one [1]core.Leaf
			for _, lf := range req.Leaves(&one) {
				if lf.Src != word.ProcID(p) {
					panic(fmt.Sprintf("engine: processor %d offered request %d whose leaf names processor %d", p, req.ID, lf.Src))
				}
			}
			s.trk.Track(p, req, in.Hot, s.tot.Cycles)
		}
		s.pending[p] = Fwd{Req: req, Src: p, Issue: s.tot.Cycles, Hot: in.Hot}
		s.hasPending[p] = true
		ln.Issued++
	}
	m := &s.pending[p]
	if s.trk != nil && m.Req.Attempt == 0 && s.trk.HeldBack(p, m.Req.Addr) {
		return s.sleep(p)
	}
	return m
}

// sleep puts processor p to sleep until a delivery or a retransmit wakes
// it, out of the walk: it has nothing to offer.
func (s *Shell) sleep(p int) *Fwd {
	s.asleep[p] = true
	s.st.clearPort(p)
	return nil
}

// Sent records that p's offer left the port: the fabric accepted it, or
// its link lost it.  A retransmitted copy is counted here (retries), so a
// copy Offer dropped dead never is; a sleeping port that sent its last one
// sleeps on.
func (s *Shell) Sent(p int) {
	if s.flt != nil && s.retry[p].Len() > 0 {
		if s.retry[p].Pop(); s.retry[p].Len() == 0 && s.asleep[p] {
			s.sleep(p)
		}
		s.trk.Retries.Add(1)
		return
	}
	s.hasPending[p] = false
}
