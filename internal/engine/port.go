package engine

import (
	"fmt"

	"combining/internal/core"
	"combining/internal/word"
)

// The processor port: what a processor offers the fabric each cycle.  The
// fabric keeps its own arbitration loop — which ports it visits, in what
// order, and what a lost transfer costs — and Inject drives each port
// through Offer, then Sent.

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
// port's Offer returns nil at once; retransmits are still offered first.
func (s *Shell) Offer(p int, ln *Lane) *Fwd {
	if s.flt != nil {
		for q := &s.retry[p]; q.Len() > 0; q.Pop() {
			if m := q.Front(); s.trk.Current(p, m.Req.ID, m.Req.Attempt) {
				return m
			}
		}
	}
	if s.asleep[p] {
		return nil
	}
	if !s.hasPending[p] {
		in, ok := s.inj[p].Next(s.tot.Cycles)
		if !ok {
			s.asleep[p] = in.UntilReply
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
		s.asleep[p] = true
		return nil
	}
	return m
}

// Sent records that p's offer left the port: the fabric accepted it, or
// its link lost it.  A retransmitted copy is counted here (retries), so a
// copy Offer dropped dead never is.
func (s *Shell) Sent(p int) {
	if s.flt != nil && s.retry[p].Len() > 0 {
		s.retry[p].Pop()
		s.trk.Retries.Add(1)
		return
	}
	s.hasPending[p] = false
}
