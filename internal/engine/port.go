package engine

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
// tracker, and held at the port while an earlier request by p to the same
// address is undelivered, so a drop cannot reorder the processor's own
// accesses to a location.  The returned message stays owned by the port
// until Sent.
//
// A port whose answer only a delivery can change sleeps until one (asleep):
// its injector said so (Injection.UntilReply), or the tracker holds its
// pending request back, which only Tracker.Deliver undoes.  Asking either
// again before then would answer no and change nothing, so a sleeping
// port's Offer returns nil at once; retransmits are still offered first.
func (s *Shell) Offer(p int) *Fwd {
	if s.flt != nil {
		for q := &s.retry[p]; q.Len() > 0; q.Pop() {
			if m := q.Front(); s.trk.Current(m.Req.ID, m.Req.Attempt) {
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
			if req.Reps() == nil && len(req.Srcs()) == 1 {
				// The reply cache needs every message to name its
				// leaves exactly.
				req = req.WithReps()
			}
			s.trk.Track(p, req, in.Hot, s.tot.Cycles)
		}
		s.pending[p] = Fwd{Req: req, Src: p, Issue: s.tot.Cycles, Hot: in.Hot}
		s.hasPending[p] = true
		s.tot.Issued++
	}
	m := &s.pending[p]
	if s.trk != nil && m.Req.Attempt == 0 && s.trk.HeldBack(p, m.Req.Addr) {
		s.asleep[p] = true
		return nil
	}
	return m
}

// Sent records that the fabric accepted p's offer.
func (s *Shell) Sent(p int) {
	if s.flt != nil && s.retry[p].Len() > 0 {
		s.retry[p].Pop()
		return
	}
	s.hasPending[p] = false
}
