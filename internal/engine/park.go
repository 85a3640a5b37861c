package engine

import (
	"fmt"
	"math/bits"

	"combining/internal/faults"
)

// Parking: a refused head leaves the sweep until the queue that refused it
// changes.  In §1's tree saturation most arrivals of a cycle are refusals
// of heads blocked behind full queues; the refusal memo (refusal, hop.go)
// makes each a cheap repeat, but the head is still visited every cycle.  A
// head whose refusal counts nothing but, at most, a combine rejection is
// parked instead: its queue's bit in Load.Park is set, its input is
// registered in the waiter mask of the queue that refused it, and its side
// drops out of the occupancy words once no head there can move.  A
// processor port's refused offer parks the same way: its bit moves from the
// awake port words to the parked ones (portWords), and no walk visits it.
//
// The memo's answer depends on the refusing queue's contents and its
// station's wait-buffer room, the head itself, and nothing else while the
// station has no Intercept.  Parking asks for more, so that only the
// queue's version can end it (parkHead, parkable): the refusal made no
// memory hold and no event (a rejection parks only in an untraced run),
// the wait buffers' room is fixed — capacity 0 or unbounded — and no fault
// window can act on the head while it waits: its link is named by no
// link-down window and, for a station's head, its station by no stall
// window (those are drawn per cycle).  Then:
//
//   - the refusing queue changes only by a pop, an in-place combine or a
//     crash flush; each wakes its waiters (wake): a parked station head's
//     side is marked in the waker's lane's occupancy array, a port's park
//     is lifted, and the mask is cleared.  Waiters exist only on full
//     queues, so only a pop of a full queue, or a combine into one, reads
//     the mask;
//   - the head changes only by an in-place combine into its queue, which
//     marks its side (touched), or its station's crash, which settles and
//     forgets its park first (Shell.flush); a port's offer changes only by
//     a retransmit falling due or a delivery to the port, and each lifts
//     the park (Shell.Step, complete).
//
// A parked station head is re-checked, and unparked if its memo no longer
// holds, when its owner next visits the side (FwdHop), which a wake
// arranges before the head's place in the sweep comes round or, if it has
// passed this cycle, next cycle — so every cycle it skipped was a memo
// refusal.  A rejecting park counts those cycles when it ends
// (unparkHead), and Rejections counts the open ones, so the counters are
// exact at every cycle boundary.  A port is unparked at once (unparkPort),
// and counts the cycles before the current one: a rejecting park ends only
// before injection begins — by a pop in a hop, a delivery, a retransmit
// falling due or a crash — since the one change injection itself makes to
// a queue, an in-place combine, needs wait-buffer room, and a station whose
// room is fixed and that rejects has none.  A walk that stops at the first
// port that carries (the bus) never reaches the ports behind it, which the
// per-port loop did not visit either: each parked one sits that cycle out
// uncounted (passPorts).
//
// Who writes what (DESIGN.md §6.1): Park bits and a station head's
// registration only the side's owner, in its hop; a waiter mask its queue's
// parkers (one closed block) and its wakers (the queue's popper, which
// pairs with that block or runs in another phase, and the station's
// pushers, that block too); a wake sets occupancy bits only in the waker's
// lane's arrays, as a push does.  The step prologue (crash,
// retransmit) runs alone.

// noSlot marks an input that never parks.
const noSlot = 0xff

// maxInputs is the most inputs of a station that can park: one bit of a
// waiter mask each.
const maxInputs = 32

// parks is the stations' parking state; Shell.initParks sizes it.
type parks struct {
	// waiters[q] marks the inputs of forward queue q's station parked on q
	// (bit j: input j); heads[q] is where queue q's parked head waits.
	// Queues are numbered at·nf + port.  NewStations makes both.
	waiters []uint32
	heads   []parkedHead
	// slot[q] is forward queue q's input at the station its link enters,
	// procSlot[p] processor p's, or noSlot where they may not park.
	// feed[feedAt[to]+j] is what feeds input j of station to: a forward
	// queue, or −1−p for processor p.
	slot, procSlot []uint8
	feed, feedAt   []int32
	// ports[p] is where processor p's offer waits while its bit in the
	// parked port words is set.
	ports []parkedPort
	// clock is the shell's cycle counter, which a port's settle reads.
	clock *int64
}

// parkedPort is where a parked offer waits, the cycle its skipped count
// runs from — the park's, moved one on for each cycle a walk stopped short
// of the port (passPorts) — and whether its refusal counted a rejection.
type parkedPort struct {
	on       int32
	since    uint32
	rejected bool
}

// parkedHead is where a parked head waits: the queue that refused it, and
// the cycle of its last counted refusal.
type parkedHead struct {
	on    int32
	since uint32
}

// park parks the head of station at's forward queue port on queue d in
// cycle now: registered there, and out of the walk once no head of its
// side can move (FwdHop clears the side's occupancy bit).
func (st *Stations) park(at, port int, d int32, now uint32) {
	q := at*st.nf + port
	st.loads[at].Park |= 1 << port
	st.heads[q] = parkedHead{on: d, since: now}
	st.waiters[d] |= 1 << st.slot[q]
}

// unpark ends the park of station at's forward queue port: its head may
// move again.
func (st *Stations) unpark(at, port int) {
	q := at*st.nf + port
	st.waiters[st.heads[q].on] &^= 1 << st.slot[q]
	st.loads[at].Park &^= 1 << port
}

// parkPort parks processor p's offer on queue d: out of the walk until the
// queue changes.  rejected says its refusal counted a rejection, which
// every cycle it skips counts too.
func (st *Stations) parkPort(p int, d int32, rejected bool) {
	setBit(st.parkedPorts, st.portBit[p])
	st.clearPort(p)
	st.ports[p] = parkedPort{on: d, since: st.now(), rejected: rejected}
	st.waiters[d] |= 1 << st.procSlot[p]
}

// unparkPort ends processor p's park before its place in this cycle's
// injection: a rejecting one counts the cycles it skipped, since+1 to
// now−1.  The caller marks the port.
func (st *Stations) unparkPort(p int) {
	pp := &st.ports[p]
	if pp.rejected {
		st.wait[int(pp.on)/st.nf].Rejections += int64(st.now() - 1 - pp.since)
	}
	clearBit(st.parkedPorts, st.portBit[p])
	st.waiters[pp.on] &^= 1 << st.procSlot[p]
}

// now is the cycle being stepped.
func (st *Stations) now() uint32 { return uint32(*st.clock) }

// wake wakes the inputs w of station to parked on its forward queue d,
// which has changed: a station head's side is marked in lane ln's array,
// and a port's park is lifted and the port marked.
func (st *Stations) wake(to, d int, w uint32, ln int) {
	st.waiters[d] = 0
	feed := st.feed[st.feedAt[to]:]
	for ; w != 0; w &= w - 1 {
		if f := feed[bits.TrailingZeros32(w)]; f >= 0 {
			st.mark(st.fwdBit, int(f)/st.nf, ln)
		} else {
			st.unparkPort(int(-1 - f))
			st.markPort(int(-1 - f))
		}
	}
}

// touched follows an in-place combine into station at's forward queue out,
// full or holding a parked head: the heads parked on it wake, and if its
// own head is parked its side is marked, since the combine may have
// rewritten that head.  Both go through lane ln, the combining arrival's.
func (st *Stations) touched(at, out int, ln *Lane) {
	q := at*st.nf + out
	if st.full[at]&(1<<out) != 0 {
		if w := st.waiters[q]; w != 0 {
			st.wake(at, q, w, ln.w)
			ln.woke = true
		}
	}
	if st.loads[at].Park&(1<<out) != 0 {
		st.mark(st.fwdBit, at, ln.w)
		ln.woke = true
	}
}

// initParks numbers every station's inputs — the forward links that enter
// it, in queue order, then the processors, in order — and marks those that
// may not park: past maxInputs, on a link a link-down window names, or a
// station head at a station a stall window names.
func (s *Shell) initParks(procs int, faulted *faults.Plan) {
	st, lk := s.st, s.links
	st.slot, st.procSlot = make([]uint8, len(st.fwd)), make([]uint8, procs)
	st.ports, st.clock = make([]parkedPort, procs), &s.tot.Cycles
	var plan faults.Plan
	if faulted != nil {
		plan = *faulted
	}
	inputs := make([][]int32, st.Len())
	// slotOf numbers input f of station to, whose link has coordinate c;
	// at is the station f's head waits at, or -1 for a processor.
	slotOf := func(to, f int32, c Coord, at int) uint8 {
		j := len(inputs[to])
		inputs[to] = append(inputs[to], f)
		if j >= maxInputs || faults.Names(plan.LinkCrashes, int(c.Stage), int(c.Index)) ||
			at >= 0 && faults.Names(plan.Stalls, at/st.rowLen, at%st.rowLen) {
			return noSlot
		}
		return uint8(j)
	}
	for q := range st.slot {
		at, port := q/st.nf, q%st.nf
		st.slot[q] = noSlot
		if i := at*lk.Ports + port; port < lk.Ports && i < len(lk.Fwd) && lk.Fwd[i].To >= 0 {
			st.slot[q] = slotOf(lk.Fwd[i].To, int32(q), lk.FwdAt[i], at)
		}
	}
	for p := range st.procSlot {
		st.procSlot[p] = slotOf(lk.Proc[p].To, int32(-1-p), lk.ProcAt[p], -1)
	}
	st.feedAt = make([]int32, st.Len())
	for to, in := range inputs {
		st.feedAt[to] = int32(len(st.feed))
		st.feed = append(st.feed, in...)
	}
}

// parkHead parks the head of station at's forward queue port, just refused
// by station to as memo k says, if it may: the cycles it then skips are memo
// refusals counting at most a rejection (see the top of this file).
func (s *Shell) parkHead(at, port int, to int32, k *refusal, ln *Lane) {
	st := s.st
	if !s.parkable(k) || st.slot[at*st.nf+port] == noSlot {
		return
	}
	st.park(at, port, to*int32(st.nf)+int32(k.out), s.now())
	ln.Parks++
}

// parkOffer is parkHead for processor p's offer.
func (s *Shell) parkOffer(p int, to int32, k *refusal, ln *Lane) {
	st := s.st
	if !s.parkable(k) || st.procSlot[p] == noSlot {
		return
	}
	st.parkPort(p, to*int32(st.nf)+int32(k.out), k.rejected)
	ln.Parks++
}

// parkable reports whether a refusal memo k describes may be repeated
// without a visit: fixed wait-buffer room (asked first: a machine with
// bounded buffers never parks), no memory hold, no hook and no event.
func (s *Shell) parkable(k *refusal) bool {
	st := s.st
	return st.fixedRoom && !k.held && st.Intercept == nil && (!k.rejected || st.trace == nil)
}

// unparkHead ends the park of station at's forward queue port, which station
// to refused, in the cycle now: a rejecting park counts the cycles it
// skipped, since+1 to now−1.
func (s *Shell) unparkHead(at, port int, to int32, k *refusal) {
	if k.rejected {
		s.st.wait[to].Rejections += int64(s.now() - 1 - s.st.heads[at*s.st.nf+port].since)
	}
	s.st.unpark(at, port)
}

// forgetParks ends the parks of station at's forward heads, which its crash
// is about to flush (Shell.flush).
func (s *Shell) forgetParks(at int) {
	n := s.links.Ports
	for m := s.st.loads[at].Park; m != 0; m &= m - 1 {
		port := bits.TrailingZeros32(m)
		s.unparkHead(at, port, s.links.Fwd[at*n+port].To, &s.fwdMemo[at*n+port])
	}
}

// Rejections is the combine rejections the stations have counted,
// open rejecting parks included: each adds the cycles it has skipped so far.
func (s *Shell) Rejections() int64 {
	n, st := int64(0), s.st
	for at := range st.wait {
		n += st.wait[at].Rejections
		for m := st.loads[at].Park; m != 0; m &= m - 1 {
			port := bits.TrailingZeros32(m)
			if s.fwdMemo[at*s.links.Ports+port].rejected {
				n += int64(s.now() - st.heads[at*st.nf+port].since)
			}
		}
	}
	for p := range st.ports {
		if st.portParked(p) && st.ports[p].rejected {
			n += int64(s.now() - st.ports[p].since)
		}
	}
	return n
}

// checkParks holds station at's parked heads to the rules CheckLoads relies
// on: each waits at a link queue that may park, on the queue its memo names.
// A head still registered there must still be refused by it — a change with
// no wake would strand it; one no longer registered was woken, so its side
// must be marked (roused).  changed reports a registered head whose own queue
// has changed since it parked.
func (s *Shell) checkParks(at int) (roused, changed bool, err error) {
	st, n := s.st, s.links.Ports
	for m := st.loads[at].Park; m != 0; m &= m - 1 {
		port := bits.TrailingZeros32(m)
		if port >= n {
			return false, false, fmt.Errorf("%s: cycle %d: station %d's memory queue is parked", s.name, s.tot.Cycles, at)
		}
		q, l, k := at*st.nf+port, s.links.Fwd[at*n+port], &s.fwdMemo[at*n+port]
		if l.To < 0 || st.slot[q] == noSlot || st.heads[q].on != l.To*int32(st.nf)+int32(k.out) {
			return false, false, fmt.Errorf("%s: cycle %d: station %d's head at port %d is parked where it may not be, or on a queue its memo does not name",
				s.name, s.tot.Cycles, at, port)
		}
		switch {
		case st.waiters[st.heads[q].on]&(1<<st.slot[q]) == 0:
			roused = true
		case !s.refusedAgain(l.To, k):
			return false, false, fmt.Errorf("%s: cycle %d: station %d's head at port %d is parked on a queue that changed with no wake",
				s.name, s.tot.Cycles, at, port)
		case k.up != st.fwd[q].Ver():
			changed = true
		}
	}
	return roused, changed, nil
}

// checkWaiters holds every waiter mask to the parks it stands for: each
// input it marks is parked on its queue, and each parked port is marked,
// still refused and still offering the message its memo names.
func (s *Shell) checkWaiters() error {
	st := s.st
	for d, w := range st.waiters {
		feed := st.feed[st.feedAt[d/st.nf]:]
		for ; w != 0; w &= w - 1 {
			f := feed[bits.TrailingZeros32(w)]
			if f >= 0 && (st.loads[int(f)/st.nf].Park&(1<<(int(f)%st.nf)) == 0 || st.heads[f].on != int32(d)) ||
				f < 0 && (!st.portParked(int(-1-f)) || st.ports[-1-f].on != int32(d)) {
				return fmt.Errorf("%s: cycle %d: queue %d's waiters name input %d, which is not parked on it",
					s.name, s.tot.Cycles, d, bits.TrailingZeros32(w))
			}
		}
	}
	for p, pp := range st.ports {
		if !st.portParked(p) {
			continue
		}
		to, k := s.links.Proc[p].To, &s.portMemo[p]
		m := &s.pending[p]
		if s.flt != nil && s.retry[p].Len() > 0 {
			m = s.retry[p].Front()
		}
		if st.procSlot[p] == noSlot || pp.on != to*int32(st.nf)+int32(k.out) || pp.rejected != k.rejected ||
			pp.since > s.now() || st.waiters[pp.on]&(1<<st.procSlot[p]) == 0 || !s.refusedAgain(to, &k.refusal) || !k.names(m) {
			return fmt.Errorf("%s: cycle %d: processor %d's offer is parked unregistered, or its refusal or message changed",
				s.name, s.tot.Cycles, p)
		}
	}
	return nil
}
