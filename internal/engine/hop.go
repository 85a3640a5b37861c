package engine

import (
	"fmt"
	"math/bits"
	"slices"

	"combining/internal/core"
	"combining/internal/faults"
	"combining/internal/rmw"
	"combining/internal/word"
)

// The hops: what moves a message from one station to the next, into a
// module, out of one, in from a processor and back to it.  Each is written
// once over the stations and the compiled Links; a wiring's schedule — the
// order in which its stations hop in a cycle — is straight code over them.
//
// Worker-phase rule: FwdHop, RevHop, Feed and Tick write only the stations
// and modules they are handed, the far ends of their links, those stations'
// and modules' entries of the occupancy index (and the stations' occupancy
// words: the lane's own arrays, and when a pop empties a side every lane's
// array for the side's owner, Stations), the bodies of the messages
// those hold (store.go: they allocate none, and free into the lane), the
// forward limbo and the event buffers, and the caller's Lane; a schedule calls them from its
// pool's workers for stations whose link ends no other worker touches in
// the same phase (a conflict group), passing each worker its own lane.  Link-fault draws are hash
// decisions with atomic counters.  Ports and deliveries — Inject, CommitLane
// — touch only their own processors' state (the port, its injector, its
// record in the retry tracker, its trace buffer) and the caller's lane, so
// on a wiring with no wait buffer behind the processor links a worker may
// inject the processors whose stations it owns and deliver its own lane
// while the others hop; Commit, which delivers every lane, belongs to one
// goroutine.

// Turn is the arbiter: of n contenders — the stations of a column, the
// ports of a station, the processors on a bus — number Turn(n) is served
// first this cycle and the rest follow in order (Next), wrapping.  It is a
// pure function of the cycle: schedules read it once per sweep and pass the
// port turn down to the hops; nothing is stored between calls.
func (s *Shell) Turn(n int) int { return int(s.tot.Cycles % int64(n)) }

// Next is the contender served after i of n.
func Next(i, n int) int {
	if i+1 == n {
		return 0
	}
	return i + 1
}

// now is the stamp a message that hops this cycle carries away.
func (s *Shell) now() uint32 { return uint32(s.tot.Cycles) }

// Stations exposes the stations, station at being stage·width + index, for
// the wiring's saturation predicate and gauges, and for tests.
func (s *Shell) Stations() *Stations { return s.st }

// Down reports whether station at moves nothing this cycle: blacked out by
// a stall window, or crashed until its restart.  Dead is the second half.
func (s *Shell) Down(at int) bool { return s.flt != nil && (s.stall[at] || s.Dead(at)) }
func (s *Shell) Dead(at int) bool { return s.crash && s.swDead[at] }

// refusal remembers why the head of one forward link was last refused, so
// that a head blocked behind a full queue — §1's tree saturation, where most
// arrivals of a cycle are refusals — is refused again without the route, the
// combine scan and the composition it took the first time.  AcceptFwd's
// answer is a function of the request and of the station queue it joins
// (its contents) and the wait buffer's room — and of nothing else while the
// station has no Intercept.  A FIFO's version changes with its contents, so
// the memo keys on the version of the queue the request heads (a new head or
// one rewritten in place changes it), the version of the full queue that
// refused it, and CanPush.  The memo names that queue (out): the same head
// takes the same route, so a check need not route it again.  A match repeats
// the refusal's counts and its one possible event: the rejection the combine
// scan made, if it made one, and the memory hold.  The zero memo matches
// nothing: a full queue has been pushed.
type refusal struct {
	up, down uint32
	canPush  bool
	rejected bool  // the combine found its partner and a full wait buffer
	held     bool  // the refusing queue was the memory combining queue
	out      uint8 // the refusing queue, at the station the link enters
}

// portRefusal is a processor port's memo.  The port's message heads no
// queue, so its identity — id and attempt, which a retransmit changes —
// stands in for the upstream version.
type portRefusal struct {
	id      word.ReqID
	attempt uint32
	refusal
}

// names reports whether the memo was written for message m, the port's.
func (k *portRefusal) names(m *Fwd) bool { return k.id == m.Req.ID && k.attempt == m.Req.Attempt }

// refusedAgain reports whether memo k says its request is refused at station
// to exactly as it was the last time: the queue that refused it is still
// full at the version k saw, and the wait buffer's room is as it was.  The
// caller has matched the head.
func (s *Shell) refusedAgain(to int32, k *refusal) bool {
	q := &s.st.fwd[int(to)*s.st.nf+int(k.out)]
	return q.Full() && q.Ver() == k.down && s.st.wait[to].CanPush() == k.canPush
}

// arrive lands request e at station to, on the queue its module routes to.
// Refused by the station's memory combining queue (queue Ports, beyond the
// link queues), the request is held by memory and counted so: the hold that
// turns a hot node into backpressure instead of unbounded memory-side
// buffering.  The refusal is written to memo k, up being the version of the
// queue e heads (0 at a port).
func (s *Shell) arrive(to, in int32, e *FwdEntry, k *refusal, up uint32, ln *Lane) bool {
	st, wait := s.st, &s.st.wait[to]
	out := int(s.links.Route[to][s.mem.HomeOf(e.Addr)])
	rejections := wait.Rejections
	if st.AcceptFwd(int(to), e, out, e.Path.Push(in), s.now(), ln) {
		return true
	}
	held := out == s.links.Ports
	if held {
		ln.HoldsMem++
	}
	if st.Intercept == nil {
		*k = refusal{up: up, down: st.fwd[int(to)*st.nf+out].Ver(), canPush: wait.CanPush(),
			rejected: wait.Rejections != rejections, held: held, out: uint8(out)}
	}
	return false
}

// refuseAgain counts the refusal memo k says station to would make again
// (refusedAgain), without asking the station: the rejection its combine
// scan made, if it made one, and the memory hold.  It reports whether the
// station is traced and rejected the request: the caller, who knows its id,
// records the event.
func (s *Shell) refuseAgain(to int32, k *refusal, sh *Shard) bool {
	if k.held {
		sh.HoldsMem++
	}
	if k.rejected {
		s.st.wait[to].Rejections++
		return s.st.trace != nil
	}
	return false
}

// FwdHop makes station at's forward move: the head of each link queue,
// starting with port first, crosses its link — into the next station when
// that one takes it, into the memory module the link ends at when the module
// has room.  A dead downstream station or a full queue holds the request where
// it is, so a crash costs the flushed state and not a stream of new losses;
// a request that already hopped this cycle waits.  Only the queues the
// station's mask marks are visited, in the arbiter's rotation from first
// (rotation): an empty queue has no move to make and nothing to count, and
// the index says so without touching it.  A parked head (park.go) whose
// memo still holds is passed over, counting nothing until it unparks; one
// whose memo no longer does is unparked and moves as any other; a refused
// head parks if it may, and a side left with only parked heads leaves the
// occupancy words.  A hop reads the entry; only a fault draw, a feed or a
// combine at the far end reads the body.
func (s *Shell) FwdHop(at, first int, ln *Lane) {
	st := s.st
	mask, parked := st.loads[at].Fwd, st.loads[at].Park
	if mask == 0 || s.Down(at) {
		return
	}
	n := s.links.Ports
	qs := st.fwd[at*st.nf : at*st.nf+n]
	for held := rotation(mask, first, n); held != 0; held &= held - 1 {
		port := turnPort(held, first, n)
		q := &qs[port]
		e := q.Front()
		if e.Moved == s.now() {
			continue
		}
		l, c, k := s.links.Fwd[at*n+port], &s.links.FwdAt[at*n+port], &s.fwdMemo[at*n+port]
		mod := int(-1 - l.To) // when the link ends at a module
		again := l.To >= 0 && k.up == q.Ver() && s.refusedAgain(l.To, k)
		if parked&(1<<port) != 0 {
			if again {
				continue
			}
			s.unparkHead(at, port, l.To, k)
		}
		switch {
		case l.To >= 0 && s.Dead(int(l.To)):
			// held: the station at the far end is dead
		case l.To < 0 && !s.MemReady(mod):
			// held: the backpressure that turns a hot module into tree
			// saturation instead of unbounded memory-side buffering
			ln.HoldsMem++
		case s.flt != nil && s.LostFwd(c, &s.store.At(e.H).Req, again):
			s.Lose(at, port, ln)
		case l.To < 0:
			s.countFwd(e, &ln.Shard)
			s.Feed(at, port, mod, c.site(), ln)
		case again:
			// An eligible head refused so would have parked when the memo
			// was written: only the full path's refusal parks one.
			if s.refuseAgain(l.To, k, &ln.Shard) {
				st.trace(int(l.To), Rejected, s.store.At(e.H).Req.ID, 0, e.Addr)
			}
		case s.arrive(l.To, l.In, e, k, q.Ver(), ln):
			// l.To ≠ at, so landing the request could not move the slot e is in.
			s.countFwd(e, &ln.Shard)
			st.PopFwd(at, port, ln)
		default: // refused
			s.parkHead(at, port, l.To, k, ln)
		}
	}
	if l := &st.loads[at]; l.Park != 0 && l.Fwd&^l.Park == 0 {
		st.unmark(st.fwdBit, at)
	}
}

// rotation is mask's first n bits — a station's link queues — turned so that
// bit j stands for port (first+j) mod n: walked lowest bit first
// (turnPort), it names the marked ports in the order first, Next(first, n),
// …, the arbiter's.  A hop takes it once, before it moves anything: only the
// port it is moving pops its own queue, and nothing pushes onto it.
func rotation(mask uint32, first, n int) uint32 {
	low := uint32(1)<<n - 1
	mask &= low
	return mask>>first | mask<<(n-first)&low
}

// HopRow makes the forward (or reverse) hop of the stations of row row
// that worker w hops and whose side holds a message, in the arbiter's
// rotation from the row's station first, each starting at port port0: the
// sweep the occupancy words allow (Stations.occupied).  A station left out
// would have moved nothing and counted nothing: FwdHop and RevHop return
// on an empty mask.  Each word is read when the walk reaches it, so a
// station a hop earlier in the row filled this cycle may be visited or
// not, and either way moves nothing: what it holds is stamped with this
// cycle.  A station a hop earlier in the row woke (park.go: a pop or an
// in-place combine on the queue its head is parked on, marked through ln)
// must be visited if its place is still to come, since the head may move
// now: a hop that wakes anything sets ln.woke, and the walk then rereads
// the word's bits past the station it is at.
func (s *Shell) HopRow(fwd bool, row, first, w, port0 int, ln *Lane) {
	st := s.st
	rot, base := Rotate(first, st.rowLen), row*st.rowLen
	for v := 0; v < rot.Visits(); v++ {
		i, keep := rot.Word(v)
		for m := st.occupied(fwd, row, i, w) & keep; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			if at := base + i<<6 + b; fwd {
				s.FwdHop(at, port0, ln)
			} else {
				s.RevHop(at, port0, ln)
			}
			if ln.woke {
				ln.woke = false
				m |= st.occupied(fwd, row, i, w) & keep &^ (2<<b - 1)
			}
		}
	}
}

// Occupied is worker w's occupancy word i of the row's forward or reverse
// side (Stations.occupied): a wiring that walks the row itself reads it.
func (s *Shell) Occupied(fwd bool, row, i, w int) uint64 { return s.st.occupied(fwd, row, i, w) }

// Pushed is word i of the row's side in worker w's own lane, for every
// owner (Stations.pushed): on a row whose side only w pushes — the reverse
// side of the staged network's last stage, which only the modules its
// forward owner ticks fill — it marks exactly w's stations whose side holds
// a message, and no other worker writes it while w hops forward.
func (s *Shell) Pushed(fwd bool, row, i, w int) uint64 { return s.st.pushed(fwd, row, i, w) }

// FullWord is word i of a row of n bits with every bit set: what a walk
// takes on a cycle it must visit everything.
func FullWord(n, i int) uint64 { return ^uint64(0) >> (64 - min(64, n-i<<6)) }

// Rotation is the arbiter's order over a row of n stations or ports held as
// bits, 64 to a word — first, Next(first, n), … wrapping — as a walk over
// the words: visit v (0 ≤ v < Visits) reads word i and keeps the bits keep
// marks (Word), taking them lowest first.  The first word is visited twice,
// its bits from first on at the start and those before it at the end, so
// the walk names a row's set bits in rotation order; a sweep reads each
// word when it comes to it.  Bits past n must be clear.
type Rotation struct {
	i0, words int
	b0        uint
}

// Rotate is the rotation over n bits from bit first.
func Rotate(first, n int) Rotation {
	return Rotation{i0: first >> 6, words: (n + 63) >> 6, b0: uint(first & 63)}
}

// Visits is the number of word visits: one more than the words.
func (r Rotation) Visits() int { return r.words + 1 }

// Word is visit v's word and the mask of its bits in turn.
func (r Rotation) Word(v int) (i int, keep uint64) {
	if i = r.i0 + v; i >= r.words {
		i -= r.words
	}
	switch v {
	case 0:
		return i, ^uint64(0) << r.b0
	case r.words:
		return i, 1<<r.b0 - 1
	}
	return i, ^uint64(0)
}

// turnPort is the port the lowest bit of a rotation from first stands for.
func turnPort(rot uint32, first, n int) int {
	port := first + bits.TrailingZeros32(rot)
	if port >= n {
		port -= n
	}
	return port
}

func (s *Shell) countFwd(e *FwdEntry, sh *Shard) {
	sh.FwdHops++
	sh.FwdSlots += int64(e.Slots)
}

// Lose drops the head of station at's forward queue port, lost on its link:
// its body goes back through the lane.
func (s *Shell) Lose(at, port int, ln *Lane) {
	ln.free(s.st.Fwd(at)[port].Front().H)
	s.st.PopFwd(at, port, ln)
}

// MemReady reports whether module mod can be fed now: it is up and the
// wiring's feed rule (Hooks.CanFeed) admits one more request.
func (s *Shell) MemReady(mod int) bool { return !s.ModuleDead(mod) && s.hooks.CanFeed(mod) }

// Feed carries the head of station at's forward queue port across the
// terminal link named by site into module mod, which MemReady has said can
// take it.
func (s *Shell) Feed(at, port, mod int, site uint64, ln *Lane) {
	s.enterMemory(site, mod, s.st.Fwd(at)[port].Front(), ln)
	s.st.PopFwd(at, port, ln)
}

// RevHop makes station at's reverse move: the head of each reverse queue
// crosses its link when the station at the far end is alive and has the
// reserved credit (Stations.CanAcceptRev), and is held otherwise; a link that
// ends at a processor brings the reply home.  Like FwdHop it visits only the
// marked queues, reads the entry, and the body only for a fault draw or a
// decombine at the far end.
func (s *Shell) RevHop(at, first int, ln *Lane) {
	st := s.st
	mask := st.loads[at].Rev
	if mask == 0 || s.Down(at) {
		return
	}
	n := s.links.RevPorts
	qs := st.rev[at*st.nr : at*st.nr+n]
	for held := rotation(mask, first, n); held != 0; held &= held - 1 {
		port := turnPort(held, first, n)
		q := &qs[port]
		e := q.Front()
		if e.Moved == s.now() {
			continue
		}
		to := int(s.links.Rev[at*n+port].To)
		if to >= 0 && (s.Dead(to) || !st.CanAcceptRev(to)) {
			// Held here; the credits this pop needs were already replenished
			// this cycle if the downstream station moved anything.
			ln.HoldsRev++
			continue
		}
		if !s.LostRev(&s.links.RevAt[at*n+port], e) {
			ln.RevHops++
			if e.Valued {
				ln.RevSlots++
			}
			if to >= 0 {
				st.AcceptRev(to, e, s.now(), ln)
			} else {
				ln.Home = append(ln.Home, *e)
			}
		} else { // lost on the reverse link
			ln.free(e.H)
		}
		st.PopRev(at, port)
	}
}

// Tick advances module mod one service cycle and lands the reply that
// emerges, if one does, at station at.  A station without reverse credit
// blocks the module's output: it holds its completed request rather than
// emit a reply with nowhere to go.  With at < 0 — a wiring with nothing
// between its modules and the processor links — the reply crosses the link
// home at once.  The module's reply is written into the body of the request
// it answers, which the metadata shard kept.
//
// An idle module is skipped on the index alone.  A module with no work
// (memLoad: no request queued and no reply released) serves nothing, and
// the credit hold — which an idle module behind a credit-less station does
// count — needs a reply queued at the station.  Under a fault plan the
// checkpoint and slowdown guards below count per module-cycle, idle or
// not, but only on a cycle that is not quiet (Shell.quiet: a checkpoint due
// or a slowdown window open); on a quiet one they count nothing.
func (s *Shell) Tick(mod, at int, ln *Lane) {
	if s.memLoad[mod] == 0 && (at < 0 || s.st.loads[at].Rev == 0) && (s.flt == nil || s.quiet) {
		return
	}
	if s.crash {
		if s.memDead[mod] {
			return // crashed: it serves nothing until its restart
		}
		if s.rec.checkpointDue(s.tot.Cycles) {
			// Commit the recovery image: executed-but-uncommitted leaves
			// join the committed cache and withheld replies become
			// releasable (memory.Module.Checkpoint), work for the ticks to
			// come.
			if s.memLoad[mod] += int32(s.mem.Module(mod).Checkpoint()); s.memLoad[mod] > 0 {
				s.markModule(mod)
			}
			ln.Checkpoints++
		}
	}
	if s.flt != nil && s.flt.MemStalled(mod, s.tot.Cycles) {
		return // inside a slowdown window: the lost module-cycle is counted
	}
	if at >= 0 && !s.st.CanAcceptRev(at) {
		ln.HoldsMemOut++
		return
	}
	if s.memLoad[mod] == 0 {
		return // nothing queued, nothing released: the tick would serve nothing
	}
	rep, m, ok := s.serve(mod, &ln.Shard)
	if !ok {
		return
	}
	b := s.store.At(m.H)
	r := RevEntry{ID: rep.ID, Path: m.Path, H: m.H, Src: b.Src, Valued: rmw.NeedsValue(b.Req.Op), Attempt: attemptOf(rep.Attempt)}
	b.SetReply(rep)
	if s.trace != nil {
		e := Event{Cycle: s.tot.Cycles, Kind: Served, ID: rep.ID, Addr: m.Addr, Stage: -1, Switch: mod}
		if at < 0 {
			s.modEvents[mod] = append(s.modEvents[mod], e)
		} else {
			s.events[at] = append(s.events[at], e)
		}
	}
	if at < 0 {
		if !s.LostRev(&s.links.Home[r.Src], &r) {
			ln.Home = append(ln.Home, r)
		} else {
			ln.free(r.H)
		}
		return
	}
	s.st.AcceptRev(at, &r, s.now(), ln)
}

// Commit hands every reply the cycle's hops brought home to its processor's
// terminal link, lane by lane in order, in value form: the bodies go back
// through lane 0, the committing goroutine's, which also counts the
// completions.  Deliveries touch injectors, the processors' tracker records
// and the completion counters, none of which a hop reads or writes, so a
// schedule may commit any time between the hops that bring replies home
// and injection.  The direct and bus wirings commit so, outside their
// pools' phases — on the bus a wait buffer sits behind the processor links
// (Links.Behind), and a reply landing there is stored again (landed).
func (s *Shell) Commit() {
	for i := range s.lanes {
		s.commit(&s.lanes[i], &s.lanes[0])
	}
}

// CommitLane is Commit for the replies one lane brought home, delivered and
// counted through that lane: a schedule whose worker owns the processors its
// lane's replies go to commits each lane on its own worker, while the
// others hop, when no wait buffer sits behind the links.  A delivery then
// touches only its processor's port, injector, tracker record (the shared
// estimator waits for the next Tracker.Settle) and trace buffer, the lane's
// counters and limbo, and the atomic latency histogram.
func (s *Shell) CommitLane(ln *Lane) { s.commit(ln, ln) }

func (s *Shell) commit(from, ln *Lane) {
	home := from.Home
	for j := range home {
		r := s.store.rev(&home[j])
		ln.free(home[j].H)
		s.deliver(s.links.Home[r.Src].site(), &r, ln)
	}
	from.Home = home[:0]
}

// PortWalk is how InjectPorts treats the ports it reaches.
type PortWalk uint8

const (
	// EveryPort injects every port that may act.
	EveryPort PortWalk = iota
	// LiveNodes passes over a port whose station is dead: the processor
	// dies with the node that hosts it, and is not asked.
	LiveNodes
	// OneTransfer stops at the first port whose link carries a message: a
	// bus carries one a cycle.
	OneTransfer
)

// InjectPorts injects the ports owner w serves whose port word is set
// (portWords), in the arbiter's rotation from port first: the walk the
// per-port loop becomes once a port that would answer no is out of the
// words.  A port an injection earlier in the walk woke (an in-place combine
// into the queue it parked on) must be offered if its place is still to
// come, as the loop would have: like HopRow, the walk then rereads the
// word's bits past the port it is at.
func (s *Shell) InjectPorts(w, first int, ln *Lane, walk PortWalk) {
	st := s.st
	rot, words := Rotate(first, len(s.inj)), st.awake[w*st.pspan:]
	ln.woke = false
	for v := 0; v < rot.Visits(); v++ {
		i, keep := rot.Word(v)
		for m := words[i] & keep; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			p := i<<6 | b
			if walk == LiveNodes && s.Dead(int(s.links.Proc[p].To)) {
				continue
			}
			if s.Inject(p, ln) && walk == OneTransfer {
				s.passPorts(rot, v, b, st.parkedPorts[w*st.pspan:])
				return
			}
			if ln.woke {
				ln.woke = false
				m |= words[i] & keep &^ (2<<b - 1)
			}
		}
	}
}

// passPorts is a stopped walk's end: each rejecting parked port behind bit
// b of visit v sits the cycle out, since the loop that stopped there never
// reached it to count its refusal.
func (s *Shell) passPorts(rot Rotation, v, b int, parked []uint64) {
	for past := ^uint64(1) << b; v < rot.Visits(); v, past = v+1, ^uint64(0) {
		i, keep := rot.Word(v)
		for m := parked[i] & keep & past; m != 0; m &= m - 1 {
			if pp := &s.st.ports[i<<6|bits.TrailingZeros64(m)]; pp.rejected {
				pp.since++
			}
		}
	}
}

// Inject offers processor p's request, if it has one, to the station its
// link enters, and reports whether the link carried a message — accepted, or
// lost on the way.  A dead station or a full queue holds the offer at the
// port.  A parked offer (park.go) answers no at once and counts nothing: its
// refusals are counted when it unparks.  A refused one parks if it may.  The
// counts go to ln, and the body is one ln freed this cycle when it holds one
// (Shell.alloc); the port's offer touches only processor p's state (Offer)
// and its park, so a schedule may inject from its pool's workers, each the
// processors whose stations it owns, under any plan, trace or Intercept.
func (s *Shell) Inject(p int, ln *Lane) bool {
	if s.st.portParked(p) {
		return false
	}
	m := s.Offer(p, ln)
	if m == nil {
		return false
	}
	l, k := s.links.Proc[p], &s.portMemo[p]
	if s.Dead(int(l.To)) {
		return false
	}
	again := k.names(m) && s.refusedAgain(l.To, &k.refusal)
	if s.LostFwd(&s.links.ProcAt[p], &m.Req, again) {
		s.Sent(p) // the port moves on as if it had been sent: recovery is the retry tracker's timeout
		return true
	}
	sh := &ln.Shard
	if again {
		if s.refuseAgain(l.To, &k.refusal, sh) {
			s.st.trace(int(l.To), Rejected, m.Req.ID, 0, m.Req.Addr)
		}
		s.parkOffer(p, l.To, &k.refusal, ln)
		return false
	}
	e := s.store.entry(s.alloc(ln), m)
	if !s.arrive(l.To, l.In, &e, &k.refusal, 0, ln) {
		ln.free(e.H)
		k.id, k.attempt = m.Req.ID, m.Req.Attempt
		s.parkOffer(p, l.To, &k.refusal, ln)
		return false
	}
	s.countFwd(&e, sh)
	s.Sent(p)
	return true
}

// LostFwd reports whether the request crossing the link at c dies there this
// cycle — to the plan's Bernoulli forward drops or to a link-down window —
// counting the loss; LostRev is the same for a reply.  The healthy machine's
// answer inlines to one nil check per hop, and never reads c or a body.
// again says the same request was refused on the same link before
// (refusal): the drop draw, a pure hash of (site, id, attempt), said no then
// and is not asked again; the link-down window depends on the cycle and is,
// on a cycle that some link-down window covers (linkOpen) — on any other it
// answers no for every link and counts nothing.
func (s *Shell) LostFwd(c *Coord, req *core.Request, again bool) bool {
	return s.flt != nil && (!again && s.flt.DropForward(c.site(), req.ID, req.Attempt) ||
		s.linkOpen && s.flt.DropLinkFwd(int(c.Stage), int(c.Index), s.tot.Cycles))
}

func (s *Shell) LostRev(c *Coord, e *RevEntry) bool {
	return s.flt != nil && (s.flt.DropReply(c.site(), e.ID, s.attempt(e)) ||
		s.linkOpen && s.flt.DropLinkRev(int(c.Stage), int(c.Index), s.tot.Cycles))
}

// attempt is the attempt of the reply e stands for: the entry's, unless it
// saturated.
func (s *Shell) attempt(e *RevEntry) uint32 {
	if e.Attempt < maxAttempt {
		return uint32(e.Attempt)
	}
	return s.store.At(e.H).Req.Attempt
}

func (c Coord) site() uint64 { return faults.Site(int(c.Stage), int(c.Index), int(c.Port)) }

// flush empties switch fault domain at on its crash edge — the station, the
// modules it hosts, the reply metadata it holds, and the bodies of all of
// them — and returns the leaf request ids whose only copy was there.  Requests inside a module whose
// metadata went keep executing; their replies surface as orphans and the
// retransmit path re-drives them through the reply caches.
func (s *Shell) flush(at int) []word.ReqID {
	s.forgetParks(at)
	lost := s.st.Crash(at)
	for mod, host := range s.links.Hosts {
		if int(host) == at {
			lost = append(lost, s.mem.Module(mod).Crash()...)
			s.memLoad[mod] = 0
			s.clearModule(mod)
		}
	}
	for mod, holder := range s.links.Holds {
		if int(holder) != at {
			continue
		}
		for _, e := range s.meta[mod].boxes() {
			lost = s.store.At(e.H).Req.AppendLeafIDs(lost)
			s.store.Free(e.H)
		}
		s.meta[mod].clear()
	}
	return lost
}

// detail renders the stations' census for a stall report, whole and stage
// by stage — a stage is a row of the occupancy words, whose marked sides
// count the queues (Stations.held) — with the wait records and the modules'
// queues.
func (s *Shell) detail() string {
	fwd, rev := s.st.held(0, s.st.rows)
	memQ := 0
	for mod := 0; mod < s.mem.Modules(); mod++ {
		memQ += s.mem.Module(mod).QueueLen()
	}
	out := fmt.Sprintf("stations: fwd=%d rev=%d wait=%d\nmemory queued=%d", fwd, rev, s.st.records(0, s.st.rows), memQ)
	for stage := 0; stage < s.st.rows; stage++ {
		fwd, rev := s.st.held(stage, stage+1)
		wait := s.st.records(stage, stage+1)
		out += fmt.Sprintf("\nstage %d: fwd=%d rev=%d wait=%d", stage, fwd, rev, wait)
	}
	return out
}

// Loads is the occupancy index: entry stage·width + index marks the forward
// and reverse queues of that station that hold a message (Load), current
// after every hop; a queue's length is Stations.Fwd(at)[i].Len().  It is the
// stations' own array, the caller's to read between steps.
func (s *Shell) Loads() []Load { return s.st.loads }

// Full is the forward side's fullness index: bit i of entry stage·width +
// index is set exactly when forward queue i of that station is at its bound,
// current after every hop.  A saturation predicate reads it instead of the
// queues.  Like Loads, it is the stations' own array.
func (s *Shell) Full() []uint32 { return s.st.full }

// CheckLoads rereads every queue the occupancy index stands for — the
// stations' FIFOs, whose bits must be set exactly when they are non-empty,
// and each module's input queue with the replies it has released
// (memory.Module.Work), which memLoad counts and the module words mark —
// and every port the port words stand for (checkPorts), and reports the
// first entry that disagrees: the invariant every skipped visit rests on.  The
// occupancy words must agree with the masks: for every hop owner, the OR
// of its lanes' arrays has a side's bit when the side holds a head that
// may move — a reply, an unparked request, or a parked one a wake has
// roused — and no bit where nothing may move; the parking state must be
// whole (checkParks).  It also holds the store closed: every live body is
// named by exactly one queue entry, wait record or metadata entry (limbo
// and the lanes hold values, or nothing, between steps), and the lanes'
// record counts to the wait buffers, row by row.
func (s *Shell) CheckLoads() error {
	named := 0
	st := s.st
	// The owners' arrays, OR'd over the lanes': want holds the bits that
	// must be set, may those that may be (a side whose parked head's own
	// queue has changed since it parked: a push behind it needs no visit,
	// an in-place combine into it does, and the two look alike here).
	want, may := make([]uint64, st.stride), make([]uint64, st.stride)
	set := func(words []uint64, pos []int32, at int) { words[pos[at]>>6] |= 1 << (pos[at] & 63) }
	recs := make([]int, st.rows)
	for at := range st.loads {
		got, full, spent, fwd, rev := Load{Park: st.loads[at].Park}, uint32(0), uint32(0), st.Fwd(at), st.Rev(at)
		for i := range fwd {
			if n := fwd[i].Len(); n > 0 {
				got.Fwd |= 1 << i
				named += n
			}
			if fwd[i].Full() {
				full |= 1 << i
			}
		}
		for i := range rev {
			if n := rev[i].Len(); n > 0 {
				got.Rev |= 1 << i
				named += n
			}
			if st.revCap > 0 && rev[i].Len() >= st.revCap {
				spent |= 1 << i
			}
		}
		if got != st.loads[at] || got.Park&^got.Fwd != 0 {
			return fmt.Errorf("%s: cycle %d: station %d's non-empty queues are %+v, the index says %+v",
				s.name, s.tot.Cycles, at, got, st.loads[at])
		}
		if full != st.full[at] || spent != st.spent[at] {
			return fmt.Errorf("%s: cycle %d: station %d's full forward queues are %#b and its spent reverse queues %#b, the index says %#b and %#b",
				s.name, s.tot.Cycles, at, full, spent, st.full[at], st.spent[at])
		}
		roused, changed, err := s.checkParks(at)
		if err != nil {
			return err
		}
		if got.Fwd&^got.Park != 0 || roused {
			set(want, st.fwdBit, at)
		}
		if changed {
			set(may, st.fwdBit, at)
		}
		if got.Rev != 0 {
			set(want, st.revBit, at)
		}
		recs[at/st.rowLen] += st.wait[at].Len()
		named += st.wait[at].Len()
	}
	for j := range want {
		var got uint64
		for i := j; i < len(st.occ); i += st.stride {
			got |= st.occ[i]
		}
		if got&^(want[j]|may[j]) != 0 || want[j]&^got != 0 {
			return fmt.Errorf("%s: cycle %d: hop owner %d's occupancy word %d reads %#x, the stations' masks give %#x (and may set %#x)",
				s.name, s.tot.Cycles, j/st.span, j%st.span, got, want[j], may[j])
		}
	}
	if err := s.checkWaiters(); err != nil {
		return err
	}
	for row, n := range recs {
		if got := st.records(row, row+1); got != n {
			return fmt.Errorf("%s: cycle %d: row %d's wait buffers hold %d records, the lanes count %d",
				s.name, s.tot.Cycles, row, n, got)
		}
	}
	for mod := range s.meta {
		named += len(s.meta[mod].boxes())
	}
	if live := s.store.Live(); live != named {
		return fmt.Errorf("%s: cycle %d: the store holds %d live bodies, the queues, wait buffers and metadata name %d",
			s.name, s.tot.Cycles, live, named)
	}
	busy := make([]uint64, len(s.busy))
	for mod, n := range s.memLoad {
		if work := s.mem.Module(mod).Work(); work != int(n) {
			return fmt.Errorf("%s: cycle %d: module %d has %d to act on, the index says %d", s.name, s.tot.Cycles, mod, work, n)
		}
		if n > 0 {
			setBit(busy, s.modBit[mod])
		}
	}
	if !slices.Equal(busy, s.busy) {
		return fmt.Errorf("%s: cycle %d: the module words read %#x, the modules with work give %#x", s.name, s.tot.Cycles, s.busy, busy)
	}
	return s.checkPorts()
}

// checkPorts holds the port words to the ports: a port's awake bit is set
// exactly when it is not parked and it is awake or holds a retransmit, and
// no bit is set where no port is placed.
func (s *Shell) checkPorts() error {
	st := s.st
	awake, parked := make([]uint64, len(st.awake)), make([]uint64, len(st.parkedPorts))
	for p := range s.inj {
		if st.portParked(p) {
			setBit(parked, st.portBit[p])
		} else if !s.asleep[p] || s.flt != nil && s.retry[p].Len() > 0 {
			setBit(awake, st.portBit[p])
		}
	}
	if !slices.Equal(awake, st.awake) || !slices.Equal(parked, st.parkedPorts) {
		return fmt.Errorf("%s: cycle %d: the port words read %#x awake and %#x parked, the ports give %#x and %#x",
			s.name, s.tot.Cycles, st.awake, st.parkedPorts, awake, parked)
	}
	return nil
}
