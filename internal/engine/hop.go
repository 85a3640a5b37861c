package engine

import (
	"fmt"

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
// and modules' entries of the occupancy index, the bodies of the messages
// those hold (store.go: they allocate none, and free into the lane), the
// forward limbo and the event buffers, and the caller's Lane; a schedule calls them from its
// pool's workers for stations whose link ends no other worker touches in
// the same phase (a conflict group), passing each worker its own lane.  Link-fault draws are hash
// decisions with atomic counters.  Ports and deliveries — Inject, Commit —
// belong to one goroutine at a time.

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
	return q.Full() && q.Ver() == k.down && s.st.Wait[to].CanPush() == k.canPush
}

// arrive lands request e at station to, on the queue its module routes to.
// Refused by the station's memory combining queue (queue Ports, beyond the
// link queues), the request is held by memory and counted so: the hold that
// turns a hot node into backpressure instead of unbounded memory-side
// buffering.  The refusal is written to memo k, up being the version of the
// queue e heads (0 at a port).
func (s *Shell) arrive(to, in int32, e *FwdEntry, k *refusal, up uint32, sh *Shard) bool {
	st, wait := s.st, &s.st.Wait[to]
	out := int(s.links.Route[to][s.mem.HomeOf(e.Addr)])
	rejections := wait.Rejections
	if st.AcceptFwd(int(to), e, out, e.Path.Push(in), s.now(), sh) {
		return true
	}
	held := out == s.links.Ports
	if held {
		sh.HoldsMem++
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
		s.st.Wait[to].Rejections++
		return s.st.trace != nil
	}
	return false
}

// FwdHop makes station at's forward move: the head of each link queue,
// starting with port first, crosses its link — into the next station when
// that one takes it, into the memory module the link ends at when the module
// has room.  A dead downstream station or a full queue holds the request where
// it is, so a crash costs the flushed state and not a stream of new losses;
// a request that already hopped this cycle waits.  A station whose forward
// queues are empty has no move to make and nothing to count, and the index
// says so without touching it.  A hop reads the entry; only a fault draw, a
// feed or a combine at the far end reads the body.
func (s *Shell) FwdHop(at, first int, ln *Lane) {
	st := s.st
	if st.loads[at].Fwd == 0 || s.Down(at) {
		return
	}
	n := s.links.Ports
	qs := st.fwd[at*st.nf : at*st.nf+n]
	for i, port := 0, first; i < n; i, port = i+1, Next(port, n) {
		q := &qs[port]
		if q.Len() == 0 {
			continue
		}
		e := q.Front()
		if e.Moved == s.now() {
			continue
		}
		l, c, k := s.links.Fwd[at*n+port], &s.links.FwdAt[at*n+port], &s.fwdMemo[at*n+port]
		mod := int(-1 - l.To) // when the link ends at a module
		again := l.To >= 0 && k.up == q.Ver() && s.refusedAgain(l.To, k)
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
			if s.refuseAgain(l.To, k, &ln.Shard) {
				st.trace(int(l.To), Rejected, s.store.At(e.H).Req.ID, 0, e.Addr)
			}
		case s.arrive(l.To, l.In, e, k, q.Ver(), &ln.Shard):
			// l.To ≠ at, so landing the request could not move the slot e is in.
			s.countFwd(e, &ln.Shard)
			st.PopFwd(at, port)
		}
	}
}

func (s *Shell) countFwd(e *FwdEntry, sh *Shard) {
	sh.FwdHops++
	sh.FwdSlots += int64(e.Slots)
}

// Lose drops the head of station at's forward queue port, lost on its link:
// its body goes back through the lane.
func (s *Shell) Lose(at, port int, ln *Lane) {
	ln.free(s.st.Fwd(at)[port].Front().H)
	s.st.PopFwd(at, port)
}

// MemReady reports whether module mod can be fed now: it is up and the
// wiring's feed rule (Hooks.CanFeed) admits one more request.
func (s *Shell) MemReady(mod int) bool { return !s.ModuleDead(mod) && s.hooks.CanFeed(mod) }

// Feed carries the head of station at's forward queue port across the
// terminal link named by site into module mod, which MemReady has said can
// take it.
func (s *Shell) Feed(at, port, mod int, site uint64, ln *Lane) {
	s.enterMemory(site, mod, s.st.Fwd(at)[port].Front(), ln)
	s.st.PopFwd(at, port)
}

// RevHop makes station at's reverse move: the head of each reverse queue
// crosses its link when the station at the far end is alive and has the
// reserved credit (Stations.CanAcceptRev), and is held otherwise; a link that
// ends at a processor brings the reply home.  Like FwdHop it reads the
// entry, and the body only for a fault draw or a decombine at the far end.
func (s *Shell) RevHop(at, first int, ln *Lane) {
	st := s.st
	if st.loads[at].Rev == 0 || s.Down(at) {
		return
	}
	n := s.links.RevPorts
	qs := st.rev[at*st.nr : at*st.nr+n]
	for i, port := 0, first; i < n; i, port = i+1, Next(port, n) {
		q := &qs[port]
		if q.Len() == 0 {
			continue
		}
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
				st.AcceptRev(to, e, s.now(), &ln.Home)
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
			s.memLoad[mod] += int32(s.mem.Module(mod).Checkpoint())
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
	rep, m, ok := s.serve(mod, &ln.Shard)
	if !ok {
		return
	}
	b := s.store.At(m.H)
	r := RevEntry{ID: rep.ID, Path: m.Path, H: m.H, Src: b.Src, Valued: rmw.NeedsValue(b.Req.Op)}
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
	s.st.AcceptRev(at, &r, s.now(), &ln.Home)
}

// Commit hands every reply the cycle's hops brought home to its processor's
// terminal link, lane by lane in order, in value form: the body goes back
// through lane 0, the committing goroutine's.  Deliveries touch injectors,
// the retry ledger and the completion counters, none of which a hop reads or
// writes, so a schedule may commit any time between the hops that bring
// replies home and injection — on worker 0 while the others hop, unless a
// wait buffer sits behind the processor links (Links.Behind): a reply
// landing there is stored again (landed), so such a wiring commits outside
// its pool's phases.
func (s *Shell) Commit() {
	freed := &s.lanes[0]
	for i := range s.lanes {
		home := s.lanes[i].Home
		for j := range home {
			r := s.store.rev(&home[j])
			freed.free(home[j].H)
			s.deliver(s.links.Home[r.Src].site(), &r)
		}
		s.lanes[i].Home = home[:0]
	}
}

// Inject offers processor p's request, if it has one, to the station its
// link enters, and reports whether the link carried a message — accepted, or
// lost on the way.  A dead station or a full queue holds the offer at the
// port.
func (s *Shell) Inject(p int) bool {
	m := s.Offer(p)
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
	sh := &s.lanes[0].Shard
	if again {
		if s.refuseAgain(l.To, &k.refusal, sh) {
			s.st.trace(int(l.To), Rejected, m.Req.ID, 0, m.Req.Addr)
		}
		return false
	}
	e := s.store.put(m)
	if !s.arrive(l.To, l.In, &e, &k.refusal, 0, sh) {
		s.store.Free(e.H)
		k.id, k.attempt = m.Req.ID, m.Req.Attempt
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
	return s.flt != nil && (s.flt.DropReply(c.site(), e.ID, s.store.At(e.H).Req.Attempt) ||
		s.linkOpen && s.flt.DropLinkRev(int(c.Stage), int(c.Index), s.tot.Cycles))
}

func (c Coord) site() uint64 { return faults.Site(int(c.Stage), int(c.Index), int(c.Port)) }

// flush empties switch fault domain at on its crash edge — the station, the
// modules it hosts, the reply metadata it holds, and the bodies of all of
// them — and returns the leaf request ids whose only copy was there.  Requests inside a module whose
// metadata went keep executing; their replies surface as orphans and the
// retransmit path re-drives them through the reply caches.
func (s *Shell) flush(at int) []word.ReqID {
	lost := s.st.Crash(at)
	for mod, host := range s.links.Hosts {
		if int(host) == at {
			lost = append(lost, s.mem.Module(mod).Crash()...)
			s.memLoad[mod] = 0
		}
	}
	for mod, holder := range s.links.Holds {
		if int(holder) != at {
			continue
		}
		for _, e := range s.meta[mod].boxes() {
			b := s.store.At(e.H)
			lost = LostLeaves(lost, b.Req.Reps(), b.Req.ID)
			s.store.Free(e.H)
		}
		s.meta[mod].clear()
	}
	return lost
}

// occupancy sums Stations.Occupancy over stations lo to hi-1.  A clean
// machine's in-flight census adds ports and modules to the whole range;
// detail renders it, stage by stage and with the modules' queues, for a
// stall report.
func (s *Shell) occupancy(lo, hi int) (fwd, rev, wait int) {
	for at := lo; at < hi; at++ {
		f, r, w := s.st.Occupancy(at)
		fwd, rev, wait = fwd+f, rev+r, wait+w
	}
	return fwd, rev, wait
}

func (s *Shell) detail() string {
	fwd, rev, wait := s.occupancy(0, s.st.Len())
	memQ := 0
	for mod := 0; mod < s.mem.Modules(); mod++ {
		memQ += s.mem.Module(mod).QueueLen()
	}
	out := fmt.Sprintf("stations: fwd=%d rev=%d wait=%d\nmemory queued=%d", fwd, rev, wait, memQ)
	for stage := 0; stage*s.width < s.st.Len(); stage++ {
		fwd, rev, wait := s.occupancy(stage*s.width, (stage+1)*s.width)
		out += fmt.Sprintf("\nstage %d: fwd=%d rev=%d wait=%d", stage, fwd, rev, wait)
	}
	return out
}

// Loads is the occupancy index: entry stage·width + index counts the
// requests and replies queued at that station, current after every hop.  It
// is the stations' own array, the caller's to read between steps.
func (s *Shell) Loads() []Load { return s.st.loads }

// CheckLoads recounts every queue the occupancy index counts — the
// stations' FIFOs, and each module's input queue with the replies it has
// released (memory.Module.Work) — and reports the first entry that
// disagrees: the invariant every skipped visit rests on.  It also holds the
// store closed: every live body is named by exactly one queue entry, wait
// record or metadata entry (limbo and the lanes hold values, or nothing,
// between steps).
func (s *Shell) CheckLoads() error {
	named := 0
	st := s.st
	for at := range st.loads {
		got, fwd, rev := Load{}, st.Fwd(at), st.Rev(at)
		for i := range fwd {
			got.Fwd += int32(fwd[i].Len())
		}
		for i := range rev {
			got.Rev += int32(rev[i].Len())
		}
		if got != st.loads[at] {
			return fmt.Errorf("%s: cycle %d: station %d holds %+v, the index says %+v", s.name, s.tot.Cycles, at, got, st.loads[at])
		}
		named += int(got.Fwd+got.Rev) + st.Wait[at].Len()
	}
	for mod := range s.meta {
		named += len(s.meta[mod].boxes())
	}
	if live := s.store.Live(); live != named {
		return fmt.Errorf("%s: cycle %d: the store holds %d live bodies, the queues, wait buffers and metadata name %d",
			s.name, s.tot.Cycles, live, named)
	}
	for mod, n := range s.memLoad {
		if work := s.mem.Module(mod).Work(); work != int(n) {
			return fmt.Errorf("%s: cycle %d: module %d has %d to act on, the index says %d", s.name, s.tot.Cycles, mod, work, n)
		}
	}
	return nil
}
