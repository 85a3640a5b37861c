// Package asyncnet is an asynchronous, goroutine-per-switch implementation
// of the combining Omega network: the same wiring (engine.OmegaOf, compiled
// by engine.CompileStaged) and the same combining station (engine.Stations)
// as the cycle-accurate simulator (internal/network), but driven by real
// concurrency — each switch is a process that owns one station and drains
// its queues into channels, and each processor port is a calling goroutine
// that blocks for its reply.  The paper's claim in its strongest form: one
// station under a clocked sweep and under goroutines and channels.
//
// Where the cycle simulator measures queueing phenomena, this engine
// exercises the combining mechanism under genuine nondeterministic
// interleavings (and under the race detector), and it lets real programs —
// the fetch-and-add coordination algorithms of internal/coord, the
// producer/consumer full/empty examples — run against a combining shared
// memory.  Dataflow synchronization replaces the global clock, exactly the
// move Section 6 makes for the parallel-prefix tree.
package asyncnet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/memory"
	"combining/internal/rmw"
	"combining/internal/stats"
	"combining/internal/word"
)

// Config parameterizes the asynchronous network.
type Config struct {
	// Procs is N, a power of two ≥ 2.
	Procs int
	// Combining enables request combining at the switches.
	Combining bool
	// AllowReversal enables the Section 5.1 order-reversal optimization.
	AllowReversal bool
	// Window bounds outstanding requests per port (default 8).
	Window int
	// ChanCap is the per-link channel capacity — the engine's bounded
	// queues.  Any capacity ≥ 1 is deadlock-free: a port or switch that
	// blocks sending forward services its reply side while it waits (the
	// service-while-blocked discipline, see sendFwd and the fwdOut
	// wiring in New), so the classic request-blocks-reply cycle cannot
	// close; blocked reverse sends descend strictly in stage and
	// terminate at the ports, which always consume.  The default is
	// Procs·Window — enough that sends rarely block at all (16× that
	// under a fault plan, because retransmit copies and suppressed
	// duplicates ride alongside live traffic); set ChanCap explicitly to
	// model tight link buffering.
	ChanCap int
	// Faults, when non-nil, arms deterministic fault injection (link
	// drops on both networks) plus the recovery layer: wall-clock
	// timeout/backoff retransmits at the ports and reply-cache
	// deduplication at the memory modules.  Drop decisions hash
	// (seed, site, id, attempt), so they are identical under any
	// goroutine schedule; stall windows are cycle-based and do not
	// apply to this clockless engine.
	Faults *faults.Plan
}

// Net is a running asynchronous combining network.
type Net struct {
	cfg Config
	n   int
	mem *memory.Array
	// links is the omega wiring, compiled; switch (stage, i) is station
	// stage·n/2 + i of it and of switches.
	links    *engine.Links
	switches []*aswitch
	ports    []*Port

	done chan struct{}
	wg   sync.WaitGroup

	// combines and rejects count combine events and combines forfeited to
	// a full wait buffer.  Lock-free: every switch goroutine records
	// concurrently without serializing the combine hot path it measures.
	combines stats.Counter
	rejects  stats.Counter
	// issuedReqs counts requests issued at the ports (the cross-engine
	// "issued" counter; completions are rtt.Count()).
	issuedReqs stats.Counter
	// orphans counts replies discarded undeliverable at shutdown: a
	// reverse send found the net closed (fault-mode residue by the Close
	// contract).  Previously hardcoded to zero in Snapshot.
	orphans stats.Counter
	// rtt is the port round-trip latency histogram (nanoseconds),
	// recorded as each reply reaches its issuing port.
	rtt stats.Histogram
	// batchHW tracks, per stage, the largest simultaneously drained
	// request batch — the asynchronous analogue of switch queue depth.
	batchHW []stats.HighWater
	// creditStalls counts forward sends that found the downstream channel
	// full and fell into the service-while-blocked loop — the engine's
	// backpressure signal, analogous to the cycle engines' hold counters.
	creditStalls stats.Counter

	// flt answers fault decisions when the net runs under a plan.
	flt *faults.Injector
	// start is when the net started: the ports' trackers run on ticks
	// since then.
	start time.Time
	// recoveryLat is the round-trip latency of recovered requests
	// (nanoseconds, wall clock — this engine has no cycles).
	recoveryLat stats.Histogram
}

// tick is the trackers' clock unit: the plan's cycle-denominated backoff
// schedule read as wall-clock time, so the default base timeout of 64
// cycles is 3.2ms.
const tick = 50 * time.Microsecond

// now is the trackers' clock: ticks since the net started.
func (n *Net) now() int64 { return int64(time.Since(n.start) / tick) }

// aswitch is one switch process: the goroutine that owns station at.
type aswitch struct {
	net   *Net
	stage int
	at    int
	st    *engine.Stations // one station, row 0, over a store of its own

	fwdIn [2]chan engine.Fwd
	revIn chan engine.Rev // replies from the memory side

	// Downstream targets, wired by New.
	fwdOut [2]func(engine.Fwd) // send toward memory
	revOut [2]func(engine.Rev) // send toward processors
}

// Port is one processor's connection to the network.  A Port may pipeline
// up to the configured window of outstanding requests (RMWAsync) and is
// not safe for concurrent use; run one goroutine per port.
type Port struct {
	net  *Net
	proc word.ProcID
	ids  *word.IDGen
	// in is the first-stage inbox the port's link enters, at fault site
	// site; path is the header a request leaves the port with, stamped with
	// the input port the link occupies there.
	in   chan engine.Fwd
	path engine.Path
	site uint64

	reply       chan engine.Rev
	window      int
	outstanding int
	buffered    map[word.ReqID]word.Word
	// issued stamps each in-flight request for round-trip latency.
	issued map[word.ReqID]time.Time
	// epoch counts fences; a handle issued before the latest fence has
	// been abandoned and may no longer be waited on.
	epoch int

	// trk is the port's exactly-once ledger under a fault plan (nil
	// otherwise), the cycle engines' faults.Tracker on the net's tick
	// clock: it retransmits what times out, holds a request while an
	// earlier one by this port to the same location is undelivered, and
	// suppresses duplicate replies.
	trk *faults.Tracker
}

// Validate reports whether the configuration is usable, with the
// documented zero-value defaults applied first; all config policing
// funnels through the engine core's Spec path (New panics with the same
// error).
func (c Config) Validate() error {
	return c.normalize()
}

// normalize applies the defaults in place and validates the result.
func (c *Config) normalize() error {
	if err := (engine.Spec{
		Engine:  "asyncnet",
		Procs:   c.Procs,
		PowerOf: 2,
		Banks:   1,
		Window:  c.Window,
	}).Validate(); err != nil {
		return err
	}
	if c.Window == 0 {
		c.Window = 8
	}
	if c.ChanCap <= 0 {
		c.ChanCap = c.Procs * c.Window
		if c.Faults != nil {
			c.ChanCap *= 16
		}
	}
	return nil
}

// site is a compiled link coordinate as a fault hash key.
func site(c engine.Coord) uint64 { return faults.Site(int(c.Stage), int(c.Index), int(c.Port)) }

// New starts the network's switch goroutines.
func New(cfg Config) *Net {
	if err := cfg.normalize(); err != nil {
		panic(err)
	}
	n := cfg.Procs
	links := engine.CompileStaged(engine.OmegaOf(n, 2))
	k := links.PathLen
	var memOpts []memory.Option
	if cfg.Faults != nil {
		memOpts = append(memOpts, memory.WithReplyCache())
	}
	net := &Net{
		cfg:     cfg,
		n:       n,
		mem:     memory.NewArray(n, memOpts...),
		links:   links,
		done:    make(chan struct{}),
		batchHW: make([]stats.HighWater, k),
		start:   time.Now(),
	}
	if cfg.Faults != nil {
		net.flt = faults.NewInjector(*cfg.Faults)
	}
	waitCap := 0
	if cfg.Combining {
		waitCap = core.Unbounded
	}
	// The stations' queues are unbounded staging: a switch drains them into
	// its channels — the engine's bounded queues — before it takes another
	// batch.  Each station is made alone, over a message store of its own
	// that only its switch goroutine touches; messages cross the channels
	// in value form.
	net.switches = make([]*aswitch, k*n/2)
	for at := range net.switches {
		st := engine.NewStations(1, 2, 2, 0, 0, waitCap, core.Policy{AllowReversal: cfg.AllowReversal})
		sw := &aswitch{net: net, stage: at / (n / 2), at: at, st: st,
			revIn: make(chan engine.Rev, cfg.ChanCap)}
		sw.fwdIn[0] = make(chan engine.Fwd, cfg.ChanCap)
		sw.fwdIn[1] = make(chan engine.Fwd, cfg.ChanCap)
		net.switches[at] = sw
	}

	// Ports, their reply channels and their links into stage 0.
	net.ports = make([]*Port, n)
	for p := 0; p < n; p++ {
		l := links.Proc[p]
		net.ports[p] = &Port{
			net:      net,
			proc:     word.ProcID(p),
			ids:      word.Partition(p, n),
			in:       net.switches[l.To].fwdIn[l.In],
			path:     engine.Path(0).Push(l.In),
			site:     site(links.ProcAt[p]),
			reply:    make(chan engine.Rev, cfg.ChanCap),
			window:   cfg.Window,
			buffered: make(map[word.ReqID]word.Word),
			issued:   make(map[word.ReqID]time.Time),
		}
		if net.flt != nil {
			net.ports[p].trk = faults.NewTracker(net.flt)
		}
	}

	// Wire the links: a forward link into the next stage stamps its input
	// port into the path and sends; one that ends at a module feeds memory
	// inline and decombines the reply in place (a self-send into the
	// switch's own bounded revIn could block forever, since only this
	// goroutine drains it).  Forward sends service the sender's reply side
	// while blocked, so every channel may be as small as one slot without
	// deadlock.  Every hop passes through a fault hook; sends select against
	// done so stale fault-mode duplicates cannot wedge a switch at shutdown.
	for at, sw := range net.switches {
		for b := 0; b < 2; b++ {
			l, where := links.Fwd[at*2+b], site(links.FwdAt[at*2+b])
			if l.To < 0 {
				mod := int(-1 - l.To)
				sw.fwdOut[b] = func(m engine.Fwd) {
					if net.flt != nil && net.flt.DropForward(where, m.Req.ID, m.Req.Attempt) {
						return
					}
					rep := net.mem.Module(mod).Do(m.Req)
					if net.flt != nil && net.flt.DropReply(where, rep.ID, rep.Attempt) {
						return
					}
					sw.handleRev(engine.Rev{Rep: rep, Path: m.Path})
				}
				continue
			}
			target, inPort := net.switches[l.To].fwdIn[l.In], l.In
			sw.fwdOut[b] = func(m engine.Fwd) {
				if net.flt != nil && net.flt.DropForward(where, m.Req.ID, m.Req.Attempt) {
					return
				}
				m.Path = m.Path.Push(inPort)
				// Service-while-blocked: while the downstream inbox
				// is full, keep draining our own revIn.  A blocked
				// forward chain ascends the stages; every switch on
				// it stays live on its reply side, so replies drain,
				// wait records clear, and the head of the chain
				// eventually frees a slot — requests can never block
				// replies, the cycle that deadlocks bounded buffers.
				select {
				case target <- m:
					return
				default:
					net.creditStalls.Inc()
				}
				for {
					select {
					case target <- m:
						return
					case r := <-sw.revIn:
						sw.handleRev(r)
					case <-net.done:
						return
					}
				}
			}
		}
		// Reverse links: replies leaving input port p.
		for p := 0; p < 2; p++ {
			l, where := links.Rev[at*2+p], site(links.RevAt[at*2+p])
			var target chan engine.Rev
			if l.To >= 0 {
				target = net.switches[l.To].revIn
			} else {
				target = net.ports[-1-l.To].reply
			}
			sw.revOut[p] = func(r engine.Rev) {
				if net.flt != nil && net.flt.DropReply(where, r.Rep.ID, r.Rep.Attempt) {
					return
				}
				if !send(net.done, target, r) {
					net.orphans.Inc()
				}
			}
		}
		net.wg.Add(1)
		go sw.run()
	}
	return net
}

// send delivers a message unless the net is shutting down, reporting
// whether it was delivered: Close requires idle ports, so anything still
// in flight then is fault-mode residue (stale retransmit copies) that may
// be discarded — reverse-path callers count such discards as orphans.
func send[T any](done chan struct{}, ch chan T, v T) bool {
	select {
	case ch <- v:
		return true
	case <-done:
		return false
	}
}

// Close shuts the switch goroutines down.  All ports must be idle (no
// outstanding requests).
func (n *Net) Close() {
	close(n.done)
	n.wg.Wait()
}

// Memory exposes the module array for initialization and inspection; use
// only while no requests are in flight.
func (n *Net) Memory() *memory.Array { return n.mem }

// Combines reports combine events so far; safe to call at any time.
func (n *Net) Combines() int64 { return n.combines.Load() }

// Snapshot captures the engine's instrumentation behind the shared
// cross-engine API.  Counters are safe to read while traffic is in flight;
// totals are exact once the ports are quiescent.
func (n *Net) Snapshot() stats.Snapshot {
	gauges := make(map[string]int64, len(n.batchHW))
	for s := range n.batchHW {
		gauges[fmt.Sprintf("stage%d_batch_max", s)] = n.batchHW[s].Load()
	}
	snap := stats.Snapshot{
		Engine: "asyncnet",
		// Replies == completed (rtt records one entry per live reply
		// absorbed at a port); cycles and the hop/hold counters are
		// structurally zero on this clockless goroutine engine.
		Counters: engine.Counters{
			Issued:         n.issuedReqs.Load(),
			Completed:      n.rtt.Count(),
			Replies:        n.rtt.Count(),
			Combines:       n.combines.Load(),
			CombineRejects: n.rejects.Load(),
			CreditStalls:   n.creditStalls.Load(),
		}.Map(),
		Gauges: gauges,
		Histograms: map[string]stats.HistogramSnapshot{
			"port_rtt_ns": n.rtt.Snapshot(),
		},
	}
	if n.flt != nil {
		// The shared fault-counter schema (see faults.AddValues); stall
		// and crash windows are cycle-denominated, so on this clockless
		// engine those keys (and the checkpoint/crash counters) are
		// structurally zero, and recovery latency is wall-clock rather
		// than cycles.  The port-side counters are the sums of the ports'
		// trackers.
		v := faults.Values{
			Injected:  n.flt.Injected(),
			DropsFwd:  n.flt.DropsFwd.Load(),
			DropsRev:  n.flt.DropsRev.Load(),
			DedupHits: n.mem.TotalDedupHits(),
			Orphans:   n.orphans.Load(),
		}
		for _, p := range n.ports {
			v.Retries += p.trk.Retries.Load()
			v.Duplicates += p.trk.Duplicates.Load()
			v.Recovered += p.trk.Recovered.Load()
		}
		faults.AddValues(&snap, v)
		snap.Histograms["recovery_latency_ns"] = n.recoveryLat.Snapshot()
	}
	return snap
}

// Faults exposes the injector (nil on a healthy net).
func (n *Net) Faults() *faults.Injector { return n.flt }

// Port returns processor p's port.
func (n *Net) Port(p int) *Port { return n.ports[p] }

// RMW issues RMW(addr, op) through the network and blocks for the old
// value.
func (p *Port) RMW(addr word.Addr, op rmw.Mapping) word.Word {
	return p.RMWAsync(addr, op).Wait()
}

// Pending is a handle to an in-flight pipelined request.
type Pending struct {
	port  *Port
	id    word.ReqID
	epoch int
}

// absorb accounts a reply's arrival at the port — round-trip latency and
// window release — and returns its value.  Under a fault plan the tracker
// delivers it first: a reply whose request it has already delivered is a
// duplicate (a retransmit raced its original), counted there and
// suppressed here, and live reports false.
func (p *Port) absorb(r engine.Rev) (v word.Word, live bool) {
	id := r.Rep.ID
	rtt := time.Since(p.issued[id]).Nanoseconds()
	if p.trk != nil {
		q, ok := p.trk.Deliver(id, p.net.now())
		if !ok {
			return word.Word{}, false
		}
		if q.Req.Attempt > 0 {
			p.net.recoveryLat.Record(rtt)
		}
	}
	p.net.rtt.Record(rtt)
	delete(p.issued, id)
	p.outstanding--
	return r.Rep.Val, true
}

// recv blocks for the next reply.  Under a fault plan it also plays the
// processor's timeout role: it wakes at least once a tick, and on every
// wake re-sends what the tracker reports timed out.
func (p *Port) recv() engine.Rev {
	if p.trk == nil {
		return <-p.reply
	}
	for {
		select {
		case r := <-p.reply:
			p.retransmit()
			return r
		case <-time.After(tick):
			p.retransmit()
		}
	}
}

// retransmit re-sends every request the tracker reports timed out, with
// the plan's capped exponential backoff.  A copy keeps its id (the
// exactly-once key) and bumps Attempt, so it will never combine and draws
// fresh drop randomness at every hop.  Sends are non-blocking: if the
// first-stage inbox is full, the tracker's next deadline retries later.
func (p *Port) retransmit() {
	for _, q := range p.trk.Expired(p.net.now()) {
		if p.net.flt.DropForward(p.site, q.Req.ID, q.Req.Attempt) {
			continue
		}
		select {
		case p.in <- engine.Fwd{Req: q.Req, Path: p.path}:
		default:
		}
	}
}

// absorbToBuffer consumes one live reply and parks its value for the
// handle that will Wait on it, discarding fault-mode duplicates.
func (p *Port) absorbToBuffer() {
	r := p.recv()
	if v, live := p.absorb(r); live {
		p.buffered[r.Rep.ID] = v
	}
}

// sendFwd injects a request into a first-stage switch, absorbing replies
// while the send blocks: a port waiting on a full inbox keeps consuming
// its reply channel, so the first-stage switch can always finish its
// reverse sends and get back to draining the very inbox the port is
// waiting on.  This is the processor end of the service-while-blocked
// discipline that makes ChanCap=1 deadlock-free.
func (p *Port) sendFwd(req core.Request) {
	m := engine.Fwd{Req: req, Path: p.path}
	select {
	case p.in <- m:
		return
	default:
		p.net.creditStalls.Inc()
	}
	for {
		select {
		case p.in <- m:
			return
		case r := <-p.reply:
			if v, live := p.absorb(r); live {
				p.buffered[r.Rep.ID] = v
			}
		case <-p.net.done:
			return
		}
	}
}

// RMWAsync issues the request without waiting for its reply — the
// processor-side pipelining of Section 3.2 (condition M2 still holds: the
// network is non-overtaking per location, but accesses to different
// locations may complete out of order, exactly the behaviour Collier's
// example exploits).  When the port's window is full, it first absorbs
// one outstanding reply.
func (p *Port) RMWAsync(addr word.Addr, op rmw.Mapping) *Pending {
	for p.outstanding >= p.window {
		p.absorbToBuffer()
	}
	id := p.ids.NextPartitioned(p.net.n)
	req := core.NewRequest(id, addr, op, p.proc)
	if p.trk != nil {
		// The reply cache needs every message to name its leaves exactly.
		req = req.WithReps()
		p.trk.Track(int(p.proc), req, false, p.net.now())
		// As Shell.Offer does: hold the request while an earlier one by
		// this port to the same location is undelivered, or its retransmit
		// could execute after this one and break M2 program order.
		for p.trk.HeldBack(int(p.proc), addr) {
			p.absorbToBuffer()
		}
	}
	p.issued[id] = time.Now()
	p.net.issuedReqs.Inc()
	if p.trk == nil || !p.net.flt.DropForward(p.site, id, 0) {
		p.sendFwd(req)
	}
	p.outstanding++
	return &Pending{port: p, id: id, epoch: p.epoch}
}

// ErrAbandonedHandle is returned by WaitErr for a handle issued before the
// port's latest Fence: the fence discarded its reply, so there is nothing
// left to wait for.
var ErrAbandonedHandle = errors.New("asyncnet: handle abandoned by Fence")

// Wait blocks for the request's old value.  Replies arriving out of order
// are buffered for their own handles.  Waiting on a handle issued before
// the port's latest Fence panics: the fence abandoned it (see Fence).
// Callers that would rather recover than crash use WaitErr.
func (h *Pending) Wait() word.Word {
	v, err := h.WaitErr()
	if err != nil {
		panic("asyncnet: Wait on a handle abandoned by Fence")
	}
	return v
}

// WaitErr is Wait with an error path: it returns ErrAbandonedHandle for a
// handle the port's latest Fence abandoned, instead of panicking.
func (h *Pending) WaitErr() (word.Word, error) {
	p := h.port
	if v, ok := p.buffered[h.id]; ok {
		delete(p.buffered, h.id)
		return v, nil
	}
	if h.epoch != p.epoch {
		return word.Word{}, ErrAbandonedHandle
	}
	for {
		r := p.recv()
		v, live := p.absorb(r)
		if !live {
			continue
		}
		if r.Rep.ID == h.id {
			return v, nil
		}
		if _, dup := p.buffered[r.Rep.ID]; dup {
			panic(fmt.Sprintf("asyncnet: duplicate reply %v", r.Rep))
		}
		p.buffered[r.Rep.ID] = v
	}
}

// Fence drains every outstanding reply — the RP3 fence on the asynchronous
// machine.  A fence declares the caller done with everything issued before
// it: replies to handles never waited on are discarded rather than parked
// forever in the reply buffer, so repeated RMWAsync+Fence cycles hold no
// memory.  A later Wait on such an abandoned handle panics.
func (p *Port) Fence() {
	for p.outstanding > 0 {
		p.absorb(p.recv())
	}
	clear(p.buffered)
	p.epoch++
}

// Buffered reports the replies parked for out-of-order Waits — after a
// Fence it is always zero (the fence-reclamation invariant).
func (p *Port) Buffered() int { return len(p.buffered) }

// FetchAdd is a convenience wrapper.
func (p *Port) FetchAdd(addr word.Addr, delta int64) int64 {
	return p.RMW(addr, rmw.FetchAdd(delta)).Val
}

// run is the switch process: it batches simultaneously available requests,
// combines what it can, forwards the rest, and decombines replies.
func (sw *aswitch) run() {
	defer sw.net.wg.Done()
	for {
		select {
		case <-sw.net.done:
			return
		case m := <-sw.fwdIn[0]:
			sw.handleFwd(m)
		case m := <-sw.fwdIn[1]:
			sw.handleFwd(m)
		case r := <-sw.revIn:
			sw.handleRev(r)
		}
	}
}

// handleFwd drains whatever else is immediately available on the input
// channels — the asynchronous analogue of requests meeting in a queue —
// lets the station combine same-address arrivals, and drains its forward
// queues into the links.
func (sw *aswitch) handleFwd(first engine.Fwd) {
	batch := []engine.Fwd{first}
	// Bounded spin, then park: poll both inboxes, give concurrently
	// released stragglers one scheduling quantum to land (so they can
	// combine — the asynchronous analogue of messages meeting in a switch
	// queue), and yield again only while polls keep finding new messages,
	// up to maxYields.  The first dry poll after a yield ends collection,
	// returning the switch to run()'s select — a channel wait that costs
	// no CPU — where the old unconditional per-batch Gosched burned a
	// scheduler round-trip even with the batch already full (every three
	// messages under ChanCap=1) or no burst in flight at all.  The batch
	// is capped at both inboxes' worth of messages so switch-internal
	// buffering stays bounded even while blocked upstream senders keep
	// refilling the channels; with the (large) default ChanCap the cap is
	// never reached.
	batchMax := 2*sw.net.cfg.ChanCap + 1
	const maxYields = 2
	for yields := 0; len(batch) < batchMax; {
		before := len(batch)
		for drained := true; drained && len(batch) < batchMax; {
			select {
			case m := <-sw.fwdIn[0]:
				batch = append(batch, m)
			case m := <-sw.fwdIn[1]:
				batch = append(batch, m)
			default:
				drained = false
			}
		}
		if yields >= maxYields || (yields > 0 && len(batch) == before) {
			break
		}
		yields++
		runtime.Gosched()
	}
	sw.net.batchHW[sw.stage].Observe(int64(len(batch)))
	// The station combines an arrival only with the most recent queued
	// request for its address, preserving per-location arrival order (M2.3);
	// its queues are unbounded, so nothing is refused.
	var sh engine.Shard
	route := sw.net.links.Route[sw.at]
	for i := range batch {
		m := &batch[i]
		sw.st.PutFwd(0, m, int(route[sw.net.mem.HomeOf(m.Req.Addr)]), m.Path, 0, &sh)
	}
	if sh.Combines > 0 {
		sw.net.combines.Add(sh.Combines)
	}
	if rejected := sw.st.Wait[0].Rejections; rejected > 0 {
		sw.net.rejects.Add(rejected)
		sw.st.Wait[0].Rejections = 0
	}
	fwd := sw.st.Fwd(0)
	for port := range fwd {
		for fwd[port].Len() > 0 {
			sw.fwdOut[port](sw.st.TakeFwd(0, port))
		}
	}
}

// handleRev lets the station decombine a reply against its wait buffer
// (repeatedly, for k-way combines) and drains the results toward the
// processors.  Under a fault plan the reply carries its exact leaf set, and
// only records whose second request is among those leaves decombine — a
// retransmitted original must not satisfy a wait record left by a lost
// combined copy (the deprived partner recovers by its own retransmit
// instead).
func (sw *aswitch) handleRev(r engine.Rev) {
	sw.st.PutRev(0, &r, 0, nil) // never home: a reply's path is spent at its port, not before
	rev := sw.st.Rev(0)
	for port := range rev {
		for rev[port].Len() > 0 {
			sw.revOut[port](sw.st.TakeRev(0, port))
		}
	}
}
