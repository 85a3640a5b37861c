// Package hypercube implements combining on a direct-connection machine,
// per Section 7: "the mechanisms described in this paper can be easily
// adopted for use by direct connection machines, such as the cosmic cube,
// where the processors themselves act like network switches and the local
// memories at each node are all viewed as part of a distributed, shared
// memory."
//
// The machine is a store-and-forward direct-connection machine: each node
// hosts a processor, one interleaved slice of shared memory, and a router
// with one bounded FIFO output queue per link.  The link structure comes
// from an engine.Direct topology (binary hypercube by default, torus as an
// alternative wiring); the topology guarantees that replies retrace the
// request path node for node — satisfying the paper's "only major
// restriction", that replies return via the same route — so the per-node
// wait buffers see every reply whose request they combined.  For the
// default cube, requests route e-cube (ascending dimension order) and
// replies descend the dimensions.
package hypercube

import (
	"fmt"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/par"
	"combining/internal/stats"
	"combining/internal/word"
)

// Config parameterizes the machine.
type Config struct {
	// Topology selects the link structure (engine.CubeOf, engine.TorusOf,
	// ...).  nil means the binary hypercube on Nodes nodes.  When set,
	// Nodes may be left 0 to adopt the topology's node count, and must
	// agree with it otherwise.
	Topology engine.Direct
	// Nodes is N; for the default cube wiring, a power of two ≥ 2.
	Nodes int
	// QueueCap bounds each per-link forward queue (default 4).
	QueueCap int
	// RevQueueCap is the per-dimension base credit of each node's reverse
	// queues: a reply hops to a node only while every reverse queue there
	// sits below it, and wait-buffer records act as reserved credits for
	// the decombining fan-out (occupancy ≤ RevQueueCap + WaitBufCap).
	// The acceptance check spans all d dimensions, so the default scales
	// with degree: 0 means d·QueueCap.  Negative means unbounded.
	RevQueueCap int
	// MemQueueCap bounds each node's memory combining queue; a full queue
	// holds arriving requests in their upstream dimension queues.  0
	// defaults to d·QueueCap — the queue aggregates arrivals from all d
	// dimension links, so it gets d link-queues' worth of buffering.
	// Negative means unbounded (the pre-flow-control behavior).
	MemQueueCap int
	// WatchdogCycles is the progress watchdog limit (see
	// internal/network.Config.WatchdogCycles): 0 defaults to
	// engine.DefaultWatchdogCycles, negative disables.
	WatchdogCycles int64
	// WaitBufCap bounds each node's wait buffer (0 disables combining).
	WaitBufCap int
	// AllowReversal enables the Section 5.1 optimization.
	AllowReversal bool
	// MemService is the local memory service time (default 1).
	MemService int
	// Workers shards the memory-tick phase of each cycle — module service,
	// metadata, decombining, all node-local — across this many goroutines
	// (see internal/par and DESIGN.md §6).  0 or 1 keep the single-threaded
	// stepper; either way output is byte-for-byte identical.  The forward
	// and reverse drains stay serial: their credit checks read neighbor
	// queues mutated earlier in the same sweep.
	Workers int
	// Faults, when non-nil, arms the deterministic fault plan and the
	// recovery layer (see internal/faults and internal/network.Config).
	// Stall windows select a router by Index (node number, Stage ignored
	// via -1 or 0); memory slowdowns select the node's module by Index.
	Faults *faults.Plan
}

// fwdM is a request in flight: the rim's message plus the hop stamp that
// keeps it to one link per cycle.  Replies route by Src.
type fwdM struct {
	engine.Fwd
	moved int64 // last cycle this message hopped
}

type revM struct {
	rep   core.Reply
	dst   int // destination node (the requester)
	issue int64
	hot   bool
	moved int64
}

type hrec struct {
	core.Record
	dst2   int
	issue2 int64
	hot2   bool
	// reps2 names the second request's leaves so a node crash flushing
	// this record reports exactly which operations lost their reply path.
	reps2 []core.Leaf
}

type node struct {
	out  []core.FIFO[fwdM] // per-dimension forward queues (bounded)
	rout []core.FIFO[revM] // per-dimension reverse queues (credit-bounded)
	// memQ is the combining FIFO in front of the node's local memory —
	// the Section 7 suggestion: all dimensions' traffic for this node's
	// memory converges here, so this queue is where a hot spot combines
	// hardest.  Bounded by Config.MemQueueCap.
	memQ core.FIFO[fwdM]
	wait *core.WaitBuffer[hrec]
	// maxRev is the reverse-queue high-water mark across dimensions.
	maxRev int
}

// canAcceptRev is the reserved-credit acceptance check (the direct-machine
// twin of switchNode.canAcceptReply in internal/network): a reply may hop
// to this node only while every reverse queue sits below the base credit —
// all dimensions, because the fan-out after decombining is unknown until
// the wait buffer is consulted.  An accepted reply then appends its whole
// fan-out; leaves beyond the first consume wait records this node created,
// so occupancy stays ≤ revCap + wait-buffer capacity.
func (nd *node) canAcceptRev(revCap int) bool {
	if revCap <= 0 {
		return true
	}
	for dim := range nd.rout {
		if nd.rout[dim].Len() >= revCap {
			return false
		}
	}
	return true
}

// Stats summarizes a run: the rim's totals plus the direct fabric's own hop,
// hold and combine counters.
type Stats struct {
	engine.Totals

	Combines int64

	// FwdHops and RevHops count link traversals — the movement signature
	// the progress watchdog keys on.
	FwdHops, RevHops int64

	// Backpressure accounting (see internal/network.Stats): holds by the
	// reverse-credit check, by full memory combining queues, and of
	// module completions blocked on reverse credit.
	HoldsRev, HoldsMem, HoldsMemOut int64
}

// Sim is the cycle-driven direct-connection machine: the rim (processor
// ports, terminal links, memory modules, step frame — the embedded
// engine.Shell) around the store-and-forward routers.  A switch crash
// window (Index = node) kills the whole node — router queues, wait buffer,
// memory combining queue and the module; a memory crash window kills the
// module alone while the router keeps forwarding through traffic.
type Sim struct {
	engine.Shell

	cfg   Config
	topo  engine.Direct // the link structure; all routing lives here
	n, d  int           // node count and link degree
	nodes []node
	pol   core.Policy

	// stats holds the fabric's own counters (the rim's are in the Shell);
	// memQHW tracks the deepest per-node memory combining queue observed.
	stats  Stats
	memQHW stats.HighWater

	// Parallel memory-tick state (Config.Workers > 1, nil/empty
	// otherwise): worker pool (persistent workers bracketed by
	// Run/Drain), the tick function bound once at construction so the
	// cycle loop builds no closures, per-worker cache-line-padded stats
	// shards, and per-node delivery buffers replayed serially in node
	// order.  See DESIGN.md §6.
	pool     *par.Pool
	tickFn   func(w int)
	shards   []cubeShard
	delivBuf [][]revM
}

// cubeShard is one worker's slice of the memory-tick statistics, padded so
// adjacent shards in the contiguous slice never share a cache line.
type cubeShard struct {
	holdsMemOut int64
	rim         engine.Shard
	_           [64]byte
}

// Validate reports whether the configuration is usable, with the
// documented zero-value defaults applied first; all config policing
// funnels through the engine core's Spec path (NewSim panics with the
// same error).
func (c Config) Validate() error {
	return c.normalize()
}

// normalize applies the defaults in place and validates the result.
func (c *Config) normalize() error {
	spec := engine.Spec{
		Engine:  "hypercube",
		Procs:   c.Nodes,
		Field:   "Nodes",
		Banks:   1,
		Workers: c.Workers,
		Service: c.MemService,
		AdversarialSerial: c.Faults != nil && c.Faults.HasAdversarial() &&
			c.Workers > 1,
	}
	if c.Topology != nil {
		if c.Nodes == 0 {
			c.Nodes = c.Topology.Nodes()
			spec.Procs = c.Nodes
		}
		spec.MinProcs = 2
		spec.Topology = c.Topology
		spec.TopologySize = c.Topology.Nodes()
		spec.TopologyField = "node count"
	} else {
		spec.PowerOf = 2
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	deg := c.resolveTopology().Degree()
	if c.QueueCap == 0 {
		c.QueueCap = 4
	}
	if c.WatchdogCycles == 0 {
		c.WatchdogCycles = engine.DefaultWatchdogCycles
	}
	if c.MemService == 0 {
		c.MemService = 1
	}
	if c.MemQueueCap == 0 {
		c.MemQueueCap = deg * c.QueueCap
	}
	if c.RevQueueCap == 0 {
		c.RevQueueCap = deg * c.QueueCap
	}
	return nil
}

// resolveTopology returns the configured wiring, defaulting to the cube.
func (c Config) resolveTopology() engine.Direct {
	if c.Topology != nil {
		return c.Topology
	}
	return engine.CubeOf(c.Nodes)
}

// NewSim builds the machine with one injector per node.
func NewSim(cfg Config, inj []engine.Injector) *Sim {
	if err := cfg.normalize(); err != nil {
		panic(err)
	}
	if len(inj) != cfg.Nodes {
		panic(fmt.Sprintf("hypercube: got %d injectors for %d nodes", len(inj), cfg.Nodes))
	}
	topo := cfg.resolveTopology()
	n := cfg.Nodes
	d := topo.Degree()
	s := &Sim{
		cfg:  cfg,
		topo: topo,
		n:    n,
		d:    d,
		pol:  core.Policy{AllowReversal: cfg.AllowReversal},
	}
	if cfg.Workers > 1 {
		s.pool = par.NewPool(cfg.Workers)
		s.tickFn = s.tickWorker
		s.shards = make([]cubeShard, s.pool.Workers())
		s.delivBuf = make([][]revM, n)
	}
	s.nodes = make([]node, n)
	for i := range s.nodes {
		nd := &s.nodes[i]
		nd.out = make([]core.FIFO[fwdM], d)
		for dim := range nd.out {
			nd.out[dim] = core.NewFIFO[fwdM](cfg.QueueCap)
		}
		nd.rout = make([]core.FIFO[revM], d)
		nd.memQ = core.NewFIFO[fwdM](cfg.MemQueueCap)
		nd.wait = core.NewWaitBuffer[hrec](cfg.WaitBufCap)
	}
	s.Shell.Init(engine.ShellConfig{
		Engine: "hypercube",
		Hooks: engine.Hooks{
			Sweep: s.sweep,
			Flush: func(_, i int) []word.ReqID { return s.crashNode(i) },
			// The module is fed one request at a time, only when idle and
			// only by a live router.
			CanFeed: func(i int) bool {
				return !s.SwitchDead(0, i) && s.Memory().Module(i).QueueLen() == 0
			},
			Saturated: s.treeSaturated,
			Hops:      func() int64 { return s.stats.FwdHops + s.stats.RevHops },
			Queued:    s.queued,
			Detail:    s.stallDetail,
			Observe:   s.observe,
		},
		Injectors:      inj,
		Pool:           s.pool,
		Modules:        n,
		Service:        cfg.MemService,
		Stages:         1,
		Width:          n,
		WatchdogCycles: cfg.WatchdogCycles,
		Faults:         cfg.Faults,
	})
	return s
}

// homeOf returns the node owning an address.
func (s *Sim) homeOf(addr word.Addr) int { return s.Memory().HomeOf(addr) }

// Topology exposes the link structure the machine was built with.
func (s *Sim) Topology() engine.Direct { return s.topo }

// sweep is the fabric's share of one cycle.
func (s *Sim) sweep() {
	s.drainReverse()
	s.tickMemory()
	s.drainForward()
	s.injectAll()
}

// down reports whether node i's router moves nothing this cycle: stalled
// by a window, or crashed until its restart.
func (s *Sim) down(i int) bool { return s.SwitchStalled(0, i) || s.SwitchDead(0, i) }

// crashNode flushes node i's volatile router state and rolls its module
// back to the last checkpoint, returning every lost leaf id.
func (s *Sim) crashNode(i int) []word.ReqID {
	nd := &s.nodes[i]
	var ids []word.ReqID
	lostFwd := func(q *core.FIFO[fwdM]) {
		held := q.View()
		for j := range held {
			ids = engine.LostLeaves(ids, held[j].Req.Reps, held[j].Req.ID)
		}
		q.Clear()
	}
	for dim := 0; dim < s.d; dim++ {
		lostFwd(&nd.out[dim])
		held := nd.rout[dim].View()
		for j := range held {
			ids = engine.LostReply(ids, &held[j].rep)
		}
		nd.rout[dim].Clear()
	}
	lostFwd(&nd.memQ)
	for _, rec := range nd.wait.Flush() {
		ids = engine.LostLeaves(ids, rec.reps2, rec.ID2)
	}
	return append(ids, s.Memory().Module(i).Crash()...)
}

// treeSaturated reports whether hot-spot backpressure has propagated out of
// a memory queue into the routing network this cycle: some node's memory
// combining queue is full AND some forward dimension queue is full — the
// direct-machine analogue of the Omega network's every-stage-full test.
func (s *Sim) treeSaturated() bool {
	if s.cfg.MemQueueCap <= 0 || s.cfg.QueueCap <= 0 {
		return false
	}
	memFull, fwdFull := false, false
	for i := range s.nodes {
		nd := &s.nodes[i]
		if nd.memQ.Full() {
			memFull = true
		}
		for dim := 0; dim < s.d && !fwdFull; dim++ {
			fwdFull = nd.out[dim].Full()
		}
		if memFull && fwdFull {
			return true
		}
	}
	return false
}

// occupancy sums the router queues, memory combining queues and wait
// buffers over all nodes.
func (s *Sim) occupancy() (fwd, rev, memq, wait int) {
	for i := range s.nodes {
		nd := &s.nodes[i]
		for dim := 0; dim < s.d; dim++ {
			fwd += nd.out[dim].Len()
			rev += nd.rout[dim].Len()
		}
		memq += nd.memQ.Len()
		wait += nd.wait.Len()
	}
	return
}

func (s *Sim) queued() int {
	fwd, rev, memq, wait := s.occupancy()
	return fwd + rev + memq + wait
}

func (s *Sim) stallDetail() string {
	fwd, rev, memq, wait := s.occupancy()
	return fmt.Sprintf("fwd=%d rev=%d memq=%d wait=%d", fwd, rev, memq, wait)
}

// Stats snapshots the run counters.
func (s *Sim) Stats() Stats {
	st := s.stats
	st.Totals = s.Totals()
	return st
}

// observe adds the direct fabric's counters and gauges to a snapshot the
// rim has started.
func (s *Sim) observe(c *engine.Counters, gauges map[string]int64) {
	maxRev := 0
	for i := range s.nodes {
		nd := &s.nodes[i]
		c.CombineRejects += nd.wait.Rejections
		if nd.maxRev > maxRev {
			maxRev = nd.maxRev
		}
	}
	c.Combines = s.stats.Combines
	c.MemOps = s.Totals().MemRequests
	c.FwdHops, c.RevHops = s.stats.FwdHops, s.stats.RevHops
	c.HoldsRev, c.HoldsMem, c.HoldsMemOut = s.stats.HoldsRev, s.stats.HoldsMem, s.stats.HoldsMemOut
	gauges["memq_max"] = s.memQHW.Load()
	gauges["max_mem_queue"] = s.memQHW.Load()
	gauges["max_rev_queue"] = int64(maxRev)
}

// arriveFwd lands a request at node cur: into the memory combining queue
// when home, otherwise into the output queue of its next dimension,
// combining when possible.  Reports false when the target queue is full.
// m is the message where it waits — the head slot of a neighbor's link
// queue, or the processor port — and is only read: on acceptance it is
// copied once into node cur's slot and the caller pops it.
func (s *Sim) arriveFwd(cur int, m *engine.Fwd) bool {
	home := s.homeOf(m.Req.Addr)
	dim := s.topo.FwdLink(cur, home)
	nd := &s.nodes[cur]
	q := &nd.memQ
	if dim >= 0 {
		q = &nd.out[dim]
	}
	if q.Len() > 0 && s.tryCombine(nd, q, m) {
		return true
	}
	if q.Full() {
		if dim < 0 {
			// Full memory combining queue: the request stays in its
			// upstream dimension queue (or at the injection port) — the
			// hold that turns a hot node into backpressure instead of
			// unbounded memory-side buffering.  Combining above still
			// absorbs matching requests into the full queue.
			s.stats.HoldsMem++
		}
		return false
	}
	slot := q.Push()
	slot.Fwd, slot.moved = *m, s.Cycle()
	if dim < 0 {
		s.memQHW.Observe(int64(q.Len()))
	}
	return true
}

// tryCombine attempts to merge m into the non-empty queue q of node nd — the
// M2.3 scan shared with the other engines via core.CombineAtTail.
func (s *Sim) tryCombine(nd *node, q *core.FIFO[fwdM], m *engine.Fwd) bool {
	tc, rejected, ok := core.CombineAtTail(q.View(), fwdMReq, m.Req, s.pol, nd.wait.CanPush)
	if rejected {
		nd.wait.Rejections++
	}
	if !ok {
		return false
	}
	queued := &q.View()[tc.Index]
	first, second := &queued.Fwd, m
	if tc.Swapped {
		first, second = m, &queued.Fwd
	}
	if !nd.wait.Push(tc.Rec.ID1, hrec{
		Record: tc.Rec,
		dst2:   second.Src,
		issue2: second.Issue,
		hot2:   second.Hot,
		reps2:  second.Req.Reps,
	}) {
		return false
	}
	queued.Fwd = engine.Fwd{Req: tc.Combined, Src: first.Src, Issue: first.Issue, Hot: first.Hot}
	s.stats.Combines++
	return true
}

// fwdMReq projects a queued message to its request for the shared scan.
func fwdMReq(m *fwdM) *core.Request { return &m.Req }

// arriveRev lands a reply at node cur: decombine against the wait buffer,
// deliver when home, otherwise queue on the next reverse dimension.  The
// recursion never leaves node cur, so everything it touches is node-local
// except the home delivery itself — which, when sink is non-nil (parallel
// memory tick), is buffered there for the serial commit instead, because
// injectors, the retry ledger and completion stats are single-goroutine.
func (s *Sim) arriveRev(cur int, r *revM, sink *[]revM) {
	nd := &s.nodes[cur]
	if nd.wait.Len() > 0 && s.decombine(cur, r, sink) {
		return
	}
	dim := s.topo.RevLink(cur, r.dst)
	if dim < 0 {
		if sink != nil {
			*sink = append(*sink, *r)
			return
		}
		s.deliverHome(cur, r)
		return
	}
	q := &nd.rout[dim]
	slot := q.Push()
	*slot = *r
	slot.moved = s.Cycle()
	if n := q.Len(); n > nd.maxRev {
		nd.maxRev = n
	}
}

// decombine undoes the most recent combine recorded at node cur that reply r
// answers, if there is one, landing both replies it yields there.
func (s *Sim) decombine(cur int, r *revM, sink *[]revM) bool {
	match := func(h hrec) bool { return core.CanDecombine(h.Record, r.rep) }
	rec, ok := s.nodes[cur].wait.PopMatch(r.rep.ID, match)
	if !ok {
		return false
	}
	r1, r2 := core.DecombineExact(rec.Record, r.rep)
	s.arriveRev(cur, &revM{rep: r1, dst: r.dst, issue: r.issue, hot: r.hot}, sink)
	s.arriveRev(cur, &revM{rep: r2, dst: rec.dst2, issue: rec.issue2, hot: rec.hot2}, sink)
	return true
}

// deliverHome completes a reply at its requesting node: the
// router→processor handoff is the processor terminal link.
func (s *Sim) deliverHome(cur int, r *revM) {
	s.Deliver(faults.Site(3, cur, 0), cur, r.rep, r.issue, r.hot)
}

func (s *Sim) drainReverse() {
	cycle := s.Cycle()
	for i := range s.nodes {
		nd := &s.nodes[i]
		if s.down(i) {
			continue
		}
		for dim := 0; dim < s.d; dim++ {
			q := &nd.rout[dim]
			if q.Len() == 0 || q.Front().moved == cycle {
				continue
			}
			next := s.topo.Neighbor(i, dim)
			if s.SwitchDead(0, next) {
				// Dead downstream router: hold the reply so the crash costs
				// only the flushed state, not a stream of new losses.
				s.stats.HoldsRev++
				continue
			}
			if !s.nodes[next].canAcceptRev(s.cfg.RevQueueCap) {
				// Downstream reverse credits exhausted: hold the reply.
				// Reverse hops strictly descend in dimension and the last
				// hop delivers (always consumes), so held replies cannot
				// form a cycle.
				s.stats.HoldsRev++
				continue
			}
			r := q.Front()
			if !s.LinkDropsRev(1, next, dim, &r.rep) {
				s.stats.RevHops++
				s.arriveRev(next, r, nil)
			} // else the reply is lost on the reverse link
			q.Pop()
		}
	}
}

func (s *Sim) tickMemory() {
	if s.pool != nil {
		s.tickMemoryParallel()
		return
	}
	for i := 0; i < s.n; i++ {
		s.tickNode(i, &s.stats.HoldsMemOut, s.Own(), nil)
	}
}

// tickMemoryParallel shards the memory tick across the pool: every node's
// tick touches only that node's combining queue, metadata shard, module,
// wait buffer and reverse queues, so each node is its own conflict group.
// Home-node deliveries — the one non-local effect (injectors, the retry
// ledger and completion stats are shared) — buffer per node and replay
// serially in ascending node order, the serial sweep's order.
func (s *Sim) tickMemoryParallel() {
	s.pool.Run(s.tickFn)
	for i := 0; i < s.n; i++ {
		buf := s.delivBuf[i]
		for j := range buf {
			s.deliverHome(i, &buf[j])
		}
	}
	for i := range s.shards {
		sh := &s.shards[i]
		s.stats.HoldsMemOut += sh.holdsMemOut
		sh.holdsMemOut = 0
		s.Merge(&sh.rim)
	}
}

// tickWorker is the per-worker body of the parallel memory tick, bound to
// Sim.tickFn once at construction.
func (s *Sim) tickWorker(w int) {
	workers := s.pool.Workers()
	sh := &s.shards[w]
	lo, hi := par.Split(s.n, workers, w)
	for i := lo; i < hi; i++ {
		s.delivBuf[i] = s.delivBuf[i][:0]
		s.tickNode(i, &sh.holdsMemOut, &sh.rim, &s.delivBuf[i])
	}
}

// tickNode advances node i's memory one cycle: feed the module from the
// combining queue one request at a time (so requests stay combinable until
// the moment service starts), then emit a completed reply into the reverse
// path.  Counters accumulate through the pointers so parallel workers stay
// on their own shards; deliveries land in sink when non-nil.
func (s *Sim) tickNode(i int, holdsMemOut *int64, sh *engine.Shard, sink *[]revM) {
	if s.SwitchDead(0, i) {
		return // crashed node: no feed, no service, no emission
	}
	if !s.ModuleUp(i, sh) {
		return // crashed module: the router forwards, memory serves nothing
	}
	nd := &s.nodes[i]
	if !s.SwitchStalled(0, i) && nd.memQ.Len() > 0 && s.Memory().Module(i).QueueLen() == 0 {
		s.EnterMemory(faults.Site(2, i, 0), i, &nd.memQ.Front().Fwd, sh)
		nd.memQ.Pop()
	}
	if s.MemStalled(i) {
		return
	}
	if !nd.canAcceptRev(s.cfg.RevQueueCap) {
		// No reverse credit at this node: the module holds its
		// completion rather than emitting a reply with nowhere to go.
		*holdsMemOut++
		return
	}
	rep, m, ok := s.Serve(i, sh)
	if !ok {
		return
	}
	s.arriveRev(i, &revM{rep: rep, dst: m.Src, issue: m.Issue, hot: m.Hot}, sink)
}

func (s *Sim) drainForward() {
	cycle := s.Cycle()
	rot := int(cycle)
	for off := range s.nodes {
		i := (off + rot) % s.n
		nd := &s.nodes[i]
		if s.down(i) {
			continue
		}
		for dd := 0; dd < s.d; dd++ {
			dim := (dd + rot) % s.d
			q := &nd.out[dim]
			if q.Len() == 0 || q.Front().moved == cycle {
				continue
			}
			m := &q.Front().Fwd
			next := s.topo.Neighbor(i, dim)
			if s.SwitchDead(0, next) {
				continue // dead downstream router: hold the request here
			}
			if s.LinkDropsFwd(1, next, dim, &m.Req) {
				q.Pop()
				continue // request lost on the forward link
			}
			// next ≠ i, so landing the request cannot move the slot m is in.
			if s.arriveFwd(next, m) {
				s.stats.FwdHops++
				q.Pop()
			}
		}
	}
}

// injectAll offers each live node's request to its own router, in rotating
// order.  A dead router's processor port holds its traffic unasked.
func (s *Sim) injectAll() {
	rot := int(s.Cycle())
	for off := 0; off < s.n; off++ {
		i := (off + rot) % s.n
		if s.SwitchDead(0, i) {
			continue
		}
		m := s.Offer(i)
		if m == nil {
			continue
		}
		if flt := s.Faults(); flt != nil && flt.DropForward(faults.Site(0, i, 0), m.Req.ID, m.Req.Attempt) {
			s.Lost(i) // on the processor-to-router link
			continue
		}
		if s.arriveFwd(i, m) {
			s.Sent(i)
			s.stats.FwdHops++
		}
	}
}
