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
//
// A node is an engine.Station and a hop an engine.Shell method, the same ones
// the staged network and the bus run on; what this package keeps is the
// direct wiring's schedule — reverse, feed-then-tick per node, forward,
// inject, under the hops' one-link-per-cycle stamp — and its configuration.
// The wiring arithmetic is compiled once (engine.CompileDirect); no sweep
// calls it.
package hypercube

import (
	"fmt"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/par"
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
	// WaitBufCap bounds each node's wait buffer (0 disables combining).
	WaitBufCap int
	// AllowReversal enables the Section 5.1 optimization.
	AllowReversal bool
	// Workers shards the memory-tick phase of each cycle — module service,
	// metadata, decombining, all node-local — across this many goroutines
	// (see internal/par and DESIGN.md §6.1); 0 and 1 mean one.  Output is
	// byte-for-byte identical at any width, under every fault plan.  The
	// forward and reverse drains stay on the stepping goroutine: their
	// credit checks read neighbor queues mutated earlier in the same sweep.
	Workers int
	// Faults, when non-nil, arms the deterministic fault plan and the
	// recovery layer (see internal/faults and internal/network.Config).
	// Stall windows select a router by Index (node number, Stage ignored
	// via -1 or 0); memory slowdowns select the node's module by Index.
	Faults *faults.Plan
	// Trace, when non-nil, observes every event of every cycle
	// (engine.ShellConfig.Trace), as network.Config.Trace does.
	Trace func(engine.Event)
}

// Sim is the cycle-driven direct-connection machine: the shared shell
// (processor ports, terminal links, memory modules, step frame, stations and
// hops — the embedded engine.Shell) under a store-and-forward schedule.
// Node i is station i: a forward and a reverse queue per link, and forward
// queue d — the combining FIFO in front of the node's local memory, the
// Section 7 suggestion: all links' traffic for this node's memory converges
// there, so that queue is where a hot spot combines hardest (bounded by
// Config.MemQueueCap).  A switch crash window (Index = node) kills the whole
// node — router queues, wait buffer, memory combining queue and the module;
// a memory crash window kills the module alone while the router keeps
// forwarding through traffic.
type Sim struct {
	engine.Shell

	cfg  Config
	topo engine.Direct // the link structure; compiled into the shell's Links
	n, d int           // node count and link degree

	// The memory-tick phase: the worker pool (Config.Workers wide,
	// persistent workers bracketed by Run/Drain) and the tick function,
	// bound once at construction so the cycle loop builds no closures.  See
	// DESIGN.md §6.1.
	pool   *par.Pool
	tickFn func(w int)
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
	s := &Sim{cfg: cfg, topo: topo, n: cfg.Nodes, d: topo.Degree(), pool: par.NewPool(cfg.Workers)}
	s.tickFn = s.tickWorker
	nodes := engine.NewStations(s.n, s.d+1, s.d, cfg.QueueCap, cfg.RevQueueCap, cfg.WaitBufCap,
		core.Policy{AllowReversal: cfg.AllowReversal})
	for i := 0; i < s.n; i++ {
		nodes.Fwd(i)[s.d] = core.NewFIFO[engine.FwdEntry](cfg.MemQueueCap)
	}
	s.Shell.Init(engine.ShellConfig{
		Engine: "hypercube",
		Hooks: engine.Hooks{
			Sweep: s.sweep,
			// The module is fed one request at a time, only when idle and
			// only by a live router.
			CanFeed:   func(i int) bool { return !s.Dead(i) && s.Memory().Module(i).QueueLen() == 0 },
			Saturated: s.treeSaturated,
			Observe:   s.observe,
		},
		Injectors: inj,
		Pool:      s.pool,
		Modules:   s.n,
		Service:   1,
		Stations:  nodes,
		Links:     engine.CompileDirect(topo),
		Stages:    1,
		Faults:    cfg.Faults,
		Trace:     cfg.Trace,
	})
	return s
}

// Topology exposes the link structure the machine was built with.
func (s *Sim) Topology() engine.Direct { return s.topo }

// sweep is the direct machine's schedule.  Stations are visited in an order
// that has nothing to do with where messages are going, so what keeps a
// message to one link per cycle is the stamp the hops check, not the order.
func (s *Sim) sweep() {
	ln := s.Lane(0)
	// Replies first, nodes and links in plain order.  Reverse hops strictly
	// descend in dimension and the last one delivers (always consumes), so
	// held replies cannot form a cycle.
	for i := 0; i < s.n; i++ {
		s.RevHop(i, 0, ln)
	}
	// Memory: every node's feed and tick touch only that node's station,
	// metadata shard, limbo and module, so each node is its own conflict
	// group and each of the pool's workers takes a contiguous range of them.
	s.pool.Run(s.tickFn)
	// Requests, nodes and links in rotating order.
	node0, link0 := s.Turn(s.n), s.Turn(s.d)
	for i, node := 0, node0; i < s.n; i, node = i+1, engine.Next(node, s.n) {
		s.FwdHop(node, link0, ln)
	}
	// Deliveries, then injection.  A dead node's processor is dead with it:
	// its port is not asked.
	s.Commit()
	for i, node := 0, node0; i < s.n; i, node = i+1, engine.Next(node, s.n) {
		if !s.Dead(node) {
			s.Inject(node)
		}
	}
}

// tickWorker is the per-worker body of the memory tick, bound to Sim.tickFn
// once at construction.
func (s *Sim) tickWorker(w int) {
	lo, hi := par.Split(s.n, s.pool.Workers(), w)
	for i := lo; i < hi; i++ {
		s.tickNode(i, s.Lane(w))
	}
}

// tickNode advances node i's memory one cycle: feed the module from the
// combining queue one request at a time (so requests stay combinable until
// the moment service starts), then tick it.  The queue-to-module handoff is
// inside the node — no link to lose a message on, no hop to count.
func (s *Sim) tickNode(i int, ln *engine.Lane) {
	if s.Dead(i) {
		return // crashed node: no feed, no service, no emission
	}
	if !s.Down(i) && s.Stations().Fwd(i)[s.d].Len() > 0 && s.MemReady(i) {
		s.Feed(i, s.d, i, faults.Site(2, i, 0), ln)
	}
	s.Tick(i, i, ln)
}

// treeSaturated reports whether hot-spot backpressure has propagated out of
// a memory queue into the routing network this cycle: some node's memory
// combining queue is full AND some forward link queue is full — the
// direct-machine analogue of the Omega network's every-stage-full test.
func (s *Sim) treeSaturated() bool {
	if s.cfg.MemQueueCap <= 0 || s.cfg.QueueCap <= 0 {
		return false
	}
	memFull, fwdFull := false, false
	for i := 0; i < s.n; i++ {
		out := s.Stations().Fwd(i)
		memFull = memFull || out[s.d].Full()
		for dim := 0; dim < s.d && !fwdFull; dim++ {
			fwdFull = out[dim].Full()
		}
		if memFull && fwdFull {
			return true
		}
	}
	return false
}

// observe names the direct machine's counters and gauges in a snapshot the
// shell has started.  Its hop, hold and combine counters are the shared
// ones (engine.Totals): FwdHops and RevHops count link traversals, HoldsRev
// replies held by the reverse-credit check, HoldsMem arrivals refused by a
// full memory combining queue, HoldsMemOut module completions blocked on
// reverse credit.
func (s *Sim) observe(c *engine.Counters, gauges map[string]int64) {
	t := s.Totals()
	c.MemOps = t.MemRequests
	c.FwdHops, c.RevHops = t.FwdHops, t.RevHops
	memQ, maxRev := 0, 0
	nodes := s.Stations()
	for i := 0; i < s.n; i++ {
		memQ = max(memQ, nodes.Fwd(i)[s.d].Peak())
		maxRev = max(maxRev, nodes.MaxRev(i))
	}
	gauges["memq_max"] = int64(memQ)
	gauges["max_mem_queue"] = int64(memQ)
	gauges["max_rev_queue"] = int64(maxRev)
}
