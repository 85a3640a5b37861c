// Package network implements a cycle-accurate simulator of the
// packet-switched multistage interconnection network of Section 4: an
// Omega (shuffle-exchange) network of 2×2 combining switches connecting N
// processors to N interleaved memory modules.
//
// The simulator realizes the paper's assumptions directly:
//
//   - packet switching, with bounded FIFO output queues per switch port;
//   - non-overtaking links (queues preserve order);
//   - replies retrace the request path in reverse, using a path header the
//     request builds as it ascends (Section 4.1);
//   - combining at switch output queues, with a bounded wait buffer per
//     switch (partial combining when full — always correct, Section 7).
//
// A switch is an engine.Station and a hop an engine.Shell method; what this
// package keeps is the staged wiring's schedule — the order in which the
// columns hop in a cycle, as barrier-separated phases over conflict groups
// that one worker or several run (parallel.go) — its configuration, the
// switch that turns the shell's event trace on (Config.Trace), and the
// Section 5.1 ablation.
//
// It is the instrument for the hot-spot experiments (E8, E9, A1): the
// phenomena of Pfister & Norton [20] — bandwidth collapse toward the
// single-module limit and tree saturation delaying even non-hot traffic —
// emerge from the queueing model, and combining removes them.
package network

import (
	"fmt"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/par"
	"combining/internal/rmw"
	"combining/internal/stats"
	"combining/internal/word"
)

// Config parameterizes a simulated machine: N processors, a staged network
// of log_k N columns of k×k combining switches, and N interleaved memory
// modules.  The wiring between columns comes from Topology (omega by
// default); everything else — switches, queues, flow control, faults, the
// parallel stepper — is wiring-independent.
type Config struct {
	// Topology selects the inter-stage wiring (engine.OmegaOf,
	// engine.FatTreeOf, ...).  nil means the paper's omega network.  When
	// set, Procs and Radix may be left 0 to adopt the topology's, and must
	// agree with it otherwise.
	Topology engine.Staged
	// Procs is N, a power of Radix ≥ Radix.
	Procs int
	// Radix is the switch degree k (default 2, the paper's concrete
	// design; 4 or 8 trade stages for per-switch contention).
	Radix int
	// QueueCap bounds each switch forward output queue; this finite
	// buffering is what produces tree saturation under hot spots.
	// Values < 0 mean unbounded.  Default 4.
	QueueCap int
	// RevQueueCap is the per-port base credit of each switch reverse
	// queue: replies are admitted only while every port sits below it, and
	// wait-buffer records then act as reserved credits for the decombining
	// fan-out (per-port occupancy ≤ RevQueueCap + WaitBufCap — see
	// engine.Stations.CanAcceptRev and DESIGN.md).  0 defaults to QueueCap;
	// negative means unbounded (the pre-flow-control behavior).
	RevQueueCap int
	// MemQueueCap bounds each memory module's input queue, including the
	// request in service; a full module holds the last network stage
	// instead of absorbing unbounded backlog.  0 defaults to QueueCap;
	// negative means unbounded.
	MemQueueCap int
	// WaitBufCap bounds each switch's wait buffer: 0 disables combining
	// entirely, core.Unbounded removes the limit, and small positive
	// values give partial combining (ablation A1).
	WaitBufCap int
	// AllowReversal enables the Section 5.1 order-reversal optimization.
	AllowReversal bool
	// BuggyLoadForwarding enables the *incorrect* optimization Section
	// 5.1 warns against: when a load meets a queued store to the same
	// address, the load is answered immediately with the store's value
	// while the store continues to memory.  The load can then be
	// satisfied before the store occurs in memory, breaking
	// serializability; experiment E3 demonstrates the failure.
	BuggyLoadForwarding bool
	// Workers shards each cycle's switch, memory-module and delivery work
	// across this many goroutines (see internal/par and DESIGN.md §6.1);
	// 0 and 1 run the same phases on the stepping goroutine alone.  Worker
	// count is unobservable in the simulation, under every fault plan:
	// every counter, histogram, reply and trace event is byte-for-byte
	// identical at any setting.
	Workers int
	// Faults, when non-nil, arms the deterministic fault plan (see
	// internal/faults) and with it the full recovery layer: requests carry
	// representation leaves, memory modules keep reply caches, processors
	// retransmit on timeout with capped backoff, and duplicate replies are
	// suppressed at the ports.
	Faults *faults.Plan
	// Trace, when non-nil, observes every inject/combine/reject/memory/
	// decombine/deliver event (engine.ShellConfig.Trace): a cycle's events
	// arrive after its sweep, the ports' first, then each switch's in
	// switch order, stage by stage.  Tracing a long run is expensive; it is
	// meant for audits and walkthroughs.
	Trace func(engine.Event)
}

// Validate reports whether the configuration is usable, with the
// documented zero-value defaults applied first.  All config policing
// funnels through the engine core's one Spec path; NewSim panics with the
// same error, so commands call Validate first and turn it into a one-line
// exit instead of a stack trace.
func (c Config) Validate() error {
	return c.normalize()
}

// normalize applies the defaults in place and validates the result.
func (c *Config) normalize() error {
	if c.Topology != nil {
		if c.Radix == 0 {
			c.Radix = c.Topology.Radix()
		}
		if c.Procs == 0 {
			c.Procs = c.Topology.Procs()
		}
	}
	if c.Radix == 0 {
		c.Radix = 2
	}
	if c.Radix < 2 {
		return fmt.Errorf("network: Radix must be >= 2, got %d", c.Radix)
	}
	spec := engine.Spec{
		Engine:  "network",
		Procs:   c.Procs,
		PowerOf: c.Radix,
		Banks:   1,
		Workers: c.Workers,
	}
	if c.Topology != nil {
		spec.Topology = c.Topology
		spec.TopologySize = c.Topology.Procs()
		spec.TopologyField = "processor count"
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if c.Topology == nil {
		if err := engine.OmegaOf(c.Procs, c.Radix).Validate(); err != nil {
			return fmt.Errorf("network: %w", err)
		}
	}
	if c.Topology != nil && c.Radix != c.Topology.Radix() {
		return fmt.Errorf("network: Radix %d disagrees with the topology's radix (%d)",
			c.Radix, c.Topology.Radix())
	}
	if c.QueueCap == 0 {
		c.QueueCap = 4
	}
	if c.RevQueueCap == 0 {
		c.RevQueueCap = c.QueueCap
	}
	if c.MemQueueCap == 0 {
		c.MemQueueCap = c.QueueCap
	}
	return nil
}

// The port types live with the shell in internal/engine; the aliases keep
// every caller of this package compiling unchanged.
type (
	Injection = engine.Injection
	Injector  = engine.Injector
)

// Stats aggregates one simulation run: the shared totals — combines, link
// traversals and value slots in each direction (E11), the three kinds of
// backpressure hold — plus the staged network's gauges.
type Stats struct {
	engine.Totals

	// Rejects counts combines refused because a wait buffer was full.
	Rejects int64

	// MaxOutQueue is the deepest forward queue observed; MaxRevQueue and
	// MaxMemQueue are the reverse-queue and memory-input high-water marks
	// the flow-control bounds are checked against.
	MaxOutQueue int
	MaxRevQueue int
	MaxMemQueue int

	// Latency is the round-trip histogram (cycles), recorded per
	// completion through the shared instrumentation subsystem.
	Latency stats.HistogramSnapshot
}

// Percentile returns the approximate q-quantile (0 < q ≤ 1) of the
// round-trip latency from the power-of-two histogram, interpolating
// within the bucket.
func (s Stats) Percentile(q float64) float64 { return s.Latency.Percentile(q) }

// Sim is the cycle-driven machine: the shared shell (processor ports,
// terminal links, memory modules, step frame, stations and hops — the
// embedded engine.Shell) under the staged network's schedule.  Switch
// (stage, i) is station stage·ns + i.
type Sim struct {
	engine.Shell

	cfg  Config
	topo engine.Staged // the wiring; compiled into the shell's Links
	n    int           // processors
	k    int           // stages
	ns   int           // switches per stage

	// The stepper: the worker pool (Config.Workers wide, persistent
	// workers bracketed by Run/Drain), the phase barrier, the phase
	// function handed to the pool each cycle (bound once at construction so
	// the cycle loop allocates no closures), and the switch lists —
	// fwdList[w·k+stage] and revList[w·k+stage] are the switches of that
	// stage worker w hops in its forward and reverse phase, ascending.  See
	// parallel.go and DESIGN.md §6.1.
	pool             *par.Pool
	bar              par.Barrier
	stepFn           func(w int)
	fwdList, revList [][]int32
}

// NewSim builds a machine; injectors must supply exactly cfg.Procs entries.
func NewSim(cfg Config, inj []Injector) *Sim {
	if err := cfg.normalize(); err != nil {
		panic(err)
	}
	if len(inj) != cfg.Procs {
		panic(fmt.Sprintf("network: got %d injectors for %d processors", len(inj), cfg.Procs))
	}
	topo := cfg.Topology
	if topo == nil {
		topo = engine.OmegaOf(cfg.Procs, cfg.Radix)
	}
	n, k := cfg.Procs, topo.Stages()
	s := &Sim{cfg: cfg, topo: topo, n: n, k: k, ns: n / cfg.Radix}
	switches := engine.NewStations(k*s.ns, cfg.Radix, cfg.Radix, cfg.QueueCap, cfg.RevQueueCap,
		cfg.WaitBufCap, core.Policy{AllowReversal: cfg.AllowReversal})
	if cfg.BuggyLoadForwarding {
		switches.Intercept = forwardLoad
	}
	s.pool = par.NewPool(cfg.Workers)
	s.bar = par.NewBarrier(s.pool.Workers())
	s.stepFn = s.phaseWorker
	s.fwdList, s.revList = switchLists(topo, s.pool.Workers())
	s.Shell.Init(engine.ShellConfig{
		Engine:      "network",
		Hooks:       engine.Hooks{Sweep: s.sweep, CanFeed: s.RoomInModule, Saturated: s.treeSaturated, Observe: s.observe},
		Injectors:   inj,
		Pool:        s.pool,
		Modules:     n,
		Service:     1,
		MemQueueCap: cfg.MemQueueCap,
		Stations:    switches,
		Links:       engine.CompileStaged(topo),
		Stages:      k,
		Faults:      cfg.Faults,
		Trace:       cfg.Trace,
	})
	return s
}

// Topology exposes the wiring the machine was built with.
func (s *Sim) Topology() engine.Staged { return s.topo }

// forwardLoad is the *incorrect* optimization Section 5.1 warns against
// (Config.BuggyLoadForwarding), as a station's Intercept hook: a load that
// meets a queued store to its address is answered NOW with the store's
// value, while the store is still on its way to memory.  The synthesized
// reply descends from this switch along the load's path, written into the
// load's body.
func forwardLoad(sw *engine.Stations, at, out int, e engine.FwdEntry, path engine.Path, now uint32) bool {
	m := sw.Body(e.H)
	if _, isLoad := m.Req.Op.(rmw.Load); !isLoad {
		return false
	}
	for _, queued := range sw.Fwd(at)[out].View() {
		if queued.Addr != e.Addr {
			continue
		}
		if c, isConst := sw.Body(queued.H).Req.Op.(rmw.Const); isConst {
			m.SetReply(core.Reply{ID: m.Req.ID, Val: word.W(c.V)})
			sw.AcceptRev(at, &engine.RevEntry{ID: m.Req.ID, Path: path, H: e.H, Src: m.Src, Valued: true},
				now, nil) // never home: the path is not spent
			return true
		}
	}
	return false
}

// sweep is the staged network's schedule: replies descend, destination side
// first; modules tick; requests ascend, memory side first (the pool's
// phases, phaseWorker); processors inject.  Station order within a column
// rotates with the cycle so contending streams share a downstream queue
// fairly (round-robin arbitration, as in real switches).  Column order alone
// keeps every message to one hop per cycle here; the hops' stamps agree
// with it.
func (s *Sim) sweep() {
	s.pool.Run(s.stepFn)
	for i, p := 0, s.Turn(s.n); i < s.n; i, p = i+1, engine.Next(p, s.n) {
		s.Inject(p)
	}
}

// memSwitch is the last-stage switch whose output line is wired to module
// mod: its replies enter the network there.
func (s *Sim) memSwitch(mod int) int { return (s.k-1)*s.ns + mod/s.cfg.Radix }

// treeSaturated reports whether the queue tree is saturated end to end this
// cycle: every stage holds at least one forward queue at capacity.  A full
// queue at one stage is ordinary queueing; full queues at every stage mean
// hot-spot backpressure has propagated from the memory modules back to the
// injection ports — Pfister & Norton's tree saturation.
func (s *Sim) treeSaturated() bool {
	if s.cfg.QueueCap <= 0 {
		return false // unbounded queues never fill
	}
	for stage := 0; stage < s.k; stage++ {
		full := false
		for i := stage * s.ns; i < (stage+1)*s.ns && !full; i++ {
			out := s.Stations().Fwd(i)
			for port := 0; port < len(out) && !full; port++ {
				full = out[port].Full()
			}
		}
		if !full {
			return false
		}
	}
	return true
}

// Stats snapshots the run statistics, folding the per-switch gauges in.
func (s *Sim) Stats() Stats {
	st := Stats{Totals: s.Totals(), Latency: s.Latency(), MaxMemQueue: s.Memory().MaxQueueDepth()}
	sws := s.Stations()
	for at := 0; at < s.k*s.ns; at++ {
		st.Rejects += sws.Wait[at].Rejections
		st.MaxRevQueue = max(st.MaxRevQueue, sws.MaxRev(at))
		out := sws.Fwd(at)
		for port := range out {
			st.MaxOutQueue = max(st.MaxOutQueue, out[port].Peak())
		}
	}
	return st
}

// observe names the staged network's counters and gauges in a snapshot the
// shell has started.
func (s *Sim) observe(c *engine.Counters, gauges map[string]int64) {
	st := s.Stats()
	c.FwdHops, c.RevHops = st.FwdHops, st.RevHops
	c.FwdSlots, c.RevSlots = st.FwdSlots, st.RevSlots
	c.MemRequests, c.MemAcks = st.MemRequests, st.MemAcks
	gauges["max_out_queue"] = int64(st.MaxOutQueue)
	gauges["max_rev_queue"] = int64(st.MaxRevQueue)
	gauges["max_mem_queue"] = int64(st.MaxMemQueue)
}
