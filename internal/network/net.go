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
	// switchNode.canAcceptReply and DESIGN.md).  0 defaults to QueueCap;
	// negative means unbounded (the pre-flow-control behavior).
	RevQueueCap int
	// MemQueueCap bounds each memory module's input queue, including the
	// request in service; a full module holds the last network stage
	// instead of absorbing unbounded backlog.  0 defaults to QueueCap;
	// negative means unbounded.
	MemQueueCap int
	// WatchdogCycles is the progress watchdog limit: with work in flight
	// and no message movement for this many cycles the machine declares
	// livelock/deadlock (Stalled() reports it, soaks fail fast with a
	// replayable seed).  0 defaults to 10000 — comfortably above the
	// fault plans' capped retry backoff — and negative disables it.
	WatchdogCycles int64
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
	// MemService is the memory module service time in cycles (default 1).
	MemService int
	// Workers shards each cycle's switch, memory-module and delivery work
	// across this many goroutines (see internal/par and DESIGN.md §6).
	// 0 or 1 keep the single-threaded stepper.  Worker count is
	// unobservable in the simulation: every counter, histogram and reply
	// is byte-for-byte identical at any setting.  Tracing (Trace non-nil)
	// forces the serial stepper so event order stays the serial order.
	Workers int
	// Faults, when non-nil, arms the deterministic fault plan (see
	// internal/faults) and with it the full recovery layer: requests carry
	// representation leaves, memory modules keep reply caches, processors
	// retransmit on timeout with capped backoff, and duplicate replies are
	// suppressed at the ports.
	Faults *faults.Plan
	// Trace, when non-nil, observes every inject/combine/memory/
	// decombine/deliver event (see trace.go).  Tracing a long run is
	// expensive; it is meant for audits and walkthroughs.
	Trace func(Event)
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
		Engine:      "network",
		Procs:       c.Procs,
		PowerOf:     c.Radix,
		Banks:       1,
		Workers:     c.Workers,
		Service:     c.MemService,
		TraceSerial: c.Trace != nil && c.Workers > 1,
		AdversarialSerial: c.Faults != nil && c.Faults.HasAdversarial() &&
			c.Workers > 1,
	}
	if c.Topology != nil {
		spec.Topology = c.Topology
		spec.TopologySize = c.Topology.Procs()
		spec.TopologyField = "processor count"
	}
	if err := spec.Validate(); err != nil {
		return err
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
	if c.MemService == 0 {
		c.MemService = 1
	}
	if c.WatchdogCycles == 0 {
		c.WatchdogCycles = DefaultWatchdogCycles
	}
	return nil
}

// The port types and the watchdog default live with the rim in
// internal/engine; the aliases keep every caller of this package compiling
// unchanged.
type (
	Injection = engine.Injection
	Injector  = engine.Injector
)

const DefaultWatchdogCycles = engine.DefaultWatchdogCycles

// Stats aggregates one simulation run: the rim's totals plus the staged
// fabric's own hop, hold and combine counters.
type Stats struct {
	engine.Totals

	// Combines counts combine events across all switches; Rejects counts
	// combines refused because a wait buffer was full.
	Combines int64
	Rejects  int64

	// MaxOutQueue is the deepest forward queue observed; MaxRevQueue and
	// MaxMemQueue are the reverse-queue and memory-input high-water marks
	// the flow-control bounds are checked against.
	MaxOutQueue int
	MaxRevQueue int
	MaxMemQueue int

	// Backpressure accounting: HoldsRev counts replies held upstream by
	// the reserved-credit check, HoldsMem requests held at the last stage
	// by a full module, HoldsMemOut module completions held by a full
	// last-stage switch.
	HoldsRev, HoldsMem, HoldsMemOut int64

	// Latency is the round-trip histogram (cycles), recorded per
	// completion through the shared instrumentation subsystem.
	Latency stats.HistogramSnapshot

	// Traffic accounting (E11): link traversals and value slots moved,
	// in each direction.
	FwdHops, RevHops   int64
	FwdSlots, RevSlots int64
}

// Percentile returns the approximate q-quantile (0 < q ≤ 1) of the
// round-trip latency from the power-of-two histogram, interpolating
// within the bucket.
func (s Stats) Percentile(q float64) float64 { return s.Latency.Percentile(q) }

// Sim is the cycle-driven machine: the rim (processor ports, terminal
// links, memory modules, step frame — the embedded engine.Shell) around the
// forward and reverse staged network.
type Sim struct {
	engine.Shell

	cfg   Config
	topo  engine.Staged // the wiring; all routing arithmetic lives here
	n     int           // processors
	k     int           // stages
	radix int           // switch degree
	// wire is topo evaluated once: the sweeps index it instead of redoing
	// the wiring arithmetic for every message on every hop.
	wire *engine.StagedTables
	// stages[s] is column s of the network, its switches contiguous in
	// sweep order.
	stages [][]switchNode

	// pathFree recycles path headers (getPath/putPath): a reply's header
	// returns when it leaves stage 0, a request's when its offer is lost on
	// the port link.  Every array holds capacity for all k stages, so the appends
	// along the forward path never regrow one — the steady-state cycle
	// path allocates nothing.  Only single-goroutine phases touch it
	// (injection, worker-0 delivery commit).
	pathFree [][]uint8

	// stats holds the fabric's own counters; the rim's are in the Shell.
	stats Stats

	// Parallel stepper state (Config.Workers > 1, nil/empty otherwise):
	// the worker pool (persistent workers bracketed by Run/Drain), the
	// phase barrier, the phase function handed to the pool each cycle
	// (bound once at construction so the cycle loop allocates no
	// closures), one cache-line-padded stats shard per worker merged
	// serially after the phases, and the per-rotation-position stage-0
	// delivery buffers replayed in serial order by worker 0.  See
	// parallel.go and DESIGN.md §6.
	pool     *par.Pool
	bar      par.Barrier
	stepFn   func(w int)
	shards   []netShard
	delivBuf [][]delivery
	// Conflict-group partitions per stage, derived from the wiring at
	// construction (nil when serial); see engine.FwdGroups/RevGroups.
	fwdGroups [][][]int
	revGroups [][][]int
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
	n := cfg.Procs
	radix := cfg.Radix
	k := topo.Stages()
	pol := core.Policy{AllowReversal: cfg.AllowReversal}
	stages := make([][]switchNode, k)
	for s := range stages {
		stages[s] = make([]switchNode, n/radix)
		// The column's queues, contiguous in line order like its switches;
		// each switch takes its radix-wide window.
		outQ := make([]core.FIFO[fwdMsg], n)
		revQ := make([]core.FIFO[revMsg], n)
		for line := range outQ {
			outQ[line] = core.NewFIFO[fwdMsg](cfg.QueueCap)
		}
		for i := range stages[s] {
			lo, hi := i*radix, (i+1)*radix
			stages[s][i] = switchNode{
				stage:        s,
				index:        i,
				outQ:         outQ[lo:hi:hi],
				revQ:         revQ[lo:hi:hi],
				revCap:       cfg.RevQueueCap,
				wait:         *core.NewWaitBuffer[netRecord](cfg.WaitBufCap),
				pol:          pol,
				buggyForward: cfg.BuggyLoadForwarding,
			}
		}
	}
	s := &Sim{cfg: cfg, topo: topo, n: n, k: k, radix: radix, wire: engine.CompileStaged(topo), stages: stages}
	if cfg.Trace != nil {
		// Switches stamp no cycle of their own; the machine's clock is
		// the rim's.  Ports are traced by wrapping their injectors.
		trace := func(e Event) {
			e.Cycle = s.Cycle()
			cfg.Trace(e)
		}
		for _, stage := range stages {
			for i := range stage {
				stage[i].trace = trace
			}
		}
		inj = tracedPorts(inj, cfg.Trace)
	}
	// Validation rejected Workers > 1 with tracing on, so reaching here
	// with a pool means the serial fallback can no longer happen silently.
	if cfg.Workers > 1 {
		s.pool = par.NewPool(cfg.Workers)
		s.bar = par.NewBarrier(s.pool.Workers())
		s.stepFn = s.phaseWorker
		s.shards = make([]netShard, s.pool.Workers())
		s.delivBuf = make([][]delivery, n/radix)
		s.fwdGroups = make([][][]int, k)
		s.revGroups = make([][][]int, k)
		for st := 0; st+1 < k; st++ {
			s.fwdGroups[st] = engine.FwdGroups(topo, st)
		}
		for st := 1; st < k; st++ {
			s.revGroups[st] = engine.RevGroups(topo, st)
		}
	}
	s.Shell.Init(engine.ShellConfig{
		Engine: "network",
		Hooks: engine.Hooks{
			Sweep:     s.sweep,
			Flush:     func(stage, idx int) []word.ReqID { return s.stages[stage][idx].crash() },
			CanFeed:   func(mod int) bool { return s.Memory().Module(mod).CanEnqueue() },
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
		MemQueueCap:    cfg.MemQueueCap,
		Stages:         k,
		Width:          n / radix,
		WatchdogCycles: cfg.WatchdogCycles,
		Faults:         cfg.Faults,
	})
	return s
}

// Topology exposes the wiring the machine was built with.
func (s *Sim) Topology() engine.Staged { return s.topo }

// outPortFor selects the switch output port at a stage for the request's
// home module, by the topology's destination-tag routing rule.
func (s *Sim) outPortFor(stage int, addr word.Addr) int {
	return int(s.wire.OutPort[stage][s.destModule(addr)])
}

// destModule is the home module of an address.
func (s *Sim) destModule(addr word.Addr) int { return s.Memory().HomeOf(addr) }

// sweep is the fabric's share of one cycle: replies descend, modules tick,
// requests ascend, processors inject.
func (s *Sim) sweep() {
	if s.pool != nil {
		s.runPhases()
	} else {
		s.drainReverse()
		s.tickMemory()
		s.drainForward()
	}
	s.injectAll()
}

// down reports whether the switch at (stage, idx) moves nothing this cycle:
// blacked out by a stall window, or crashed until its restart.
func (s *Sim) down(stage, idx int) bool {
	return s.SwitchStalled(stage, idx) || s.SwitchDead(stage, idx)
}

// treeSaturated reports whether the queue tree is saturated end to end this
// cycle: every stage holds at least one forward queue at capacity.  A full
// queue at one stage is ordinary queueing; full queues at every stage mean
// hot-spot backpressure has propagated from the memory modules back to the
// injection ports — Pfister & Norton's tree saturation.
func (s *Sim) treeSaturated() bool {
	if s.cfg.QueueCap <= 0 {
		return false // unbounded queues never fill
	}
	for _, stage := range s.stages {
		full := false
		for i := range stage {
			sw := &stage[i]
			for port := 0; port < s.radix && !full; port++ {
				full = sw.outQ[port].Full()
			}
			if full {
				break
			}
		}
		if !full {
			return false
		}
	}
	return true
}

// stallDetail is the per-stage queue occupancy a stall report prints.
func (s *Sim) stallDetail() string {
	detail := ""
	for st, stage := range s.stages {
		fwd, rev, wait := 0, 0, 0
		for i := range stage {
			sw := &stage[i]
			for port := 0; port < s.radix; port++ {
				fwd += sw.outQ[port].Len()
				rev += sw.revQ[port].Len()
			}
			wait += sw.wait.Len()
		}
		detail += fmt.Sprintf("stage %d: fwd=%d rev=%d wait=%d\n", st, fwd, rev, wait)
	}
	memQ := 0
	for mod := 0; mod < s.n; mod++ {
		memQ += s.Memory().Module(mod).QueueLen()
	}
	return detail + fmt.Sprintf("memory queued=%d", memQ)
}

// queued counts messages and wait records held in the switches.
func (s *Sim) queued() int {
	n := 0
	for _, stage := range s.stages {
		for i := range stage {
			sw := &stage[i]
			for port := 0; port < s.radix; port++ {
				n += sw.outQ[port].Len() + sw.revQ[port].Len()
			}
			n += sw.wait.Len()
		}
	}
	return n
}

// drainReverse moves one reply per reverse link per cycle, destination side
// first so each reply advances at most one hop per cycle.  Switch and port
// order rotate with the cycle so contending streams share a downstream
// queue fairly (round-robin arbitration, as in real switches).
func (s *Sim) drainReverse() {
	rot := int(s.Cycle())
	ns := s.n / s.radix
	for i := 0; i < ns; i++ {
		s.revSwitch0((i+rot)%ns, &s.stats, nil)
	}
	for stage := 1; stage < s.k; stage++ {
		for i := 0; i < ns; i++ {
			s.revSwitch(stage, (i+rot)%ns, &s.stats)
		}
	}
}

// revSwitch0 makes the reverse move for one stage-0 switch: pop one reply
// per port and deliver it to its processor.  Stage 0 touches no other
// switch, so under the parallel stepper every stage-0 switch is its own
// conflict group; deliveries are appended to sink (when non-nil) for the
// serial replay instead of delivered inline, because injectors and the
// retry tracker are single-goroutine.
func (s *Sim) revSwitch0(idx int, st *Stats, sink *[]delivery) {
	if s.down(0, idx) {
		return
	}
	sw := &s.stages[0][idx]
	rot := int(s.Cycle())
	for pi := 0; pi < s.radix; pi++ {
		port := (pi + rot) % s.radix
		q := &sw.revQ[port]
		if q.Len() == 0 {
			continue
		}
		r := q.Front()
		if !s.LinkDropsRev(0, idx, port, &r.rep) {
			st.RevHops++
			st.RevSlots += int64(r.slots)
			proc := int(s.wire.LineProc[idx*s.radix+port])
			if sink != nil {
				*sink = append(*sink, delivery{proc: proc, r: *r})
			} else {
				s.deliver(proc, r)
			}
		} // else the reply is lost on the reverse link
		q.Pop()
	}
}

// deliver hands a reply that has left stage 0 to the processor terminal
// link.  Its path header is empty by now — stage 0 popped the last entry —
// and returns to the injection pool here, before the link can duplicate the
// reply: every copy the rim delivers is header-free.
func (s *Sim) deliver(proc int, r *revMsg) {
	s.putPath(r.path)
	s.Deliver(faults.Site(0, proc, 0), proc, r.rep, r.issueCycle, r.hot)
}

// revSwitch makes the reverse move for one switch of stage ≥ 1: pop one
// reply per port and hand it to the previous-stage switch when its reserved
// credits allow.  The previous-stage switches of stage-s switch idx are
// idx/radix + port·(n/radix²), so exactly the radix switches sharing
// idx/radix touch the same previous-stage set — the conflict groups the
// parallel stepper partitions on.
func (s *Sim) revSwitch(stage, idx int, st *Stats) {
	if s.down(stage, idx) {
		return
	}
	sw := &s.stages[stage][idx]
	wire := s.wire.Prev[stage][idx*s.radix:]
	rot := int(s.Cycle())
	for pi := 0; pi < s.radix; pi++ {
		port := (pi + rot) % s.radix
		q := &sw.revQ[port]
		if q.Len() == 0 {
			continue
		}
		prevIdx := int(wire[port].Switch)
		prev := &s.stages[stage-1][prevIdx]
		if s.SwitchDead(stage-1, prevIdx) {
			// Downstream switch is dead: hold the reply here so the crash
			// costs only the flushed state, not a stream of new losses.
			st.HoldsRev++
			continue
		}
		if !prev.canAcceptReply() {
			// Downstream reverse credits exhausted: hold the reply here.
			// Stage order is ascending, so the credits this pop would need
			// were already replenished this cycle if the downstream switch
			// moved anything.
			st.HoldsRev++
			continue
		}
		r := q.Front()
		if !s.LinkDropsRev(stage, idx, port, &r.rep) {
			st.RevHops++
			st.RevSlots += int64(r.slots)
			prev.acceptReply(r)
		} // else the reply is lost on the reverse link
		q.Pop()
	}
}

// tickMemory advances every module and feeds completed replies into the
// reverse side of the last stage.
func (s *Sim) tickMemory() {
	for b := 0; b < s.n/s.radix; b++ {
		s.tickModules(b, &s.stats, s.Own())
	}
}

// tickModules advances the radix modules behind last-stage switch b, in
// module order — one conflict group of the parallel stepper's memory phase.
func (s *Sim) tickModules(b int, st *Stats, sh *engine.Shard) {
	sw := &s.stages[s.k-1][b]
	for mod := b * s.radix; mod < (b+1)*s.radix; mod++ {
		s.tickModule(mod, sw, st, sh)
	}
}

// tickModule advances one module one cycle.  A module touches only its own
// metadata shard and sw, the last-stage switch mod/radix, so the radix
// modules behind one last-stage switch form a conflict group under the
// parallel stepper; the rim's counts go through sh so each worker's stay on
// its own shard.
func (s *Sim) tickModule(mod int, sw *switchNode, st *Stats, sh *engine.Shard) {
	if !s.ModuleUp(mod, sh) || s.MemStalled(mod) {
		return
	}
	if !sw.canAcceptReply() {
		// The last-stage switch has no reverse credit: the module's
		// output port is blocked, so it holds its completed request
		// rather than emitting a reply with nowhere to go.
		st.HoldsMemOut++
		return
	}
	rep, m, ok := s.Serve(mod, sh)
	if !ok {
		return
	}
	if sw.trace != nil {
		sw.trace(Event{Kind: EvMemServe, ID: rep.ID, Addr: m.Req.Addr, Stage: -1, Switch: mod})
	}
	sw.acceptReply(&revMsg{
		rep:        rep,
		path:       m.Path,
		issueCycle: m.Issue,
		hot:        m.Hot,
		slots:      boolSlots(rmw.NeedsValue(m.Req.Op)),
	})
}

// drainForward moves one request per forward link per cycle, memory side
// first, with round-robin switch/port arbitration as in drainReverse.
func (s *Sim) drainForward() {
	rot := int(s.Cycle())
	ns := s.n / s.radix
	for stage := s.k - 1; stage >= 0; stage-- {
		for i := 0; i < ns; i++ {
			s.fwdSwitch(stage, (i+rot)%ns, &s.stats, s.Own())
		}
	}
}

// fwdSwitch makes the forward move for one switch: one request per output
// port, into the memory modules (last stage) or the next stage.  A
// last-stage switch touches only its own radix modules and their metadata
// shards — no cross-switch sharing; an earlier-stage switch idx feeds the
// next-stage switches (idx mod n/radix²)·radix + port, so exactly the radix
// switches congruent mod n/radix² share a next-stage set — the strided
// conflict groups the parallel stepper partitions on.
func (s *Sim) fwdSwitch(stage, idx int, st *Stats, sh *engine.Shard) {
	if s.down(stage, idx) {
		return
	}
	sw := &s.stages[stage][idx]
	last := stage == s.k-1
	var wire []engine.Hop
	if !last {
		wire = s.wire.Next[stage][idx*s.radix:]
	}
	rot := int(s.Cycle())
	for pi := 0; pi < s.radix; pi++ {
		port := (pi + rot) % s.radix
		q := &sw.outQ[port]
		if q.Len() == 0 {
			continue
		}
		m := q.Front()
		if last {
			outLine := idx*s.radix + port
			// The link into module outLine.  A dead module was flushed
			// once at its crash and is fed nothing new; a full one holds
			// the request in the switch — the backpressure that turns a
			// hot module into tree saturation instead of unbounded
			// memory-side buffering.
			if s.ModuleDead(outLine) || !s.Memory().Module(outLine).CanEnqueue() {
				st.HoldsMem++
				continue
			}
			if !s.LinkDropsFwd(s.k, outLine, 0, &m.Req) {
				st.FwdHops++
				st.FwdSlots += int64(core.ValueSlots(m.Req.Op))
				s.EnterMemory(faults.Site(s.k, outLine, 0), outLine, m, sh)
			} // else the request is lost on the memory link
			q.Pop()
			continue
		}
		nextIdx, nextPort := int(wire[port].Switch), int(wire[port].Port)
		if s.SwitchDead(stage+1, nextIdx) {
			continue // dead downstream switch: hold the request here
		}
		if s.LinkDropsFwd(stage+1, nextIdx, nextPort, &m.Req) {
			q.Pop()
			continue // request lost on the inter-stage link
		}
		if s.stages[stage+1][nextIdx].tryAccept(m, s.outPortFor(stage+1, m.Req.Addr), uint8(nextPort), st) {
			st.FwdHops++
			st.FwdSlots += int64(core.ValueSlots(m.Req.Op))
			q.Pop()
		}
	}
}

// getPath returns an empty path header with capacity for all k stages,
// reusing recycled storage: at steady state the inject→deliver loop cycles
// a fixed set of arrays and allocates nothing.
func (s *Sim) getPath() []uint8 {
	if n := len(s.pathFree); n > 0 {
		p := s.pathFree[n-1]
		s.pathFree = s.pathFree[:n-1]
		return p
	}
	return make([]uint8, 0, s.k)
}

// putPath recycles a path header whose message left the machine.
// Undersized arrays (grown by append on messages that entered without a
// pooled header) are dropped so getPath's capacity guarantee holds.
func (s *Sim) putPath(p []uint8) {
	if cap(p) < s.k {
		return
	}
	s.pathFree = append(s.pathFree, p[:0])
}

// injectAll offers each processor's request to stage 0, in rotating order
// so no processor port permanently outranks another.  The offer gets its
// path header here and keeps it at the port while it waits (a dead stage-0
// switch or a full queue holds it); a lost offer's header never entered the
// network and recycles at once.
func (s *Sim) injectAll() {
	rot := int(s.Cycle())
	for i := 0; i < s.n; i++ {
		s.inject((i + rot) % s.n)
	}
}

// inject offers processor proc's request, if it has one, to its stage-0
// switch.
func (s *Sim) inject(proc int) {
	m := s.Offer(proc)
	if m == nil {
		return
	}
	idx, port := int(s.wire.ProcLine[proc].Switch), int(s.wire.ProcLine[proc].Port)
	if s.SwitchDead(0, idx) {
		return
	}
	if m.Path == nil {
		m.Path = s.getPath()
	}
	if s.LinkDropsFwd(0, idx, port, &m.Req) {
		s.putPath(m.Path)
		s.Lost(proc) // on the processor-to-stage-0 link
		return
	}
	if s.stages[0][idx].tryAccept(m, s.outPortFor(0, m.Req.Addr), uint8(port), &s.stats) {
		s.stats.FwdHops++
		s.stats.FwdSlots += int64(core.ValueSlots(m.Req.Op))
		s.Sent(proc)
	}
}

// fabricStats folds the per-switch counters into the fabric's own half of
// the run statistics.
func (s *Sim) fabricStats() Stats {
	st := s.stats
	for _, stage := range s.stages {
		for i := range stage {
			sw := &stage[i]
			st.Rejects += sw.wait.Rejections
			if sw.maxRev > st.MaxRevQueue {
				st.MaxRevQueue = sw.maxRev
			}
		}
	}
	st.MaxMemQueue = s.Memory().MaxQueueDepth()
	return st
}

// Stats snapshots the run statistics.
func (s *Sim) Stats() Stats {
	st := s.fabricStats()
	st.Totals = s.Totals()
	st.Latency = s.Latency()
	return st
}

// observe adds the staged fabric's counters and gauges to a snapshot the
// rim has started.
func (s *Sim) observe(c *engine.Counters, gauges map[string]int64) {
	st := s.fabricStats()
	tot := s.Totals()
	c.Combines = st.Combines
	c.CombineRejects = st.Rejects
	c.FwdHops, c.RevHops = st.FwdHops, st.RevHops
	c.FwdSlots, c.RevSlots = st.FwdSlots, st.RevSlots
	c.MemRequests, c.MemAcks = tot.MemRequests, tot.MemAcks
	c.HoldsRev, c.HoldsMem, c.HoldsMemOut = st.HoldsRev, st.HoldsMem, st.HoldsMemOut
	gauges["max_out_queue"] = int64(st.MaxOutQueue)
	gauges["max_rev_queue"] = int64(st.MaxRevQueue)
	gauges["max_mem_queue"] = int64(st.MaxMemQueue)
}
