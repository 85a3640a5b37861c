package engine

import (
	"fmt"

	"combining/internal/core"
	"combining/internal/faults"
	"combining/internal/memory"
	"combining/internal/par"
	"combining/internal/stats"
	"combining/internal/word"
)

// Injection is one request offered by an injector, tagged for metrics.
type Injection struct {
	Req core.Request
	Hot bool
	// UntilReply, returned with ok=false, says the answer stays no until a
	// reply reaches this port (Injector.Next).
	UntilReply bool
}

// Injector supplies traffic for one processor port and consumes replies.
//
// One injector's calls never overlap: the shell calls Next and Deliver of a
// port from one goroutine at a time.  Injectors of different ports may be
// called at the same time — on any staged machine at Workers > 1 each
// worker serves the ports of its own stage-0 switches — so an injector
// must not share mutable state with another port's injector (an id
// generator, a counter, a random source, a timer) unless it synchronizes
// that state itself; word.Partition gives each port an id space of its
// own.
type Injector interface {
	// Next offers the next request at the given cycle.  ok=false means
	// the processor has nothing to issue this cycle.  A request returned
	// by Next is guaranteed to be injected (possibly stalled for queue
	// space first); Next is not called again until then.
	//
	// With ok=false an injector may set UntilReply when only a Deliver to
	// this port can change its answer — a window of outstanding requests
	// that is full, a fence or a data dependency waiting on a reply — and
	// the call changed nothing it holds.  The shell then does not call
	// Next again before the next Deliver to this port, so no answer that
	// depends on the cycle, or on anything a reply does not bring, may
	// set it.
	Next(cycle int64) (Injection, bool)
	// Deliver hands a completed reply back.
	Deliver(rep core.Reply, cycle int64)
}

// DefaultWatchdogCycles is every machine's no-progress limit (Stalled): far
// above the fault plans' capped retransmit backoff (RetryCap defaults to 512
// cycles), so only a genuine livelock or deadlock can trip it.
const DefaultWatchdogCycles = 10000

// Machine is what every cycle engine offers its drivers — soaks, replay,
// the chaos fuzzer, program runners.  The embedded Shell satisfies it.
type Machine interface {
	Step()
	Run(cycles int)
	Drain(maxCycles int) bool
	InFlight() int
	Stalled() bool
	StallReport() string
	Snapshot() stats.Snapshot
	Totals() Totals
	Memory() *memory.Array
	CheckLoads() error
}

// Fwd is a request in value form, as the rim sees it: the port creates one
// per issue and holds it until the fabric takes it, and retry lists and the
// forward limbo carry it so.  Inside the fabric it
// is an entry in a station queue over a body in the store (store.go).
type Fwd struct {
	Req core.Request
	// Src is the issuing processor — the reply's destination on fabrics
	// that route replies by address.
	Src int
	// Issue is the first injection cycle; latency is measured from here.
	Issue int64
	// Hot marks hot-spot traffic for the per-class completion counters.
	Hot bool
	// Path is the reply route header of fabrics whose replies retrace a
	// recorded path (Section 4.1): the fabric extends it hop by hop, the
	// rim only carries it across the memory module.  Fabrics that route
	// replies by Src never read it.
	Path Path
}

// Shard is a block of run counters: what the ports, the terminal links,
// the module guards and the hops write.
type Shard struct {
	// Issued counts requests taken from the injectors, Completed replies
	// delivered to them.
	Issued, Completed int64
	// Latency sums, split by traffic class for the tree-saturation
	// experiment (E9).
	LatencySum     int64
	HotCompleted   int64
	HotLatencySum  int64
	ColdCompleted  int64
	ColdLatencySum int64

	MemRequests int64 // requests handed to memory modules
	MemAcks     int64 // replies that emerged from memory modules
	Checkpoints int64 // module checkpoints committed
	Orphans     int64 // module replies with no request metadata
	// Replayed counts deliveries of operations a crash had flushed
	// (faults.Pending.Lost): the retry machinery re-drove them.
	Replayed int64
	// MemBusy counts module service cycles.  serve is the only caller of
	// Module.Tick, so the total is the sum of Module.BusyCycles without the
	// watchdog signature walking the modules every cycle.
	MemBusy int64

	// Combines counts combine events across all stations.
	Combines int64
	// FwdHops and RevHops count link traversals — with the counts above, the
	// movement signature the progress watchdog keys on; FwdSlots and
	// RevSlots the value slots those messages carried (E11).
	FwdHops, RevHops   int64
	FwdSlots, RevSlots int64
	// Parks counts refused heads and offers that parked (park.go): a
	// host-side count, in no snapshot.
	Parks int64
	// Backpressure accounting: HoldsRev counts replies held upstream by the
	// reserved-credit check, HoldsMem requests held at a terminal queue's
	// head by a module without room, HoldsMemOut module completions held by
	// a station without reverse credit.
	HoldsRev, HoldsMem, HoldsMemOut int64
}

// Lane is one goroutine's working set inside a cycle: the counters its hops
// and ports write, the replies they brought home to a processor, the
// bodies they freed and the replies its deliveries' adversarial links
// deferred (limbo, released by the next prologues).  Every hop takes the
// caller's lane, so a worker phase writes only memory it owns: pool worker
// w uses Lane(w), and what a schedule runs outside its pool uses Lane(0).
// Commit delivers the lanes' replies, lane by lane in order — a schedule
// whose workers take contiguous ascending ranges thus delivers in the same
// order at every width — CommitLane one lane's, and the shell folds the
// counters into the totals, and the freed bodies into the store, after
// every sweep.  w is the lane's index, which names the arrays of the
// occupancy words its pushes and wakes write (Stations); the zero Lane is
// lane 0.  woke says a hop of the lane woke a parked head (park.go), which
// the walk it is in may have to visit (HopRow).  The pad keeps adjacent
// lanes of the contiguous slice off one cache line.
type Lane struct {
	Shard
	Home  []RevEntry
	freed []int32
	limbo []heldRev
	w     int
	woke  bool
	_     [64]byte
}

// Totals is a machine's run statistics (Shell.Totals); the staged network's
// Stats embeds it beside the gauges only its wiring has.
type Totals struct {
	Cycles int64

	// SaturationCycles counts cycles the engine's saturation predicate
	// held; SaturationMaxStreak is the longest such run.
	SaturationCycles    int64
	SaturationMaxStreak int64

	// WatchdogTrips is 1 if the progress watchdog declared a stall.
	WatchdogTrips int64

	Shard
}

// MeanLatency returns average round-trip cycles over completed requests.
func (t Totals) MeanLatency() float64 { return ratio(t.LatencySum, t.Completed) }

// ColdMeanLatency returns the mean latency of non-hot traffic.
func (t Totals) ColdMeanLatency() float64 { return ratio(t.ColdLatencySum, t.ColdCompleted) }

// HotMeanLatency returns the mean latency of hot-spot traffic.
func (t Totals) HotMeanLatency() float64 { return ratio(t.HotLatencySum, t.HotCompleted) }

// Bandwidth returns completed memory operations per cycle.
func (t Totals) Bandwidth() float64 { return ratio(t.Completed, t.Cycles) }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Hooks is what a wiring supplies beyond its stations and its links; all
// four are required.  The shell calls them from the stepping goroutine,
// CanFeed also from a schedule's pool workers for modules they own.
type Hooks struct {
	// Sweep is the wiring's schedule: one cycle's hops — reverse, module
	// ticks, forward, injection — in the wiring's order.
	Sweep func()
	// CanFeed is the wiring's module feed rule: whether module mod can take
	// one more request now (RoomInModule: whenever its input queue has
	// room).
	CanFeed func(mod int) bool
	// Saturated is the wiring's tree-saturation predicate for this cycle.
	Saturated func() bool
	// Observe names the wiring's own counters and gauges in a snapshot the
	// shell has started (combines, rejects and holds are already in it).
	Observe func(c *Counters, gauges map[string]int64)
}

// ShellConfig sizes a Shell.
type ShellConfig struct {
	// Engine names the machine in Snapshot.Engine and in messages.
	Engine    string
	Hooks     Hooks
	Injectors []Injector
	// Pool is the fabric's worker pool, one lane per worker; Run and Drain
	// keep its workers alive across their cycles.  nil means one worker.
	Pool *par.Pool
	// Modules, Service and MemQueueCap shape the memory array
	// (MemQueueCap <= 0 leaves the module input queues unbounded).
	Modules, Service, MemQueueCap int
	// Stations are the wiring's combining stations and Links its compiled
	// table.  The stations are the switch fault domains, in the rows their
	// occupancy words are laid out in (Stations.Own): site (stage, index)
	// of a stall or crash window is station stage·rowLen + index.
	Stations *Stations
	Links    *Links
	Faults   *faults.Plan
	// Trace, when non-nil, receives every event of every cycle after the
	// sweep, in the same order at every pool width (trace.go): each
	// processor's port events in processor order, then each station's in
	// station order, then each module's that no station fronts.  A module's
	// service is recorded at the station its reply enters, so a wiring
	// whose modules answer the processor links directly records none.
	Trace func(Event)
}

// Shell is the wiring-independent part of a cycle machine.  It owns the
// step frame (cycle advance, stall and crash masks with edge detection,
// retransmit expiry, limbo release, saturation monitor, watchdog), the
// processor ports, both terminal links with their integrity layer, the
// memory array with its module guards and request metadata, the stations
// and the hops between them (hop.go), and the observation surface (Run,
// Drain, InFlight, StallReport, Snapshot).  A cycle engine embeds one and
// supplies its stations, its compiled links and Hooks — a schedule and
// little else.
//
// Which calls a parallel schedule's workers may make, and with whose Shard,
// is the worker-phase rule in hop.go.
type Shell struct {
	name  string
	hooks Hooks
	inj   []Injector
	mem   *memory.Array
	pool  *par.Pool

	st    *Stations
	links *Links
	// store holds the bodies of the messages in the stations and the
	// metadata shards (store.go): the stations' own.
	store *Store
	// The occupancy index: what a sweep reads before it touches a station
	// or a module (DESIGN.md §6.2).  Stations keeps its own entries
	// (Shell.Loads); memLoad[mod] counts what a tick of module mod can act on
	// (memory.Module.Work): its queued requests, the one in service among
	// them, and its released replies, but not the replies output commit
	// withholds.  It is written beside every Enqueue, in serve (a reply
	// emerges; under checkpoints also a served request joins the withheld),
	// beside Checkpoint (the released ones) and Crash.  Each entry has the
	// owner of the queue it counts, phase by phase.  busy holds the module
	// words over it (initModules), which a schedule walks.
	memLoad []int32
	busy    []uint64
	mspan   int
	modBit  []int32
	// lanes are the stepping goroutines' working sets, one per pool worker;
	// behind is the processor links' scratch lane for a wait buffer behind
	// them (Links.Behind), lane 0's writer: the links commit on one
	// goroutine.
	lanes  []Lane
	behind Lane
	// fwdMemo[at·Ports+port] and portMemo[p] remember why the head of a
	// forward link or of processor p's port was last refused (refusal,
	// hop.go); each has the owner of the station or port it sits at.
	fwdMemo  []refusal
	portMemo []portRefusal
	// trace is the event sink (ShellConfig.Trace); events[at] is station at's
	// buffer for the cycle, portEvents[p] processor p's and modEvents[mod]
	// module mod's when no station sits between it and the processors (Tick
	// with at < 0), each with the owner of its station, port or module
	// (trace.go).
	trace      func(Event)
	events     [][]Event
	portEvents [][]Event
	modEvents  [][]Event

	tot Totals // tot.Cycles is the machine's clock
	lat stats.Histogram
	wd  watchdog
	sat saturation

	// pending holds a request accepted from an injector but not yet taken
	// by the fabric; values, not pointers, so the steady-state port never
	// forces a heap escape.  retry queues retransmissions per processor,
	// offered ahead of fresh traffic.
	pending    []Fwd
	hasPending []bool
	retry      []core.FIFO[Fwd]
	// asleep[p] says port p has nothing to offer until a reply reaches it:
	// its injector said so (Injection.UntilReply), or its pending request
	// is held back behind an earlier one (Offer).  complete wakes it.
	asleep []bool

	// meta preserves a request's entry — its return path and its body —
	// across its memory module, which only transports core requests.  It is
	// sharded per module (metaShard, link.go): meta[mod] is written by
	// whoever feeds module mod and consumed when that module's reply
	// emerges, so under a parallel stepper each shard has one owner per
	// phase.
	meta []metaShard

	// Fault-mode state (nil/empty on a healthy machine).  stall and swDead
	// are this cycle's masks over the switch sites, a row of stations a
	// stage, memDead over the modules; all three are filled serially at the top of Step,
	// so every Workers width sees the same schedule.  masked says the last
	// fill had a window open: the masks may hold a set bit, so the next
	// cycle fills them again even if it is quiet (updateMasks).  quiet says
	// no module tick has a per-cycle count to make this cycle — no checkpoint
	// is due and no slowdown window is open — so Tick skips an idle module as
	// on a healthy machine; linkOpen says some link-down window is open, so
	// LostFwd and LostRev ask about it.  The prologue sets both.  crash says
	// the plan has crash windows: swDead and memDead are live, and so is the
	// crash ledger rec.  floors are the processors' delivered floors, which
	// the prologue writes for the modules' reply caches to read
	// (memory.WithDeliveredFloors).
	flt      *faults.Injector
	trk      *faults.Tracker
	floors   []word.ReqID
	crash    bool
	rec      ledger
	stall    []bool
	swDead   []bool
	memDead  []bool
	nextDead []bool // updateMasks' scratch
	masked   bool
	quiet    bool
	linkOpen bool
	// adv arms the integrity layer on the terminal links; the limbo
	// buffers hold reordered messages until their release cycle.  The
	// forward limbo is per module — fwdLimbo[mod] is owned like meta[mod],
	// by whoever feeds module mod — so each module's releases keep the order
	// its link deferred them in at any width (DESIGN.md §8); the reverse
	// limbo is per lane (Lane.limbo), and a processor's replies all go
	// through one lane, so each processor's releases keep theirs.
	adv      bool
	fwdLimbo [][]heldFwd
}

// Init sizes the shell; the embedding engine calls it once from its
// constructor, after validating its own Config.
func (s *Shell) Init(cfg ShellConfig) {
	procs, st := len(cfg.Injectors), cfg.Stations
	memOpts := []memory.Option{memory.WithServiceTime(cfg.Service)}
	if cfg.MemQueueCap > 0 {
		memOpts = append(memOpts, memory.WithQueueCap(cfg.MemQueueCap))
	}
	var floors []word.ReqID
	if cfg.Faults != nil {
		floors = make([]word.ReqID, procs)
		memOpts = append(memOpts, memory.WithReplyCache(), memory.WithDeliveredFloors(floors))
		if cfg.Faults.HasCrashes() {
			memOpts = append(memOpts, memory.WithCheckpoints())
		}
	}
	*s = Shell{
		name:       cfg.Engine,
		hooks:      cfg.Hooks,
		inj:        cfg.Injectors,
		mem:        memory.NewArray(cfg.Modules, memOpts...),
		pool:       cfg.Pool,
		wd:         watchdog{limit: DefaultWatchdogCycles},
		pending:    make([]Fwd, procs),
		hasPending: make([]bool, procs),
		asleep:     make([]bool, procs),
		meta:       make([]metaShard, cfg.Modules),
		st:         st,
		links:      cfg.Links,
		store:      st.store,
		memLoad:    make([]int32, cfg.Modules),
		fwdMemo:    make([]refusal, st.Len()*cfg.Links.Ports),
		portMemo:   make([]portRefusal, procs),
		trace:      cfg.Trace,
		floors:     floors,
	}
	if s.pool == nil {
		s.pool = par.NewPool(1)
	}
	s.lanes = make([]Lane, s.pool.Workers())
	for w := range s.lanes {
		s.lanes[w].w = w
	}
	st.back = s.links.Back
	s.initParks(procs, cfg.Faults)
	st.initPorts(s.links)
	s.initModules(cfg.Modules)
	if s.trace != nil {
		s.events = make([][]Event, st.Len())
		s.portEvents = make([][]Event, procs)
		s.modEvents = make([][]Event, cfg.Modules)
		st.trace = s.stationEvent
	}
	// Every queue's first storage in sweep order, after the wiring has set
	// the bounds (the direct wirings' memory queues have their own).
	core.SeedFIFOs(st.fwd)
	core.SeedFIFOs(st.rev)
	if cfg.Faults == nil {
		return
	}
	// The reply caches answer a combined message leaf by leaf, so every
	// combine keeps the books.
	st.pol.Bookkeeping = true
	s.flt = faults.NewInjector(*cfg.Faults)
	s.trk = faults.NewTracker(s.flt, procs)
	plan := s.flt.Plan()
	s.adv = plan.HasAdversarial()
	if s.adv {
		s.fwdLimbo = make([][]heldFwd, cfg.Modules)
	}
	s.retry = make([]core.FIFO[Fwd], procs)
	s.stall = make([]bool, st.Len())
	if s.crash = plan.HasCrashes(); s.crash {
		s.rec = ledger{every: plan.CheckpointEvery}
		s.swDead = make([]bool, st.Len())
		s.memDead = make([]bool, cfg.Modules)
		s.nextDead = make([]bool, max(st.Len(), cfg.Modules))
	}
}

// Step advances the machine one cycle: the frame's prologue, the wiring's
// schedule, the frame's epilogue.
func (s *Shell) Step() {
	s.tot.Cycles++
	if s.flt != nil {
		// The masks change only while some window is open and on the cycle
		// after the last one closes (the falling edges).  On any other cycle
		// every site query would answer false and count nothing, and the
		// masks are already clear.
		if open := s.flt.WindowOpen(s.tot.Cycles); open || s.masked {
			s.updateMasks()
			s.masked = open
		}
		s.quiet = !(s.crash && s.rec.checkpointDue(s.tot.Cycles)) && !s.flt.MemStallOpen(s.tot.Cycles)
		s.linkOpen = s.flt.LinkWindowOpen(s.tot.Cycles)
		for _, p := range s.trk.Expired(s.tot.Cycles) {
			*s.retry[p.Proc].Push() = Fwd{Req: p.Req, Src: p.Proc, Issue: p.IssueCycle, Hot: p.Hot}
			if s.st.portParked(p.Proc) {
				s.st.unparkPort(p.Proc) // the retransmit is offered first
			}
			s.st.markPort(p.Proc)
		}
		if s.adv {
			s.drainLimbo()
		}
		s.trk.Floors(s.floors)
	}
	s.store.reserve(len(s.inj)) // a schedule's workers may inject (Shell.alloc)
	s.hooks.Sweep()
	s.mergeLanes()
	if s.trace != nil {
		s.emitEvents()
	}

	s.sat.observe(s.hooks.Saturated())
	if s.wd.observe(s.tot.Cycles, s.progressSig(), s.InFlight) {
		s.tot.WatchdogTrips++
	}
}

// updateMasks fills this cycle's masks from the injector, which reads its
// windows, not the sites: the stall mask, then the crash masks with edge
// detection.  A rising edge (component entering its crash window) flushes the
// component's volatile state and records the lost in-flight operations; a
// falling edge is the restart — the component rejoins empty (switch site) or
// at its last checkpoint (module).  Each stalled site counts a lost
// switch-cycle and each dead component a dead component-cycle, once a cycle.
func (s *Shell) updateMasks() {
	s.flt.StallMask(s.stall, s.st.rowLen, s.tot.Cycles)
	if !s.crash {
		return
	}
	next := s.nextDead[:len(s.swDead)]
	s.flt.SwitchCrashMask(next, s.st.rowLen, s.tot.Cycles)
	for d, dead := range next {
		if dead && !s.swDead[d] {
			s.rec.crashes++
			s.rec.noteLost(s.trk, s.flush(d))
		} else if !dead && s.swDead[d] {
			s.rec.restores++
		}
	}
	copy(s.swDead, next)
	next = s.nextDead[:len(s.memDead)]
	s.flt.MemCrashMask(next, s.tot.Cycles)
	for mod, dead := range next {
		if dead && !s.memDead[mod] {
			s.rec.crashes++
			s.rec.noteLost(s.trk, s.mem.Module(mod).Crash())
			s.memLoad[mod] = 0
			s.clearModule(mod)
		} else if !dead && s.memDead[mod] {
			s.rec.restores++
		}
	}
	copy(s.memDead, next)
}

// progressSig is the watchdog's monotone progress signature: any message
// movement — an issue, a hop, a module feed, service cycle or reply, a
// delivery, or a fault event that consumes a message — changes it.  If it
// freezes with work in flight, nothing is moving anywhere.  Service cycles
// count because a module may be the only thing moving for as long as its
// service time, or until the next checkpoint releases its replies, and
// neither is bounded by the watchdog limit.
func (s *Shell) progressSig() int64 {
	sig := s.tot.Issued + s.tot.Completed + s.tot.MemRequests + s.tot.MemAcks +
		s.tot.Orphans + s.tot.MemBusy + s.tot.FwdHops + s.tot.RevHops
	if s.flt != nil {
		sig += s.flt.Injected()
	}
	return sig
}

// Run advances the machine the given number of cycles, stopping early if
// the progress watchdog trips (a stalled machine makes no further progress
// by definition; callers check Stalled / StallReport).  A pool wider than
// one starts its persistent workers here, once per Run — not once per
// cycle — and retires them on return; a bare Step outside Run still works
// through the pool's spawn fallback.
func (s *Shell) Run(cycles int) {
	s.run(cycles, func() bool { return false })
}

// Drain runs the machine until no requests remain in flight (injectors
// willing, i.e. they stop offering traffic), up to the given cycle bound.
// It reports whether the machine fully drained; a watchdog trip ends the
// drain at once, since no amount of further cycles empties a stalled
// machine.
func (s *Shell) Drain(maxCycles int) bool {
	s.run(maxCycles, func() bool { return s.InFlight() == 0 })
	return s.InFlight() == 0
}

// run steps up to cycles times, stopping after a step that leaves done true
// or the watchdog tripped.
func (s *Shell) run(cycles int, done func() bool) {
	s.pool.Start()
	defer s.pool.Stop()
	for i := 0; i < cycles && !s.wd.tripped(); i++ {
		if s.Step(); done() {
			return
		}
	}
}

// InFlight reports requests somewhere in the machine: pending at a port,
// queued in the fabric, or inside a memory module.  Under a fault plan,
// physical occupancy is the wrong notion — messages vanish on dropped links
// and stale wait records linger by design — so the tracker's ledger answers
// instead: requests issued but not yet delivered.
func (s *Shell) InFlight() int {
	if s.trk != nil {
		return s.trk.Outstanding()
	}
	fwd, rev := s.st.held(0, s.st.rows)
	return s.atPorts() + fwd + rev + s.st.records(0, s.st.rows) + s.inMemory()
}

func (s *Shell) atPorts() int {
	n := 0
	for _, occupied := range s.hasPending {
		if occupied {
			n++
		}
	}
	return n
}

func (s *Shell) inMemory() int {
	n := 0
	for i := range s.meta {
		n += len(s.meta[i].boxes())
	}
	return n
}

// Stalled reports whether the progress watchdog has tripped: work was in
// flight and nothing moved for DefaultWatchdogCycles cycles.
func (s *Shell) Stalled() bool { return s.wd.tripped() }

// StallReport formats the watchdog diagnostic with a queue snapshot — the
// state dump a failing soak prints next to its replay seed.  It leads with
// the wiring's name (Links.Name), so a torus and a cube, one engine, tell
// apart.
func (s *Shell) StallReport() string {
	crashed := ""
	if s.flt != nil {
		crashed = s.flt.ActiveCrashes(s.wd.tripCycle)
	}
	detail := fmt.Sprintf("pending=%d meta=%d\n%s", s.atPorts(), s.inMemory(), s.detail())
	return stallReport(s.links.Name, &s.wd, s.InFlight(), crashed, detail)
}

// Snapshot captures the run's instrumentation behind the shared
// cross-engine API (see internal/stats): the shared counters, then what the
// wiring names its own, then the fault/recovery block, the
// recovery-latency histogram and the retry tracker's current timeout when a
// plan is armed (settled first: Tracker.Settle).
func (s *Shell) Snapshot() stats.Snapshot {
	t := s.Totals()
	c := Counters{
		Cycles:           t.Cycles,
		Issued:           t.Issued,
		Completed:        t.Completed,
		HotCompleted:     t.HotCompleted,
		ColdCompleted:    t.ColdCompleted,
		Replies:          t.Completed,
		SaturationCycles: t.SaturationCycles,
		WatchdogTrips:    t.WatchdogTrips,
		Checkpoints:      t.Checkpoints,
		Combines:         t.Combines,
		HoldsRev:         t.HoldsRev,
		HoldsMem:         t.HoldsMem,
		HoldsMemOut:      t.HoldsMemOut,
		CombineRejects:   s.Rejections(),
	}
	gauges := map[string]int64{"saturation_max_streak": t.SaturationMaxStreak}
	s.hooks.Observe(&c, gauges)
	snap := stats.Snapshot{
		Engine:     s.name,
		Counters:   c.Map(),
		Gauges:     gauges,
		Histograms: map[string]stats.HistogramSnapshot{"latency_cycles": s.lat.Snapshot()},
	}
	if s.flt != nil {
		faults.AddValues(&snap, faults.Values{
			Injected:       s.flt.Injected(),
			DropsFwd:       s.flt.DropsFwd.Load(),
			DropsRev:       s.flt.DropsRev.Load(),
			StallCycles:    s.flt.StallCycles.Load(),
			MemStallCycles: s.flt.MemStallCycles.Load(),
			Retries:        s.trk.Retries.Load(),
			Duplicates:     s.trk.Duplicates.Load(),
			Recovered:      s.trk.Recovered.Load(),
			DedupHits:      s.mem.TotalDedupHits(),
			Orphans:        t.Orphans,
			ReorderedHeld:  s.flt.ReorderedHeld.Load(),
			DupInjected:    s.flt.DupInjected.Load(),
			CorruptDropped: s.flt.CorruptDropped.Load(),
			Crashes:        s.rec.crashes,
			Restores:       s.rec.restores,
			Replayed:       t.Replayed,
			LostInFlight:   s.rec.lostN,
			CrashCycles:    s.flt.CrashCycles.Load(),
		})
		snap.Histograms["recovery_latency_cycles"] = s.trk.RecoveryLatency.Snapshot()
		// The timeout the next arm uses: the last cycle's round trips
		// folded in, as the next Expired would first.
		s.trk.Settle()
		snap.Gauges["retry_timeout_cycles"] = s.trk.Timeout(1)
	}
	return snap
}

// Cycle returns the current cycle number.
func (s *Shell) Cycle() int64 { return s.tot.Cycles }

// Totals returns the rim's run counters.
func (s *Shell) Totals() Totals {
	t := s.tot
	t.SaturationCycles, t.SaturationMaxStreak = s.sat.cycles, s.sat.maxStreak
	return t
}

// Latency snapshots the round-trip histogram (cycles per completion).
func (s *Shell) Latency() stats.HistogramSnapshot { return s.lat.Snapshot() }

// Memory exposes the module array (for initialization and inspection).
func (s *Shell) Memory() *memory.Array { return s.mem }

// RoomInModule is the common feed rule (Hooks.CanFeed): a module takes a
// request whenever its input queue has room.
func (s *Shell) RoomInModule(mod int) bool { return s.mem.Module(mod).CanEnqueue() }

// Quiet reports whether a module tick has no per-cycle count to make this
// cycle (Shell.quiet): always on a healthy machine.  On a cycle that is not
// quiet a schedule ticks every module, idle or not.
func (s *Shell) Quiet() bool { return s.flt == nil || s.quiet }

// ModuleDead reports whether module mod is crashed this cycle.
func (s *Shell) ModuleDead(mod int) bool { return s.crash && s.memDead[mod] }
