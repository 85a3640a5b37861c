// Package busnet models the last architecture of Section 7: "Combining
// can also be used on machines where multiple processors are connected to
// a shared memory by a bus.  The shared memory is often heavily
// interleaved; thus it achieves high, but uneven, throughput.  A FIFO
// buffer is often used to decouple memory from the shared bus.  Combining
// in this queue will improve the memory throughput by reducing conflicting
// accesses to the same memory bank."
//
// The machine: processors arbitrate for a bus carrying one request per
// cycle into a central FIFO; the FIFO head dispatches to an interleaved
// bank when that bank is idle (head-of-line blocking on a busy bank is
// precisely the conflict combining removes); replies decombine against the
// FIFO's wait buffer and return to the issuing processor.
//
// The FIFO and its wait buffer are one engine.Station — the station of the
// staged and direct machines, degree one — and the bus, the dispatch and the
// return bus are engine.Shell's hops; what this package keeps is the link
// table (busLinks) and the schedule (sweep): bank ticks and return, head
// dispatch, one bus transfer per cycle.
package busnet

import (
	"fmt"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/par"
)

// Config parameterizes the bus machine.
type Config struct {
	// Procs is the number of processors (any count ≥ 1).
	Procs int
	// Banks is the number of interleaved memory banks (≥ 1).
	Banks int
	// QueueCap bounds the decoupling FIFO (default 8).
	QueueCap int
	// BankQueueCap bounds each bank's input queue, including the request
	// in service; the FIFO head dispatches only while the target bank is
	// below it, holding (head-of-line blocking) otherwise.  0 defaults to
	// 1 — the classic decoupled-bus design where a bank accepts the next
	// request only when idle.
	BankQueueCap int
	// WaitBufCap bounds the FIFO's wait buffer (0 disables combining).
	WaitBufCap int
	// BankService is cycles per memory operation (default 4 — banks are
	// slower than the bus, which is why they are interleaved).
	BankService int
	// AllowReversal enables the Section 5.1 optimization.
	AllowReversal bool
	// Workers shards the bank-service scan of each cycle across this many
	// goroutines (see internal/par and DESIGN.md §6.1); 0 and 1 mean one.
	// Banks tick in parallel — each touches only its own module — and
	// completions commit serially in bank order, so output is byte-for-byte
	// identical at any width, under every fault plan.
	Workers int
	// Faults, when non-nil, arms the deterministic fault plan and the
	// recovery layer (see internal/faults and internal/network.Config).
	// The bus machine has one switch site (0, 0): a stall window there
	// freezes the bus and decoupling FIFO; bank slowdowns key on the
	// window's Index as the bank number.
	Faults *faults.Plan
	// Trace, when non-nil, observes every event of every cycle
	// (engine.ShellConfig.Trace), as network.Config.Trace does.
	Trace func(engine.Event)
}

// Sim is the cycle-driven bus machine: the shared shell (processor ports,
// terminal links, banks, step frame, station and hops — the embedded
// engine.Shell) around the smallest wiring there is: one station holding the
// decoupling FIFO and its wait buffer, one link per bank out of it, and the
// bus into it.  The machine has two kinds of fault domain: the bus + FIFO
// (switch site (0, 0) — a stall window freezes it, a crash flushes the FIFO,
// the wait buffer and the reply metadata) and each bank (a crash rolls the
// module back to its last checkpoint).
type Sim struct {
	engine.Shell

	cfg  Config
	fifo *core.FIFO[engine.FwdEntry] // the decoupling FIFO, bounded by Config.QueueCap

	// The bank scan: the worker pool (Config.Workers wide, persistent
	// workers bracketed by Run/Drain) and the scan function, bound once at
	// construction so the cycle loop builds no closures.  See DESIGN.md
	// §6.1.
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
		Engine:   "busnet",
		Procs:    c.Procs,
		MinProcs: 1,
		Banks:    c.Banks,
		Workers:  c.Workers,
		Service:  c.BankService,
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if c.QueueCap == 0 {
		c.QueueCap = 8
	}
	if c.BankQueueCap == 0 {
		c.BankQueueCap = 1
	}
	if c.BankService == 0 {
		c.BankService = 4
	}
	return nil
}

// NewSim builds the machine.
func NewSim(cfg Config, inj []engine.Injector) *Sim {
	if err := cfg.normalize(); err != nil {
		panic(err)
	}
	if len(inj) != cfg.Procs {
		panic(fmt.Sprintf("busnet: got %d injectors for %d processors", len(inj), cfg.Procs))
	}
	s := &Sim{cfg: cfg, pool: par.NewPool(cfg.Workers)}
	s.tickFn = s.tickWorker
	station := engine.NewStations(1, 1, 0, cfg.QueueCap, 0, cfg.WaitBufCap,
		core.Policy{AllowReversal: cfg.AllowReversal})
	s.fifo = &station.Fwd(0)[0]
	s.Shell.Init(engine.ShellConfig{
		Engine:      "busnet",
		Hooks:       engine.Hooks{Sweep: s.sweep, CanFeed: s.RoomInModule, Saturated: s.saturated, Observe: s.observe},
		Injectors:   inj,
		Pool:        s.pool,
		Modules:     cfg.Banks,
		Service:     cfg.BankService,
		MemQueueCap: cfg.BankQueueCap,
		Stations:    station,
		Links:       busLinks(cfg.Procs, cfg.Banks),
		Stages:      1,
		Faults:      cfg.Faults,
		Trace:       cfg.Trace,
	})
	return s
}

// busLinks is the bus machine's wiring: every processor's link enters the one
// station (fault coordinate (0, 0, p)), every request joins its one queue,
// and a reply — which carries no path and finds every processor attached
// there — leaves it for its processor at once.  The station sits on the
// processors' side of the return bus (Behind), whose fault coordinate is
// (2, 0, p), and keeps the reply metadata of every bank (Holds).
func busLinks(procs, banks int) *engine.Links {
	lk := &engine.Links{
		Ports: 1, // the FIFO is a link queue: its link is the memory bus to the banks
		Proc:  make([]engine.Link, procs), ProcAt: make([]engine.Coord, procs),
		Home:  make([]engine.Coord, procs),
		Route: [][]uint8{make([]uint8, banks)}, Back: [][]int8{make([]int8, procs)},
		Holds: make([]int32, banks), Behind: make([]int32, procs),
	}
	for p := 0; p < procs; p++ {
		lk.ProcAt[p], lk.Home[p] = engine.Coord{Port: int32(p)}, engine.Coord{Stage: 2, Port: int32(p)}
		lk.Back[0][p] = -1
	}
	return lk
}

// observe names the bus's counters and gauges in a snapshot the shell has
// started.  A head-of-line block IS this machine's memory-input hold (the
// blocked request sits at the FIFO head waiting for its bank), published
// under both the bus-specific and the cross-engine name; a bus grant is its
// one kind of forward hop.
func (s *Sim) observe(c *engine.Counters, gauges map[string]int64) {
	t := s.Totals()
	c.BankOps = t.MemRequests
	c.BusOps = t.FwdHops
	c.HOLBlocked = t.HoldsMem
	gauges["fifo_max"] = int64(s.fifo.Peak())
	gauges["max_mem_queue"] = int64(s.Memory().MaxQueueDepth())
}

// saturated: the decoupling FIFO is full AND its head is blocked on a busy
// bank — offered load has nowhere to go but the bus arbitration holds, the
// bus machine's tree-saturation analogue.
func (s *Sim) saturated() bool {
	if !s.fifo.Full() {
		return false
	}
	bank := s.Memory().HomeOf(s.fifo.Front().Addr)
	return !s.Memory().Module(bank).CanEnqueue()
}

// sweep is the bus's schedule: bank completions cross the return bus (and
// decombine behind it), the FIFO head dispatches, and one processor wins the
// bus.
func (s *Sim) sweep() {
	// Banks tick — bank-local, so each of the pool's workers takes a
	// contiguous range — and the completed replies that survive the return
	// bus commit in ascending bank order: decombining and delivery touch
	// shared state.
	s.pool.Run(s.tickFn)
	s.Commit()

	if s.Down(0) {
		return // blackout or crash: the bus and decoupling FIFO freeze
	}

	// Dispatch the FIFO head when its bank has input-queue room (with the
	// default BankQueueCap of 1: when the bank is idle).  A dead bank holds
	// the head like a busy one.
	if s.fifo.Len() > 0 {
		head := s.fifo.Front()
		if bank := s.Memory().HomeOf(head.Addr); !s.MemReady(bank) {
			s.Lane(0).HoldsMem++
		} else if s.LostFwd(&engine.Coord{Stage: 1, Index: int32(bank)}, &s.Stations().Body(head.H).Req, false) {
			s.Lose(0, 0, s.Lane(0))
		} else {
			s.Feed(0, 0, bank, faults.Site(1, bank, 0), s.Lane(0))
		}
	}

	// Bus arbitration: round-robin; the bus carries one request per cycle,
	// and a transfer lost on the bus still consumes it.
	for i, p := 0, s.Turn(s.cfg.Procs); i < s.cfg.Procs; i, p = i+1, engine.Next(p, s.cfg.Procs) {
		if s.Inject(p) {
			break
		}
	}
}

// tickWorker is the per-worker body of the bank compute phase, bound to
// Sim.tickFn once at construction.
func (s *Sim) tickWorker(w int) {
	lo, hi := par.Split(s.cfg.Banks, s.pool.Workers(), w)
	for b := lo; b < hi; b++ {
		s.Tick(b, -1, s.Lane(w))
	}
}
